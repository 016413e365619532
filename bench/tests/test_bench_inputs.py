"""The benchmark's input generators: deterministic per seed, 321-avoiding
pairs with w <= v, and the shapes the workloads claim."""

import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
from klreg import Permutation, bruhat_leq, is_321_avoiding, rothe_diagram  # noqa: E402
from klreg.pipes import reading_word  # noqa: E402
from klreg.skew import d_top  # noqa: E402
from klreg.zipdiag import components  # noqa: E402


def _pairs(seed):
    return inputs.random_pairs("t", seed, 24, range(4, 28, 3), (0.1, 0.7), "pair", prob=(0.1, 0.9))


def test_pairs_are_deterministic_per_seed():
    a, b = _pairs(7), _pairs(7)
    assert a == b
    assert inputs.digest(a) == inputs.digest(b)
    assert inputs.digest(a) != inputs.digest(_pairs(8))


def test_pairs_are_distinct_321_avoiding_and_comparable():
    gaps = {n: (2, 9) for n in range(10, 17)}
    ops = _pairs(3) + inputs.random_pairs("t", 5, 14, range(10, 17), (0.4, 0.75), "sweep", gap=gaps)
    assert len({(tuple(op["v"]), tuple(op["w"])) for op in ops}) == len(ops)
    for op in ops:
        v, w = Permutation(tuple(op["v"])), Permutation(tuple(op["w"]))
        assert op["n"] == v.n
        assert is_321_avoiding(v) and is_321_avoiding(w)
        assert bruhat_leq(w, v)


def test_reading_letters_match_klreg():
    rng = random.Random(1)
    for n in (3, 7, 12):
        v = inputs.walk_v(rng, n, n * n // 5)
        p = Permutation(v)
        assert inputs.reading_letters(v) == list(reading_word(p, rothe_diagram(p)))
        assert inputs.inversions(v) == len(rothe_diagram(p))


def test_grassmannian_word_is_a_padded_rectangle():
    v = Permutation(tuple(inputs.grassmannian_word(3, 5, 2, 1)))
    assert v.n == 11
    assert set(rothe_diagram(v)) == {(i, j) for i in range(3, 6) for j in range(3, 8)}


def test_workload_lists_are_deterministic():
    def accept(board):
        return len(board["marked"]) == 1

    for workload in inputs.WORKLOADS:
        a = inputs.build(workload, 4, 2, accept)
        b = inputs.build(workload, 4, 2, accept)
        assert a and inputs.digest(a) == inputs.digest(b)


def test_top_diagram_and_chains_match_klreg():
    for op in _pairs(11) + _pairs(12):
        v, w = tuple(op["v"]), tuple(op["w"])
        top = d_top(Permutation(v), Permutation(w))
        assert sorted(inputs.top_diagram(v, w)) == sorted(top.pluses)
        assert inputs.top_chains(v, w) == sum(inputs.chain_count(c) for c in components(top))


def test_max_chains_caps_the_top_diagram():
    kw = dict(sizes=range(30, 51, 5), frac=(0.2, 0.35), kind="pair", prob=(0.1, 0.4))
    free = inputs.random_pairs("t", 9, 30, **kw)
    capped = inputs.random_pairs("t", 9, 30, **kw, max_chains=20)
    assert max(inputs.top_chains(op["v"], op["w"]) for op in free) > 20
    assert len(capped) == 30
    assert all(inputs.top_chains(op["v"], op["w"]) <= 20 for op in capped)
