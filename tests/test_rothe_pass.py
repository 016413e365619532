"""The free-values pass behind rothe_diagram, coxeter_length, lehmer_code,
the reading order and box labels of D(v) (`_reading_cells`) and compress, checked against the definitional
loops it replaced, and a 321-avoiding pair at n = 400 run end to end."""

import random
from itertools import permutations

from klreg.errors import InternalError
from klreg.perm import (
    Permutation,
    coxeter_length,
    is_321_avoiding,
    lehmer_code,
    rothe_diagram,
)
from klreg.oracle import _swap_if_avoiding
from klreg.pipes import _reading_cells, d_ne, reading_word
from klreg.skew import compress
from klreg.zipdiag import zip_result

from knowndata import all_321_avoiding, delta, inverse_word


def _rothe_diagram_reference(u):
    """Every cell of the n x n grid tested against the definition."""
    inv = inverse_word(u)
    return tuple(
        (i, j)
        for i in range(1, u.n + 1)
        for j in range(1, u.n + 1)
        if u.word[i - 1] > j and inv[j - 1] > i
    )


def _coxeter_length_reference(u):
    w = u.word
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def _lehmer_code_reference(u):
    w = u.word
    return tuple(sum(1 for j in range(i + 1, len(w)) if w[j] < w[i]) for i in range(len(w)))


def _box_labels_reference(v):
    labels = {}
    row = k = 0
    for (i, j) in _rothe_diagram_reference(v):
        if i != row:
            row, k = i, 0
        k += 1
        labels[(i, j)] = i + k - 1
    return labels


def _reading_order_reference(v):
    return tuple(sorted(_rothe_diagram_reference(v), key=lambda c: (c[0], -c[1])))


def _compress_reference(v):
    """compress's rows and maps, rescanning the whole diagram once per row."""
    cells = _rothe_diagram_reference(v)
    rows = sorted({i for i, _ in cells})
    cols = sorted({j for _, j in cells})
    rmap = {r: k for k, r in enumerate(rows, 1)}
    cmap = {c: k for k, c in enumerate(cols, 1)}
    forward = {(i, j): (rmap[i], cmap[j]) for (i, j) in cells}
    backward = {img: src for src, img in forward.items()}
    intervals = []
    for r in rows:
        rcols = sorted(cmap[j] for (i, j) in cells if i == r)
        if rcols != list(range(rcols[0], rcols[-1] + 1)):
            raise InternalError(f"compressed row {rmap[r]} is not contiguous")
        intervals.append((rcols[0], rcols[-1]))
    return tuple(intervals), forward, backward


def _check_any(u):
    assert rothe_diagram(u) == _rothe_diagram_reference(u)
    assert coxeter_length(u) == _coxeter_length_reference(u)
    assert lehmer_code(u) == _lehmer_code_reference(u)


def _check_321_avoiding(v):
    read = tuple(_reading_cells(v))
    assert dict(read) == _box_labels_reference(v)
    assert tuple(c for c, _ in read) == _reading_order_reference(v)
    region, maps = compress(v)
    rows, forward, backward = _compress_reference(v)
    assert region.rows == rows
    assert list(maps.forward.items()) == list(forward.items())
    assert list(maps.backward.items()) == list(backward.items())


def _two_rows(rng, n):
    """A seeded union of two increasing subsequences, so 321-avoiding: a
    random value set in increasing order on a random position set, the
    other values in increasing order on the other positions."""
    m = rng.randint(0, n)
    values = sorted(rng.sample(range(1, n + 1), m))
    positions = set(rng.sample(range(n), m))
    rest = iter(sorted(set(range(1, n + 1)) - set(values)))
    picked = iter(values)
    return Permutation(tuple(next(picked) if p in positions else next(rest) for p in range(n)))


def test_pass_matches_references_on_small_groups():
    for n in range(1, 8):
        for word in permutations(range(1, n + 1)):
            _check_any(Permutation(word))
        for v in all_321_avoiding(n):
            _check_321_avoiding(v)


def test_pass_matches_references_on_seeded_words():
    rng = random.Random(60)
    for n in range(20, 201, 20):
        for _ in range(3):
            _check_any(Permutation(tuple(rng.sample(range(1, n + 1), n))))
            v = _two_rows(rng, n)
            assert is_321_avoiding(v)
            _check_any(v)
            _check_321_avoiding(v)
    w0 = Permutation(tuple(range(60, 0, -1)))
    _check_any(w0)
    assert coxeter_length(w0) == 60 * 59 // 2


def _walk_pair(rng, n, steps, prob):
    """v by a length-increasing adjacent-swap walk that stays 321-avoiding;
    w by Demazure steps over v's reading word, each letter taken with
    probability prob when it lengthens w and keeps it 321-avoiding, so w <= v.

    The same walk as oracle.random_avoiding_pair, kept here because the test
    needs l(v) = steps exactly, which the sampler does not promise (it draws
    its own step count), and because a random position per try is cheaper at
    n = 400 than the sampler's shuffle of every position per step."""
    word = list(range(1, n + 1))
    before, after = list(range(n + 1)), list(range(1, n + 2))
    for _ in range(steps):
        for _ in range(4 * n):
            if _swap_if_avoiding(word, before, after, rng.randrange(n - 1)):
                break
        else:
            break
    v = Permutation(tuple(word))
    w = list(range(1, n + 1))
    before, after = list(range(n + 1)), list(range(1, n + 2))
    for a in reading_word(v, rothe_diagram(v)):
        i = a - 1
        if w[i] < w[i + 1] and rng.random() < prob:
            _swap_if_avoiding(w, before, after, i)
    return v, Permutation(tuple(w))


def test_pair_at_n_400():
    v, w = _walk_pair(random.Random(400), 400, 8000, 0.5)
    lv, lw = coxeter_length(v), coxeter_length(w)
    assert lv == 8000 and 0 < lw < lv
    cells = d_ne(v, w)
    assert len(cells) == lw and delta(v, cells) == w
    region, _ = compress(v)
    assert region.size() == lv
    res = zip_result(v, w)
    assert (res.region.size(), res.d_top.size()) == (lv, lw)
    assert lw <= res.degree <= lv
