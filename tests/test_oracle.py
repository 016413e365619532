import hashlib
import random

import pytest

from klreg import oracle
from klreg.errors import ResourceError, ValidationError
from klreg.ladder import blanks, perm_of, rank_constraints
from klreg.perm import (
    Permutation,
    bruhat_leq,
    coxeter_length,
    identity,
    is_321_avoiding,
)
from klreg.pipes import d_ne
from klreg.skew import compress
from klreg.zipdiag import groth_degree, groth_degree_recursive

from knowndata import (
    D_NE_10,
    DEGREE10,
    LAD_A,
    LAD_C,
    LAD_FULL,
    V10,
    V11,
    V_LAD_A,
    W10,
    W11,
    W_LAD_A,
    all_321_avoiding,
    all_permutations,
    delta,
    excited_states,
)


def test_closure_examples():
    full = oracle.closure(V10, W10)
    assert full.max_size == DEGREE10
    from klreg.skew import d_top

    assert frozenset(d_top(V10, W10).pluses) in full.as_sets()
    only = oracle.closure(V10, identity(10))
    assert only.diagrams == ((),) and only.max_size == 0
    assert oracle.closure(V11, W11).max_size == 16


def test_closure_is_deterministic():
    a = oracle.closure(V10, W10)
    b = oracle.closure(V10, W10)
    assert a.diagrams == b.diagrams and a.size_histogram == b.size_histogram


def test_closure_budget():
    with pytest.raises(ResourceError) as err:
        oracle.closure(V10, W10, budget=3)
    assert err.value.partial["visited"] > 3


def test_max_closure_size_is_the_closure_max_size():
    # the popcount over the bitmask states reads the same degree as the
    # unpacked closure, and runs out of budget at the same point
    groups = [all_321_avoiding(n) for n in range(1, 7)]
    pairs = [(v, w) for group in groups for v in group for w in group if bruhat_leq(w, v)]
    for v, w in [*pairs, (V10, W10), (V11, W11)]:
        assert oracle.max_closure_size(v, w) == oracle.closure(v, w).max_size, (v, w)
    errors = []
    for route in (oracle.closure, oracle.max_closure_size):
        with pytest.raises(ResourceError) as err:
            route(V10, W10, budget=3)
        errors.append((str(err.value), err.value.partial))
    assert errors[0] == errors[1] == ("closure budget 3 exceeded", {"expanded": 2, "visited": 5})


def groth_support(v, w):
    """Each closure element pulled back to D(v), with its sign."""
    _, maps = compress(v)
    lw = coxeter_length(w)
    out = []
    for d in oracle.closure(v, w).diagrams:
        up = tuple(sorted(maps.backward[c] for c in d))
        out.append((up, (-1) ** (len(d) - lw)))
    return out


def test_groth_support():
    support = groth_support(V10, V10)
    assert len(support) == 1 and support[0][1] == 1
    support = groth_support(V10, W10)
    assert max(len(cells) for cells, _ in support) == DEGREE10
    lw = coxeter_length(W10)
    for cells, sign in support:
        assert sign == (-1) ** (len(cells) - lw)
        assert delta(V10, cells) == W10


def test_enumerate_pipes_counts():
    full = list(oracle.enumerate_pipes(V10, W10))
    reduced = [p for p in full if len(p) == coxeter_length(W10)]
    assert len(full) == len(oracle.closure(V10, W10))
    assert len(reduced) == len(excited_states(V10, W10))


def test_brute_earliest_subword():
    assert frozenset(oracle.brute_earliest_subword(V10, W10)) == D_NE_10
    assert oracle.brute_earliest_subword(V10, identity(10)) == ()
    rng = random.Random(5)
    for _ in range(40):
        v, w = oracle.random_avoiding_pair(rng, 5)
        assert frozenset(oracle.brute_earliest_subword(v, w)) == frozenset(d_ne(v, w))


def test_brute_minimal_w():
    assert oracle.brute_minimal_w(2, [((1, 1), 0)]) == Permutation((2, 1))
    assert oracle.brute_minimal_w(4, []) == identity(4)
    # a downsized board's constraints: both caps equal min(a, b), so the
    # minimal solution is the identity
    cons = [((3, 2), 2), ((3, 4), 3)]
    assert oracle.brute_minimal_w(6, cons) == identity(6)
    with pytest.raises(ValidationError, match="no permutation satisfies the rank constraints"):
        oracle.brute_minimal_w(3, [((1, 1), 1), ((1, 3), 0)])
    assert oracle.brute_minimal_w(9, []) == identity(9)
    with pytest.raises(ResourceError):
        oracle.brute_minimal_w(5, [((1, 1), 0)], budget=3)


def test_brute_minimal_w_certifies_a_board_beyond_s8():
    assert oracle.brute_minimal_w(11, rank_constraints(LAD_A, V_LAD_A)) == W_LAD_A


def test_enumerate_nilp_counts():
    fams = oracle.enumerate_nilp(LAD_FULL)
    assert len(fams) == 1  # the all-blank family
    v, w = perm_of(LAD_C)
    fams = oracle.enumerate_nilp(LAD_C)
    excited = excited_states(v, w)
    assert len(fams) == len(excited)
    assert {frozenset(blanks(LAD_C, f)) for f in fams} == excited


def test_enumerate_nilp_budget_is_the_largest_allowed_count():
    assert len(oracle.enumerate_nilp(LAD_A, budget=62)) == 62
    with pytest.raises(ResourceError):
        oracle.enumerate_nilp(LAD_A, budget=61)


def test_random_pair_draws_are_pinned():
    """The draws of every seed 0..4 and n = 4..60, hashed.  The digest was
    recorded with a swap test that scanned slices of the word, so the O(1)
    test must draw exactly the same pairs."""
    digest = hashlib.sha256()
    for seed in range(5):
        for n in range(4, 61):
            v, w = oracle.random_avoiding_pair(random.Random(seed), n)
            digest.update(repr((seed, n, v.word, w.word)).encode())
    assert digest.hexdigest() == "adfb1cb2cc371c5cad08bae56d602c6cf88fb0f369e889c16bbed93e80b0de22"


def test_random_pair_sampler():
    rng = random.Random(11)
    for n in (0, 1, 2, 5, 6, 7, 18, 40, 80):
        for _ in range(20 if n <= 40 else 4):
            v, w = oracle.random_avoiding_pair(rng, n)
            assert v.n == w.n == n
            assert is_321_avoiding(v) and is_321_avoiding(w)
            assert bruhat_leq(w, v)
            assert coxeter_length(v) <= n * n // 4


def _rajcode_degree_reference(w: Permutation) -> int:
    """rajcode_degree as defined, O(m^2): each L_k is 1 + the longest L_j
    over the later j with w(j) > w(k), filled right to left."""
    longest = [0] * w.n  # longest[k] is L_(k+1)
    for k in range(w.n - 1, -1, -1):
        later = (longest[j] for j in range(k + 1, w.n) if w.word[j] > w.word[k])
        longest[k] = 1 + max(later, default=0)
    return sum(w.n - k - lk for k, lk in enumerate(longest))


def test_rajcode_degree_matches_the_quadratic_definition():
    # every permutation of S_1..S_7, 321-avoiding or not, then random words up to m = 500
    for m in range(1, 8):
        for w in all_permutations(m):
            assert oracle.rajcode_degree(w) == _rajcode_degree_reference(w), w.word
    rng = random.Random(35)
    for m in (20, 50, 100, 200, 500):
        for _ in range(5):
            word = list(range(1, m + 1))
            rng.shuffle(word)
            w = Permutation(tuple(word))
            assert oracle.rajcode_degree(w) == _rajcode_degree_reference(w)
    assert oracle.rajcode_degree(Permutation(tuple(range(500, 0, -1)))) == 500 * 499 // 2
    assert oracle.rajcode_degree(identity(500)) == 0


def test_rajcode_degree_on_the_matrix_schubert_slice():
    # the closed form equals the recurrence on every 321-avoiding w of S_1..S_8; zip
    # is never above it, and its misses below are known defects (ROADMAP item 1),
    # pinned by count per m
    assert oracle.slice_pair(Permutation((2, 1))) == (Permutation((3, 4, 1, 2)), Permutation((2, 1, 3, 4)))
    misses = []
    for m in range(1, 9):
        missed = 0
        for w in all_321_avoiding(m):
            v_m, w_m = oracle.slice_pair(w)
            degree = oracle.rajcode_degree(w)
            assert groth_degree_recursive(v_m, w_m) == degree, w.word
            by_zip = groth_degree(v_m, w_m)
            assert by_zip <= degree, w.word
            missed += by_zip < degree
        misses.append(missed)
    assert misses == [0, 0, 0, 0, 0, 0, 2, 13]
