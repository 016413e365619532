import random
from itertools import product

import pytest

from klreg.errors import InternalError, ValidationError
from klreg.perm import (
    Permutation,
    bruhat_leq,
    coxeter_length,
    identity,
    right_mult_s,
    rothe_diagram,
)
from klreg.pipes import _reading_cells, d_ne, reading_word
from klreg.skew import _top
from klreg import oracle

from knowndata import (
    D_NE_10,
    V10,
    W10,
    WORD_W10,
    all_321_avoiding,
    delta,
    demazure_product,
    inverse_word,
    left_mult_s,
)


def test_box_labels():
    labels = dict(_reading_cells(V10))
    assert labels[(1, 1)] == 1 and labels[(1, 3)] == 3
    assert labels[(2, 5)] == 5  # fourth leftmost box in row 2
    assert labels[(9, 7)] == 9


def test_reading_word_examples():
    assert reading_word(W10, rothe_diagram(W10)) == WORD_W10
    assert reading_word(V10, ()) == ()
    row1 = [c for c in rothe_diagram(V10) if c[0] == 1]
    assert reading_word(V10, row1) == (3, 2, 1)
    with pytest.raises(ValidationError, match=r"cells \[\(1, 9\)\] are not in D\(v\)"):
        reading_word(V10, [(1, 9)])


def test_delta_examples():
    assert delta(V10, ()) == identity(10)
    assert delta(V10, rothe_diagram(V10)) == V10
    assert delta(V10, D_NE_10) == W10
    for u in all_321_avoiding(5):
        assert delta(u, rothe_diagram(u)) == u


def test_d_ne_examples():
    assert frozenset(d_ne(V10, W10)) == D_NE_10
    assert d_ne(V10, identity(10)) == ()
    assert frozenset(d_ne(V10, V10)) == frozenset(rothe_diagram(V10))
    with pytest.raises(ValidationError, match=r"\(3, 2, 1\) is not 321-avoiding"):
        d_ne(Permutation((3, 2, 1)), identity(3))
    with pytest.raises(ValidationError, match=r"\(2, 1, 3\) is not below \(1, 3, 2\) in Bruhat order"):
        d_ne(Permutation((1, 3, 2)), Permutation((2, 1, 3)))


def test_d_ne_spells_a_reduced_word_of_w():
    # multiplied out with perm's primitives, not the scan; d_ne is a view that leaves d_top's memo empty
    _top.cache_clear()
    for n in range(1, 7):
        perms = all_321_avoiding(n)
        for v in perms:
            for w in perms:
                if bruhat_leq(w, v):
                    word = reading_word(v, d_ne(v, w))
                    assert len(word) == coxeter_length(w)
                    u = identity(n)
                    for a in word:
                        u = right_mult_s(u, a)
                    assert u == w
    assert _top.cache_info().currsize == 0


def test_d_ne_matches_brute_search_exhaustively():
    pairs = 0
    for n in range(1, 7):
        avoid = all_321_avoiding(n)
        for v in avoid:
            for w in avoid:
                if not bruhat_leq(w, v):
                    continue
                cells = d_ne(v, w)
                assert len(cells) == coxeter_length(w)
                assert delta(v, cells) == w
                assert frozenset(cells) == frozenset(oracle.brute_earliest_subword(v, w))
                assert _d_ne_reference(v, w) == (cells, [])
                pairs += 1
    assert pairs == 3828


def _contains_reduced_word(word, z):
    """Does some subword of `word` multiply (reduced) to z?"""
    n = z.n

    def rec(k, u):
        if u == z:
            return True
        if k == len(word):
            return False
        if rec(k + 1, u):
            return True
        a = word[k]
        if u.word[a - 1] < u.word[a]:
            moved = list(u.word)
            moved[a - 1], moved[a] = moved[a], moved[a - 1]
            return rec(k + 1, Permutation(tuple(moved)))
        return False

    return rec(0, identity(n))


def test_demazure_dominance_is_subword_feasibility():
    # demazure_product(Q) >= z in Bruhat order iff Q contains a reduced
    # word for z; checked for every word over S_4 of length at most 6.
    targets = [Permutation(w) for w in __import__("itertools").permutations((1, 2, 3, 4))]
    for length in range(0, 7):
        for word in product((1, 2, 3), repeat=length):
            dp = demazure_product(word, 4)
            for z in targets:
                assert bruhat_leq(z, dp) == _contains_reduced_word(word, z)


def _d_ne_reference(v, w):
    """d_ne's greedy scan with a full Bruhat test per letter: suffix
    Demazure products as Permutations, and bruhat_leq(s_a * z, suffix).

    Returns the cells and the cells whose letter passed the descent test
    but failed the Bruhat test.  The lifting-property lemma in d_ne's
    docstring says there are none, which is why d_ne has no Bruhat test.
    """
    read = tuple(_reading_cells(v))
    order = [c for c, _ in read]
    letters = [a for _, a in read]
    m = len(letters)
    suffix_delta = [identity(v.n)] * (m + 1)
    for k in range(m - 1, -1, -1):
        s, a = suffix_delta[k + 1], letters[k]
        inv = inverse_word(s)
        suffix_delta[k] = left_mult_s(s, a) if inv[a - 1] < inv[a] else s
    chosen, rejected = [], []
    u = identity(v.n)
    z = w  # remainder: z = u^-1 w throughout
    zlen = coxeter_length(w)
    for k, a in enumerate(letters):
        if zlen == 0:
            break
        if u.word[a - 1] > u.word[a]:
            continue  # u * s_a not longer
        zinv = inverse_word(z)
        if zinv[a - 1] < zinv[a]:
            continue  # s_a * z not shorter: off the geodesic
        znew = left_mult_s(z, a)
        if not bruhat_leq(znew, suffix_delta[k + 1]):
            rejected.append(order[k])
            continue  # suffix cannot complete the remainder
        u = right_mult_s(u, a)
        z = znew
        zlen -= 1
        chosen.append(order[k])
    if zlen != 0:
        raise InternalError("greedy subword search failed to reach w")
    return tuple(chosen), rejected


def test_d_ne_matches_reference_at_large_n():
    rng = random.Random(20)
    for n in (10, 20, 30, 40, 60, 80):
        for _ in range(4):
            v, w = oracle.random_avoiding_pair(rng, n)
            targets = [w]
            if n == 40:
                targets += [v, identity(n)]
            for w in targets:
                cells = d_ne(v, w)
                assert _d_ne_reference(v, w) == (cells, [])
                assert delta(v, cells) == w and len(cells) == coxeter_length(w)
