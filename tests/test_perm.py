import random
from itertools import permutations
from operator import ge

import pytest

from klreg.errors import ValidationError
from klreg.perm import (
    Permutation,
    bruhat_leq,
    coxeter_length,
    demazure_step,
    from_lehmer_code,
    identity,
    is_321_avoiding,
    lehmer_code,
    rank,
    right_mult_s,
    rothe_diagram,
)

from knowndata import (
    LAD_A,
    V10,
    V11,
    V_LAD_A,
    W10,
    all_permutations,
    demazure_product,
    inverse_word,
    is_grassmannian,
)


def brute_avoids_321(word):
    n = len(word)
    return not any(
        word[i] > word[j] > word[k]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(j + 1, n)
    )


def test_permutation_validation():
    with pytest.raises(ValidationError):
        Permutation((1, 3))
    with pytest.raises(ValidationError):
        Permutation((1, 1, 2))
    # entries must be ints: floats, bools and strings are refused up front
    for word in ((2.0, 1.0), (True, 2), (1, "2"), (False,)):
        with pytest.raises(ValidationError):
            Permutation(word)


def test_rank_examples():
    assert rank(identity(4), 2, 3) == 2
    assert rank(Permutation((2, 1)), 1, 1) == 0
    assert rank(V_LAD_A, 4, 3) == 0
    # identity rank is min(i, j) everywhere
    for n in range(1, 6):
        e = identity(n)
        assert all(rank(e, i, j) == min(i, j) for i in range(1, n + 1) for j in range(1, n + 1))
    with pytest.raises(ValidationError, match=r"cell \(0, 1\) out of range for S_3"):
        rank(identity(3), 0, 1)
    with pytest.raises(ValidationError, match=r"cell \(1, 4\) out of range for S_3"):
        rank(identity(3), 1, 4)


def test_rothe_examples():
    assert rothe_diagram(identity(5)) == ()
    assert rothe_diagram(Permutation((2, 1))) == ((1, 1),)
    cells = rothe_diagram(V10)
    assert len(cells) == 14 == coxeter_length(V10)
    # definition check against the raw condition
    inv = inverse_word(V10)
    expected = {
        (i, j)
        for i in range(1, 11)
        for j in range(1, 11)
        if V10.word[i - 1] > j and inv[j - 1] > i
    }
    assert set(cells) == expected


def test_rothe_size_is_inversion_count():
    for n in range(1, 7):
        for word in permutations(range(1, n + 1)):
            u = Permutation(word)
            inversions = sum(
                1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j]
            )
            assert len(rothe_diagram(u)) == inversions == coxeter_length(u)


def test_lehmer_code_round_trip():
    for n in range(1, 8):
        for word in permutations(range(1, n + 1)):
            u = Permutation(word)
            assert from_lehmer_code(lehmer_code(u)) == u
    # code counts boxes per diagram row
    code = lehmer_code(V10)
    for i in range(1, 11):
        assert code[i - 1] == sum(1 for (r, _) in rothe_diagram(V10) if r == i)


def test_lehmer_code_ladder_value():
    assert from_lehmer_code((3, 4, 5, 5, 0, 0, 0, 2, 2, 0, 0)) == V_LAD_A
    assert lehmer_code(V_LAD_A) == (3, 4, 5, 5, 0, 0, 0, 2, 2, 0, 0)
    assert lehmer_code(identity(6)) == (0,) * 6
    with pytest.raises(ValidationError):
        from_lehmer_code((2, 0))  # c_1 may be at most n - 1 = 1


def test_pattern_checks():
    assert not is_321_avoiding(Permutation((1, 7, 2, 5, 8, 3, 4, 6)))
    assert is_321_avoiding(identity(5)) and is_grassmannian(identity(5))
    assert is_321_avoiding(V11) and brute_avoids_321(V11.word)
    assert not is_grassmannian(V10)
    assert is_grassmannian(Permutation((1, 3, 4, 2)))
    for n in range(1, 8):
        for word in permutations(range(1, n + 1)):
            u = Permutation(word)
            assert is_321_avoiding(u) == brute_avoids_321(word)
            if is_grassmannian(u):
                assert is_321_avoiding(u)


def _reduced_words(u):
    if coxeter_length(u) == 0:
        yield ()
        return
    for i in range(1, u.n):
        if u.word[i - 1] > u.word[i]:
            for rest in _reduced_words(right_mult_s(u, i)):
                yield rest + (i,)


def test_demazure_examples():
    assert demazure_product((1, 1), 2) == Permutation((2, 1))
    assert demazure_product((3, 2, 1, 5, 7, 6, 8), 10) == W10
    assert demazure_product((), 3) == identity(3)
    with pytest.raises(ValidationError, match="generator index 3 out of range for S_3"):
        demazure_step(identity(3), 3)


def test_demazure_of_reduced_words():
    for word in permutations(range(1, 5)):
        u = Permutation(word)
        for red in _reduced_words(u):
            assert demazure_product(red, 4) == u
            # duplicating any letter in place leaves the product fixed
            for k in range(len(red)):
                doubled = red[: k + 1] + (red[k],) + red[k + 1 :]
                assert demazure_product(doubled, 4) == u


def test_bruhat_examples():
    for word in permutations(range(1, 5)):
        assert bruhat_leq(identity(4), Permutation(word))
    assert bruhat_leq(W10, V10)
    assert not bruhat_leq(Permutation((2, 1)), identity(2))
    with pytest.raises(ValidationError):
        bruhat_leq(identity(2), identity(3))


def test_bruhat_matches_cover_graph():
    for n in range(2, 6):
        perms = all_permutations(n)
        index = {u: k for k, u in enumerate(perms)}
        above = [set() for _ in perms]
        for u in perms:
            lu = coxeter_length(u)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    word = list(u.word)
                    word[i - 1], word[j - 1] = word[j - 1], word[i - 1]
                    t = Permutation(tuple(word))
                    if coxeter_length(t) == lu + 1:
                        above[index[u]].add(index[t])
        # transitive closure of covers
        reach = [set([k]) for k in range(len(perms))]
        for k in sorted(range(len(perms)), key=lambda k: -coxeter_length(perms[k])):
            for t in above[k]:
                reach[k] |= reach[t]
        for a, u in enumerate(perms):
            for b, w in enumerate(perms):
                assert bruhat_leq(u, w) == (b in reach[a])


def rank_matrix(u):
    """Full table R with R[i][j] = rank(u, i, j); row/col 0 are zero padding."""
    n = u.n
    r = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        ui = u.word[i - 1]
        for j in range(1, n + 1):
            r[i][j] = r[i - 1][j] + r[i][j - 1] - r[i - 1][j - 1] + (1 if ui == j else 0)
    return r


def _rank_dominance(u, w):
    """u <= w by comparing the two full rank tables cell by cell."""
    ru, rw = rank_matrix(u), rank_matrix(w)
    return all(a >= b for row_u, row_w in zip(ru, rw) for a, b in zip(row_u, row_w))


def test_bruhat_matches_rank_dominance():
    for n in range(1, 7):
        perms = all_permutations(n)
        flat = {u: [x for row in rank_matrix(u) for x in row] for u in perms}
        for u in perms:
            for w in perms:
                assert bruhat_leq(u, w) == all(map(ge, flat[u], flat[w]))
    # n = 40: w is u raised by transpositions that add inversions, so u <= w;
    # half the time one transposition then removes inversions, which leaves
    # pairs on both sides of the edge of comparability.
    rng = random.Random(40)
    for k in range(100):
        u = Permutation(tuple(rng.sample(range(1, 41), 40)))
        word = list(u.word)
        for _ in range(rng.randint(1, 30)):
            i, j = sorted(rng.sample(range(40), 2))
            if word[i] < word[j]:
                word[i], word[j] = word[j], word[i]
        while k % 2:
            i, j = sorted(rng.sample(range(40), 2))
            if word[i] > word[j]:
                word[i], word[j] = word[j], word[i]
                break
        w = Permutation(tuple(word))
        assert bruhat_leq(u, w) == _rank_dominance(u, w)
        assert bruhat_leq(w, u) == _rank_dominance(w, u)
    w0 = Permutation(tuple(range(40, 0, -1)))
    assert bruhat_leq(identity(40), w0) and _rank_dominance(identity(40), w0)
    assert not bruhat_leq(w0, identity(40))


def test_ladder_pair_is_comparable():
    from klreg.ladder import perm_of

    v, w = perm_of(LAD_A)
    assert bruhat_leq(w, v)
