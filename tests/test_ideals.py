from itertools import combinations, permutations

import pytest

from klreg.errors import ValidationError
from klreg.ideals import (
    Poly,
    ideal_script,
    k_polynomial,
    kl_generators,
    ladder_generators,
)
from klreg.ladder import Ladder, perm_of
from klreg.perm import (
    Permutation,
    bruhat_leq,
    identity,
    rothe_diagram,
)
from klreg.skew import compress
from klreg.zipdiag import groth_degree

from knowndata import LAD_A, LAD_C, LAD_D, V10, W10, all_321_avoiding, all_boards


def test_kl_generators_examples():
    assert kl_generators(V10, identity(10)) == frozenset()
    gens = kl_generators(Permutation((2, 3, 1)), Permutation((2, 1, 3)))
    assert {str(g) for g in gens} == {"z_1_1"}
    with pytest.raises(ValidationError, match=r"\(2, 1, 3\) is not below \(1, 3, 2\) in Bruhat order"):
        kl_generators(Permutation((1, 3, 2)), Permutation((2, 1, 3)))


def test_generators_are_homogeneous_and_multilinear():
    for n in range(2, 6):
        avoid = all_321_avoiding(n)
        for v in avoid:
            for w in avoid:
                if not bruhat_leq(w, v):
                    continue
                for g in kl_generators(v, w):
                    assert len({len(m) for m, _ in g.terms}) == 1  # homogeneous
                    assert all(len(set(m)) == len(m) for m, _ in g.terms)  # multilinear


def test_ladder_generators_examples():
    single = Ladder((1,), (0,), (((1, 0), 1),))
    assert {str(g) for g in ladder_generators(single)} == {"z_1_1"}
    gens = ladder_generators(LAD_A)
    # bounded by the number of choices of rows and columns per mark
    assert 0 < len(gens) <= 40 + 18 + 15
    by_size = {max(len(m) for m, _ in g.terms) for g in gens}
    assert by_size == {2, 3}


def test_reduced_blocks_lie_in_the_rothe_diagram():
    """Once the block of v's matrix over rows [i] and columns [j] is reduced
    by its 1-entries, every entry left is a cell of D(v), so kl_generators
    expands only generic minors."""
    pairs = 0
    for n in range(1, 6):
        perms = [Permutation(p) for p in permutations(range(1, n + 1))]
        for v in perms:
            dv = frozenset(rothe_diagram(v))
            for w in perms:
                if not bruhat_leq(w, v):
                    continue
                pairs += 1
                for i, j in rothe_diagram(w):
                    rows = [r for r in range(1, i + 1) if v.word[r - 1] > j]
                    cols = [c for c in range(1, j + 1) if c not in v.word[:i]]
                    assert all((r, c) in dv for r in rows for c in cols), (v.word, w.word, (i, j))
    assert pairs == 4017


def leibniz_minor(rows, cols) -> Poly:
    """The minor of distinct variables z_rc over rows x cols, by the
    Leibniz formula."""
    terms = {}
    for perm in permutations(range(len(cols))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        terms[tuple(sorted(zip(rows, (cols[k] for k in perm))))] = (-1) ** inversions
    return Poly.from_dict(terms)


def test_ladder_generators_equal_a_cellwise_reference():
    """Every candidate minor whose r^2 cells all lie in the board, on every
    small board: the reference for enumerating only the columns that the
    first and last rows allow."""
    boards = 0
    for board in all_boards(3, 4, 2, 2):
        boards += 1
        ref = set()
        for p, r in board.marked:
            for rows in combinations(range(1, p[0] + 1), r):
                for cols in combinations(range(p[1] + 1, board.width + 1), r):
                    if all((i, j) in board.region for i in rows for j in cols):
                        ref.add(leibniz_minor(rows, cols))
        assert ladder_generators(board) == ref, board
    assert boards == 11264


def test_generator_sets_match_over_compression():
    for lad in (LAD_A, LAD_C, LAD_D):
        v, w = perm_of(lad)
        _, maps = compress(v)
        ladder_side = frozenset(g.rename(maps.backward) for g in ladder_generators(lad))
        assert ladder_side == kl_generators(v, w)


def test_k_polynomial_examples():
    s1 = Permutation((2, 1))
    assert k_polynomial(s1, s1) == (1, -1)
    assert k_polynomial(s1, identity(2)) == (1,)
    coeffs = k_polynomial(V10, W10)
    assert coeffs[0] == 1
    assert len(coeffs) - 1 == 8


def test_k_polynomial_budget():
    from klreg.errors import ResourceError

    with pytest.raises(ResourceError):
        k_polynomial(V10, W10, budget=5)


def test_k_polynomial_sweep():
    for n in range(2, 6):
        avoid = all_321_avoiding(n)
        for v in avoid:
            for w in avoid:
                if not bruhat_leq(w, v):
                    continue
                coeffs = k_polynomial(v, w)
                assert coeffs[0] == 1
                assert len(coeffs) - 1 == groth_degree(v, w)


def test_poly_canonical_form():
    a = Poly.from_dict({((1, 1),): 0})  # zero polynomial collapses
    assert a is None
    b = Poly.from_dict({((1, 1), (2, 2)): -1, ((1, 2), (2, 1)): 1})
    assert b.terms[-1][1] > 0  # leading coefficient normalized positive
    glue = {(1, 1): (1, 1), (1, 2): (1, 1), (2, 1): (2, 2), (2, 2): (2, 2)}
    with pytest.raises(ValidationError, match="^variable renaming collapsed the polynomial$"):
        b.rename(glue)  # both terms become z_1_1*z_2_2 and cancel


def test_ideal_script():
    script = ideal_script(ladder_generators(LAD_C))
    assert script.startswith("R = QQ[")
    assert "I = ideal(" in script and script.rstrip().endswith(");")
