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
)
from klreg.skew import compress
from klreg.zipdiag import groth_degree

from knowndata import LAD_A, LAD_C, LAD_D, V10, W10, all_321_avoiding


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


def test_ideal_script():
    script = ideal_script(ladder_generators(LAD_C))
    assert script.startswith("R = QQ[")
    assert "I = ideal(" in script and script.rstrip().endswith(");")
