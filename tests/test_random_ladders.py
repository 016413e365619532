"""Seeded randomized cross-checks of the whole board pipeline.

Random minimal boards are pushed through every correspondence at once:
the pair construction against the brute-force minimal solution, bottom
family against top diagram, zipped family against the slid diagram and
its saturation, the two regularity routes, diagonal coincidence, the
generator-set match, the degree against the move-closure oracle, and full
path enumeration against the excited closure.
"""

import random
import re

import pytest

from klreg import oracle, zipdiag
from klreg.errors import KlregError, ValidationError
from klreg.ideals import kl_generators, ladder_generators
from klreg.ladder import (
    Ladder,
    blanks,
    elbows,
    ladder_from_json,
    p_bot,
    p_zip,
    perm_of,
    rank_constraints,
    validate_minimal,
    weight,
)
from klreg.perm import bruhat_leq, coxeter_length, is_321_avoiding
from klreg.skew import compress, d_top

from knowndata import excited_states, random_board_dict


# perm_of's messages when the marks admit no exact permutation: the row
# sweep's verification fails, or d_top's scan rejects the pair
_NO_EXACT_SOLUTION = re.compile(
    r"envelope permutation violates rank"
    r"|\(.*\) is not (321-avoiding|below .* in Bruhat order)"
)


def random_board(rng):
    board = random_board_dict(rng)
    if board is None:
        return None
    try:
        return ladder_from_json(board)
    except KlregError:
        return None


def test_random_minimal_boards_all_correspondences():
    rng = random.Random(20230827)
    checked = rejected = 0
    while checked < 80:
        board = random_board(rng)
        if board is None or not validate_minimal(board).passed:
            continue
        try:
            v, w = perm_of(board)
        except ValidationError as exc:
            assert _NO_EXACT_SOLUTION.match(str(exc)), exc
            rejected += 1  # redundant mark systems have no exact solution
            continue
        checked += 1
        assert is_321_avoiding(v) and is_321_avoiding(w) and bruhat_leq(w, v)
        region, maps = compress(v)
        assert region == board.region
        assert w == oracle.brute_minimal_w(v.n, rank_constraints(board, v))
        top = d_top(v, w)
        assert frozenset(blanks(board, p_bot(board))) == top.pluses
        assert weight(board) == coxeter_length(v) - coxeter_length(w)
        zipped = p_zip(board)
        dz, dzk = zipdiag.d_zip(v, w), zipdiag.d_zip_k(v, w)
        assert frozenset(blanks(board, zipped)) == dz.pluses
        assert frozenset(elbows(board, zipped)) == dzk.pluses - dz.pluses
        assert len(elbows(board, zipped)) == zipdiag.regularity(v, w)
        comps = zipdiag.components(top)
        assert zipdiag.minimizing_diag(top) == tuple(zipdiag.max_diag(c) for c in comps)
        ladder_side = frozenset(g.rename(maps.backward) for g in ladder_generators(board))
        assert ladder_side == kl_generators(v, w)
        assert zipdiag.groth_degree(v, w) == oracle.max_closure_size(v, w)
        families = oracle.enumerate_nilp(board, budget=20000)
        excited = excited_states(v, w)
        assert len(families) == len(excited)
        assert {frozenset(blanks(board, f)) for f in families} == excited


def test_infeasible_mark_system_is_rejected():
    # the lower mark makes the upper one redundant as an inequality but
    # contradictory as an equality: no permutation satisfies the system
    board = Ladder((2, 2, 2, 2), (0, 0, 0, 0), (((3, 0), 2), ((4, 0), 1)))
    assert validate_minimal(board).passed
    with pytest.raises(ValidationError, match=r"envelope permutation violates rank\(3,2\) = 1"):
        perm_of(board)


def test_empty_column_board_is_rejected():
    with pytest.raises(ValidationError):
        Ladder((3, 1, 1), (2, 0, 0), (((1, 0), 1),))
    with pytest.raises(ValidationError):
        Ladder((3, 3), (1, 1), (((2, 0), 1),))
