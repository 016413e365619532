import dataclasses
import hashlib
import json
import random
from collections import Counter
from itertools import combinations_with_replacement, islice, product

import pytest

from klreg import ladder as ladder_module
from klreg import cli, oracle, zipdiag
from klreg.errors import InternalError, ValidationError
from klreg.ideals import ladder_generators
from klreg.ladder import (
    Ladder,
    MinimalityReport,
    PathFamily,
    a_invariant_ladder,
    blanks,
    boundary_points,
    elbows,
    ladder_from_json,
    ladder_to_json,
    ne_corners,
    nilp_is_valid,
    p_bot,
    p_zip,
    partition_cells,
    perm_of,
    rank_constraints,
    regularity_ladder,
    render_paths,
    sw_corners,
    validate_minimal,
    weight,
)
from klreg.perm import (
    Permutation,
    bruhat_leq,
    coxeter_length,
    is_321_avoiding,
    lehmer_code,
)
from klreg.skew import PlusDiagram, compress, d_top

from knowndata import (
    CORNER_FILLS_B,
    D_TOP_LAD_A,
    H_LAD_B,
    LAD_A,
    LAD_B,
    LAD_C,
    LAD_D,
    LAD_EMPTYW,
    LAD_FULL,
    LADDER_ROUTE_REJECTS,
    ROUTES_BAD_B,
    ROUTES_BOT_B,
    ROUTES_MID_B,
    SMALL_BOARDS_ZIPPED_SHA256,
    V_LAD_A,
    V_LAD_B,
    W_LAD_A,
    _sw_border_points,
    all_boards,
    excited_states,
    rank_envelope_perm,
)

ALL_LADDERS = [LAD_A, LAD_B, LAD_C, LAD_D, LAD_FULL, LAD_EMPTYW]


def test_ladder_validation():
    with pytest.raises(ValidationError):
        Ladder((3, 4), (0, 0), ())  # not weakly decreasing
    with pytest.raises(ValidationError):
        Ladder((3, 3), (3, 0), ())  # empty first row
    with pytest.raises(ValidationError):
        Ladder((3, 3, 2), (1, 0, 0), (((3, 0), 2),))  # point off the border


def _small_boards():
    """Every unmarked board that `Ladder` accepts with at most 4 rows and parts at most 5."""
    for rows in range(1, 5):
        for lam in combinations_with_replacement(range(5, 0, -1), rows):
            for mu in product(*(range(l) for l in lam)):
                try:
                    yield Ladder(lam, mu, ())
                except ValidationError:
                    pass


def test_geometry_and_marks_match_the_partitions_on_small_shapes():
    shapes = 0
    for board in _small_boards():
        shapes += 1
        lam, mu = board.lam, board.mu
        rows, w = len(lam), lam[0]
        assert (board.n_rows, board.width) == (rows, w)
        ws = [w - l for l in lam]  # west walls
        ee = [w - m for m in mu]  # east walls
        sw = [(r, ws[r - 1]) for r in range(1, rows) if ws[r] > ws[r - 1]] + [(rows, ws[-1])]
        ne = [(0, ee[0])] + [(r, ee[r]) for r in range(1, rows) if ee[r] > ee[r - 1]]
        assert sw_corners(board) == tuple(sw)
        assert ne_corners(board) == tuple(ne)
        outer = {(i, j) for i, l in enumerate(lam, 1) for j in range(w - l + 1, w + 1)}
        cutout = {(i, j) for i, m in enumerate(mu, 1) for j in range(w - m + 1, w + 1)}
        assert partition_cells(board) == outer
        assert board.region.cells() == tuple(sorted(outer - cutout))
        border = _sw_border_points(lam, mu)
        for p in product(range(-1, rows + 2), range(-1, w + 2)):
            try:
                Ladder(lam, mu, ((p, 1),))
            except ValidationError as exc:
                if p == (0, 0):
                    assert str(exc) == "marked point (0, 0) is on row 0, where its block has no rows"
                else:
                    assert p not in border, p
                    assert str(exc) == f"marked point {p} is not on the southwest border"
            else:
                assert p in border and p[0] != 0, p
    assert shapes == 1414


def test_corners():
    assert sw_corners(LAD_A) == ((4, 0), (6, 3))
    assert ne_corners(LAD_A) == ((0, 3), (1, 4), (2, 5))
    assert (LAD_A.n_rows, LAD_A.width) == (6, 5)
    assert sw_corners(LAD_B) == ((4, 0), (5, 2), (8, 6), (10, 8))
    assert ne_corners(LAD_B) == ((0, 8), (2, 10))


def test_cell_counts_and_region():
    assert LAD_A.region.size() == 21
    assert LAD_B.region.size() == 60
    assert LAD_A.region.rows == ((1, 3), (1, 4), (1, 5), (1, 5), (4, 5), (4, 5))


def test_json_round_trip():
    data = ladder_to_json(LAD_B)
    assert ladder_from_json(data) == LAD_B
    with pytest.raises(ValidationError):
        ladder_from_json({"lambda": [2, 2]})


def test_validate_minimal():
    assert validate_minimal(LAD_A).passed
    assert validate_minimal(LAD_C).passed
    assert validate_minimal(LAD_D).passed
    single = Ladder((1,), (0,), (((1, 0), 1),))
    assert validate_minimal(single).passed
    # equal offsets between consecutive marks violate both chains
    dup = Ladder((3, 3, 3), (0, 0, 0), (((2, 0), 2), ((3, 1), 3)))
    rep = validate_minimal(dup)
    assert not rep.passed and rep.row_offset_violations and rep.col_offset_violations


def _max_matching(rows, cols, present) -> int:
    match_col: dict = {}

    def augment(r, seen):
        for c in cols:
            if (r, c) in present and c not in seen:
                seen.add(c)
                if c not in match_col or augment(match_col[c], seen):
                    match_col[c] = r
                    return True
        return False

    return sum(1 for r in rows if augment(r, set()))


def _validate_minimal_reference(ladder):
    """validate_minimal with a full augmenting-path matching on every cell's
    block less the cell's row and column."""
    region = ladder.region
    cells = set(region.cells())
    end_col = ladder.width
    covered = set()
    for (p, r) in ladder.marked:
        rows = [i for i in range(1, p[0] + 1)]
        cols = [j for j in range(p[1] + 1, end_col + 1)]
        block = {(i, j) for i in rows for j in cols} & cells
        for cell in sorted(block - covered):
            rest = {c for c in block if c[0] != cell[0] and c[1] != cell[1]}
            sub_rows = sorted({i for i, _ in rest})
            sub_cols = sorted({j for _, j in rest})
            if _max_matching(sub_rows, sub_cols, rest) >= r - 1:
                covered.add(cell)
    uncovered = tuple(sorted(cells - covered))

    row_bad = []
    col_bad = []
    for m1, m2 in zip(ladder.marked, ladder.marked[1:]):
        (p1, r1), (p2, r2) = m1, m2
        if p1[0] - r1 >= p2[0] - r2:
            row_bad.append((m1, m2))
        if p1[1] - r1 >= p2[1] - r2:
            col_bad.append((m1, m2))
    passed = not uncovered and not row_bad and not col_bad
    return MinimalityReport(passed, uncovered, tuple(row_bad), tuple(col_bad))


def _random_marked_board(rng):
    """A board of up to 7 rows and 8 columns with 1-4 marks whose r may
    exceed what the block can hold, so many boards are not minimal."""
    lam = [rng.randint(1, 8)]
    for _ in range(rng.randint(0, 6)):
        lam.append(rng.randint(1, lam[-1]))
    mu = [0] * len(lam)
    for i in range(len(lam) - 2, -1, -1):
        mu[i] = rng.randint(mu[i + 1], min(lam[i + 1], lam[i] - 1))
    cands = sorted(p for p in _sw_border_points(lam, mu) if p[0] >= 1)
    marks = [(p, rng.randint(1, min(p[0], 5))) for p in rng.sample(cands, min(len(cands), rng.randint(1, 4)))]
    return Ladder(tuple(lam), tuple(mu), tuple(marks))


def _square_board(a, r):
    return Ladder((a,) * a, (0,) * a, (((a, 0), r),))


def test_validate_minimal_matches_reference_on_random_boards():
    rng = random.Random(20261018)
    partly = fully = failed = split_rows = 0
    for _ in range(3000):
        board = _random_marked_board(rng)
        rep = validate_minimal(board)
        assert rep == _validate_minimal_reference(board)
        failed += not rep.passed
        region = board.region
        for p, r in board.marked:
            single = Ladder(board.lam, board.mu, ((p, r),))
            single_rep = validate_minimal(single)
            assert single_rep == _validate_minimal_reference(single)
            block = {c for c in region.cells() if c[0] <= p[0] and c[1] > p[1]}
            left = block & set(single_rep.uncovered)
            partly += 0 < len(left) < len(block)
            fully += bool(block) and not left
            for i in range(1, p[0] + 1):  # only a column with g_t = h_t splits a row
                row = [c for c in block if c[0] == i]
                split_rows += 0 < len(left.intersection(row)) < len(row)
    assert partly and fully and failed
    assert split_rows >= 152, split_rows  # the count at this seed


def test_validate_minimal_matches_reference_on_square_boards():
    # every r up to a = 16: at r = a the block less any row holds only r - 1
    # cells in distinct rows and columns, so every row is decided by the
    # columns where the greedy's least and greatest columns meet
    for a in range(1, 25):
        for r in range(1, (a if a <= 16 else a // 4) + 1):
            board = _square_board(a, r)
            assert validate_minimal(board) == _validate_minimal_reference(board)


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 4(a): validate_minimal's matching covers cells no ladder generator has"
)
def test_cells_validate_minimal_covers_lie_in_generators():
    # validate_minimal passes this board with no uncovered cell, but its one
    # generator, the 2-minor on rows 1, 2 and columns 1, 2, misses cell (2, 3)
    board = Ladder((3, 3), (1, 0), (((2, 0), 2),))
    report = validate_minimal(board)
    assert report.passed
    covered = set(board.region.cells()) - set(report.uncovered)
    in_generators = {c for g in ladder_generators(board) for m, _ in g.terms for c in m}
    assert covered <= in_generators


def test_square_board_at_a40():
    assert validate_minimal(_square_board(40, 10)).passed


def test_one_mark_square_boards_match_the_closed_form(tmp_path, capsys):
    # the r-minors of a generic a x a matrix: regularity (r-1)(a-r+1) and
    # a-invariant -(r-1)a (Bruns and Herzog, Manuscripta Math. 1992)
    path = tmp_path / "board.json"
    sizes = [(a, range(1, a + 1)) for a in range(1, 25)]
    sizes += [(40, (1, 10, 20, 39, 40)), (60, (2, 15, 59, 60)), (100, (25, 50))]
    for a, rs in sizes:
        for r in rs:
            board = _square_board(a, r)
            reg, a_inv = (r - 1) * (a - r + 1), -(r - 1) * a
            assert (regularity_ladder(board), a_invariant_ladder(board)) == (reg, a_inv), (a, r)
            path.write_text(json.dumps(ladder_to_json(board)))
            assert cli.main(["ladder", "--file", str(path), "--oracle"]) == 0, (a, r)
            data = json.loads(capsys.readouterr().out)
            assert (data["regularity"], data["a_invariant"], data["oracle"]["verdict"]) == (reg, a_inv, "AGREE")


def test_big_ladder_known_offset_violations():
    # the large background board violates the literal offset inequalities
    # even though the whole pipeline processes it consistently
    rep = validate_minimal(LAD_B)
    assert not rep.passed
    assert rep.uncovered == ()
    assert rep.row_offset_violations == (((((4, 0), 3), ((5, 2), 4))),)
    assert rep.col_offset_violations == (((((5, 6), 3), ((8, 6), 4))),)


def test_perm_of_small_ladder():
    v, w = perm_of(LAD_A)
    assert v == V_LAD_A
    assert lehmer_code(v) == (3, 4, 5, 5, 0, 0, 0, 2, 2, 0, 0)
    assert w == W_LAD_A
    for (a, b), c in rank_constraints(LAD_A, v):
        assert sum(1 for k in range(a) if w.word[k] <= b) == c
    assert is_321_avoiding(v) and is_321_avoiding(w) and bruhat_leq(w, v)


def test_perm_of_single_cell():
    single = Ladder((1,), (0,), (((1, 0), 1),))
    v, w = perm_of(single)
    assert v == w == Permutation((2, 1))


def test_perm_of_matches_brute_minimal():
    for lad in (LAD_C, LAD_D, LAD_FULL, LAD_EMPTYW):
        v, w = perm_of(lad)
        assert w == oracle.brute_minimal_w(v.n, rank_constraints(lad, v))


def test_perm_of_matches_the_rank_envelope_on_small_boards(monkeypatch):
    # the row sweep against the min-plus envelope it replaced, on boards
    # perm_of accepts and on boards whose caps it then finds unmet
    sweeps = []

    def spy(n, constraints, sweep=ladder_module._least_perm):
        out = sweep(n, constraints)
        sweeps.append((n, constraints, out[0]))
        return out

    monkeypatch.setattr(ladder_module, "_least_perm", spy)
    built = rejected = 0
    for board in all_boards(3, 3, 2, 3):  # 6,600 boards
        try:
            w = perm_of(board)[1]
        except ValidationError as exc:
            assert str(exc).startswith("envelope permutation violates rank"), exc
            rejected += 1
        else:
            assert w == sweeps[-1][2]
            built += 1
        n, constraints, w_sweep = sweeps.pop()
        assert w_sweep == rank_envelope_perm(n, constraints)
    assert (built, rejected) == (6148, 452)


def test_perm_of_invariants_all_ladders():
    for lad in ALL_LADDERS:
        v, w = perm_of(lad)
        assert is_321_avoiding(v) and is_321_avoiding(w)
        assert bruhat_leq(w, v)
        assert coxeter_length(v) == lad.region.size()
        assert weight(lad) == coxeter_length(v) - coxeter_length(w)


def test_boundary_points_big_ladder():
    bp = boundary_points(LAD_B)
    assert bp.h == H_LAD_B
    assert bp.v == V_LAD_B
    extra = set(bp.extended_marks) - set(LAD_B.marked)
    assert set(CORNER_FILLS_B) <= extra
    assert ((0, 0), 1) in extra and ((10, 10), 1) in extra


def test_boundary_points_small_ladder():
    bp = boundary_points(LAD_A)
    assert bp.h == ((6.0, 4.5), (4.0, 1.5))
    assert bp.v == ((0.5, 0.0), (1.5, 0.0))
    assert ((4, 3), 2) in bp.extended_marks
    for h, vpt in bp.pairs():
        assert vpt[0] < h[0] and vpt[1] < h[1]


def test_boundary_points_no_jumps():
    bp = boundary_points(LAD_FULL)
    assert bp.h == () and bp.v == ()


def test_p_bot_matches_traced_routes():
    bp = boundary_points(LAD_B)
    expected = PathFamily(ROUTES_BOT_B, bp.pairs())
    assert p_bot(LAD_B) == expected
    assert nilp_is_valid(LAD_B, expected)


def test_p_bot_blanks_equal_top_diagram():
    for lad in ALL_LADDERS:
        v, w = perm_of(lad)
        region, _ = compress(v)
        assert region == lad.region
        assert frozenset(blanks(lad, p_bot(lad))) == d_top(v, w).pluses
    assert frozenset(blanks(LAD_A, p_bot(LAD_A))) == D_TOP_LAD_A


def test_nilp_validity_of_known_families():
    bp = boundary_points(LAD_B)
    assert nilp_is_valid(LAD_B, PathFamily(ROUTES_MID_B, bp.pairs()))
    bad = PathFamily(ROUTES_BAD_B, bp.pairs())
    assert not nilp_is_valid(LAD_B, bad)
    # the offending path runs through (2, 9) in the cutout, above the blank (3, 8)
    route = next(r for r in bad.routes if (2, 9) in r)
    k = route.index((2, 9))
    assert route[k - 1 : k + 2] == ((2, 10), (2, 9), (2, 8))
    assert all((3, 8) not in r for r in bad.routes)
    # the hand-traced bottom family of LAD_A, then three faults: a route
    # that skips a box (it keeps its ends), routes that overlap only at
    # (3, 2), and a route whose one fault is the step (4, 2) -> (3, 1)
    bp = boundary_points(LAD_A)
    outer = ((6, 5), (6, 4), (5, 4), (4, 4), (4, 3), (3, 3), (3, 2), (2, 2), (1, 2), (1, 1))
    inner = ((4, 2), (4, 1), (3, 1), (2, 1))
    assert PathFamily((outer, inner), bp.pairs()) == p_bot(LAD_A)
    assert nilp_is_valid(LAD_A, p_bot(LAD_A))
    for routes in (
        (outer[:3] + outer[4:], inner),
        (outer, ((4, 2), (3, 2), (3, 1), (2, 1))),
        (outer, ((4, 2), (3, 1), (2, 1))),
    ):
        assert not nilp_is_valid(LAD_A, PathFamily(routes, bp.pairs()))


def test_ladder_route_rejects_are_minimal_boards_with_a_pair():
    for board in LADDER_ROUTE_REJECTS:
        assert validate_minimal(board).passed
        perm_of(board)


@pytest.mark.xfail(
    strict=True, raises=ValidationError, reason="ROADMAP item 4: the ladder route rejects these minimal boards"
)
def test_ladder_route_regularity_on_rejected_minimal_boards():
    for board in LADDER_ROUTE_REJECTS:
        v, w = perm_of(board)
        assert regularity_ladder(board) == zipdiag.groth_degree_recursive(v, w) - coxeter_length(w)


def test_all_blank_family_is_valid():
    fam = p_bot(LAD_FULL)
    assert fam.routes == ()
    assert nilp_is_valid(LAD_FULL, fam)
    assert elbows(LAD_FULL, fam) == ()
    assert len(blanks(LAD_FULL, fam)) == LAD_FULL.region.size()


def test_fully_covered_family():
    v, w = perm_of(LAD_EMPTYW)
    assert coxeter_length(w) == 0
    fam = p_bot(LAD_EMPTYW)
    assert blanks(LAD_EMPTYW, fam) == ()
    assert regularity_ladder(LAD_EMPTYW) == 0
    assert a_invariant_ladder(LAD_EMPTYW) == -LAD_EMPTYW.region.size()


def test_weight_and_elbows_big_ladder():
    assert weight(LAD_B) == 40
    assert len(blanks(LAD_B, p_bot(LAD_B))) == 20
    zipped = p_zip(LAD_B)
    assert len(elbows(LAD_B, zipped)) == 7


def _elbows_reference(ladder, family):
    """Unforced elbows found by probing each east-to-north box's northeast
    ray one cell at a time, until a blank or the edge of the grid."""
    blank_set = set(blanks(ladder, family))
    out = []
    for (i, j), entry, exit_ in ladder_module._passages(family):
        if (entry, exit_) == ("E", "N"):
            k = 1
            while i - k >= 1 and j + k <= ladder.width:
                if (i - k, j + k) in blank_set:
                    out.append((i, j))
                    break
                k += 1
    return tuple(sorted(out))


def _nilp_is_valid_reference(ladder, family):
    """The family check with the cutout test made by probing each cutout
    box's southwest ray one cell at a time, until it leaves the shape."""
    lam_cells = partition_cells(ladder)
    if len(family.routes) != len(family.endpoints):
        return False
    occupied = set()
    for route, (h, vpt) in zip(family.routes, family.endpoints):
        goal = ladder_module._goal_box(vpt)
        if not route or route[0] != ladder_module._start_box(h) or route[-1] != goal:
            return False
        if (goal[0], goal[1] - 1) in lam_cells or not lam_cells.issuperset(route) or not occupied.isdisjoint(route):
            return False
        if any(b not in ((a[0], a[1] - 1), (a[0] - 1, a[1])) for a, b in zip(route, route[1:])):
            return False
        occupied.update(route)
    for (i, j), entry, exit_ in ladder_module._passages(family):
        if (i, j) not in lam_cells or (i, j) in ladder.region:
            continue
        if (entry, exit_) == ("E", "N"):
            return False
        k = 1
        while (i + k, j - k) in lam_cells:
            if (i + k, j - k) not in occupied:
                return False
            k += 1
    return True


def _monotone_routes(start, goal, cells):
    """Every west/north route of boxes in `cells` from start to goal."""
    if start == goal:
        return [(start,)] if start in cells else []
    if start not in cells or start[0] < goal[0] or start[1] < goal[1]:
        return []
    west, north = (start[0], start[1] - 1), (start[0] - 1, start[1])
    return [(start,) + rest for nxt in (west, north) for rest in _monotone_routes(nxt, goal, cells)]


def test_anti_diagonal_reads_match_the_ray_probes():
    # every product of monotone routes in the shape between a board's
    # boundary points, up to 400 per board: valid and invalid families,
    # through the cutout or not, with and without unforced elbows
    boards = families = invalid = through_cutout = with_elbows = 0
    for board in all_boards(3, 4, 2, 2):
        try:
            pairs = boundary_points(board).pairs()
        except ValidationError:
            continue
        boards += 1
        shape = partition_cells(board)
        starts_goals = [(ladder_module._start_box(h), ladder_module._goal_box(v)) for h, v in pairs]
        options = [_monotone_routes(start, goal, shape) for start, goal in starts_goals]
        for routes in islice(product(*options), 400):
            family = PathFamily(routes, pairs)
            families += 1
            found = elbows(board, family)
            assert found == _elbows_reference(board, family)
            valid = nilp_is_valid(board, family)
            assert valid == _nilp_is_valid_reference(board, family)
            invalid += not valid
            through_cutout += any(box not in board.region for route in routes for box in route)
            with_elbows += bool(found)
    assert (boards, families) == (5589, 8566)
    assert (invalid, through_cutout, with_elbows) == (1648, 1743, 1573)


def test_cutout_elbow_is_refused_where_every_ray_is_covered():
    # rows 2 and 3 share no column, so the east-to-north cutout box (2, 3)
    # has only (3, 2) on its southwest ray; the inner path covers it, and
    # every other cutout box's ray too: the elbow clause alone refuses it
    board = Ladder((4, 3, 3), (3, 2, 0), (((1, 0), 2), ((3, 1), 3)))
    outer = ((3, 4), (2, 4), (2, 3), (1, 3), (1, 2), (1, 1))
    inner = ((3, 3), (3, 2), (2, 2))
    family = PathFamily((outer, inner), boundary_points(board).pairs())
    shape = partition_cells(board)
    cutout = [(box, entry, exit_) for box, entry, exit_ in ladder_module._passages(family) if box not in board.region]
    assert [(box, entry, exit_) for box, entry, exit_ in cutout if (entry, exit_) == ("E", "N")] == [((2, 3), "E", "N")]
    for (i, j), _, _ in cutout:
        ray = [(i + k, j - k) for k in range(1, board.n_rows) if (i + k, j - k) in shape]
        assert set(ray) <= set(outer + inner)
    assert not nilp_is_valid(board, family)
    assert not _nilp_is_valid_reference(board, family)


def test_unbalanced_boundary_points_are_counted_before_they_are_built():
    # a billion vertical points against none: refused at once, not after
    # building them
    board = Ladder((2, 2), (0, 0), (((1, 0), 10**9),))
    with pytest.raises(ValidationError, match=r"^unbalanced boundary points: 999999999 vertical, 0 horizontal$"):
        boundary_points(board)


def test_more_boundary_points_than_cells_are_refused_before_they_are_built():
    # balanced, with a billion points a side on a 4-cell shape: refused at
    # once, since each path needs a cell of its own
    board = Ladder((2, 2), (0, 0), (((2, 0), 10**9),))
    message = r"^999999999 boundary points on each side, more than the shape's cell count 4$"
    with pytest.raises(ValidationError, match=message):
        boundary_points(board)


def _hugging_family_reference(pairs, cells):
    """The southwest-hugging walk with each path's reach found by one
    sorted pass over every free cell southeast of its goal, the goal
    counted as reached even when it is not free."""
    used = set()
    routes = [()] * len(pairs)
    for i in range(len(pairs), 0, -1):
        start = ladder_module._start_box(pairs[i - 1][0])
        goal = ladder_module._goal_box(pairs[i - 1][1])
        free = cells - used
        reach = {goal}
        for c in sorted(c for c in free if c[0] >= goal[0] and c[1] >= goal[1]):
            if (c[0], c[1] - 1) in reach or (c[0] - 1, c[1]) in reach:
                reach.add(c)
        if start not in free or start not in reach:
            raise ValidationError(f"no path from H_{i} to V_{i}; ladder is not minimal?")
        route = [start]
        cur = start
        while cur != goal:
            for cand in ((cur[0], cur[1] - 1), (cur[0] - 1, cur[1])):
                if cand in free and cand in reach:
                    route.append(cand)
                    cur = cand
                    break
            else:
                raise ValidationError("southwest-hugging walk wedged; ladder is not minimal?")
        used |= set(route)
        routes[i - 1] = tuple(route)
    return PathFamily(tuple(routes), tuple(pairs))


def _walk_outcome(walk, pairs, cells):
    try:
        return walk(pairs, cells)
    except ValidationError as exc:
        return str(exc)


def test_hugging_walk_matches_the_reference():
    # the bottom family's walk on the region, the zipped family's on the
    # cells d_zip leaves free, and a walk on a random part of the region
    # (where goals may be taken and walks wedge), on every board of the
    # 3 x 3 box and on random boards; each family's blank check by counts
    # against its blank set
    rng = random.Random(20261019)
    boards = [*all_boards(3, 3, 3, 3)] + [_random_marked_board(rng) for _ in range(3000)]
    outcomes = Counter()
    for board in boards:
        try:
            pairs = boundary_points(board).pairs()
        except ValidationError:
            continue
        region = board.region.cellset
        cells = {"bottom": region, "part": frozenset(c for c in board.region.cells() if rng.random() < 0.8)}
        diagrams = {"part": region - cells["part"]}
        try:
            res = zipdiag.zip_result(*perm_of(board))
        except ValidationError:
            res = None
        if res is not None and res.region == board.region:
            cells["zipped"] = region - res.d_zip.pluses
            diagrams.update(bottom=res.d_top.pluses, zipped=res.d_zip.pluses)
        for kind, free in cells.items():
            got = _walk_outcome(ladder_module._hugging_family, pairs, free)
            assert got == _walk_outcome(_hugging_family_reference, pairs, free), (ladder_to_json(board), kind)
            if isinstance(got, str):
                outcomes[kind, got.split(";")[0].split(" from ")[0]] += 1
                continue
            outcomes[kind, "built"] += 1
            for pluses in diagrams.values():
                assert ladder_module._blanks_are(board, got, pluses) == (frozenset(blanks(board, got)) == pluses)
    wedged = "southwest-hugging walk wedged"
    assert outcomes == {
        ("bottom", "built"): 10401, ("bottom", "no path"): 1798, ("bottom", wedged): 257,
        ("zipped", "built"): 9334, ("zipped", "no path"): 1721, ("zipped", wedged): 245,
        ("part", "built"): 8702, ("part", "no path"): 3034, ("part", wedged): 720,
    }


def test_hugging_walk_matches_the_reference_on_square_boards():
    # the bottom and zipped walks of every one-mark square board with a <= 24
    for a in range(1, 25):
        for r in range(1, a + 1):
            board = _square_board(a, r)
            pairs = boundary_points(board).pairs()
            region = board.region.cellset
            for free in (region, region - zipdiag.zip_result(*perm_of(board)).d_zip.pluses):
                got = ladder_module._hugging_family(pairs, free)
                assert got == _hugging_family_reference(pairs, free), (a, r)


def _backs_out(family, cells):
    """Does a route of the family step north from a box whose west box was
    free, inside its path's box, when the path was placed?"""
    used = set()
    for route in reversed(family.routes):
        goal = route[-1]
        for (r, c), nxt in zip(route, route[1:]):
            west = (r, c - 1)
            if nxt != west and c > goal[1] and west in cells and west not in used:
                return True
        used.update(route)
    return False


def test_hugging_walk_matches_the_reference_on_parts_of_larger_boards():
    # random 80% parts of 12 x 12 to 16 x 16 squares, where walks back out
    # of dead ends, find no path or wedge
    rng = random.Random(20261020)
    outcomes = Counter()
    for a in (12, 14, 16):
        for r in (2, a // 3, a // 2):
            board = _square_board(a, r)
            pairs = boundary_points(board).pairs()
            for _ in range(40):
                free = frozenset(c for c in board.region.cells() if rng.random() < 0.8)
                got = _walk_outcome(ladder_module._hugging_family, pairs, free)
                assert got == _walk_outcome(_hugging_family_reference, pairs, free), (a, r)
                if isinstance(got, str):
                    outcomes[got.split(";")[0].split(" from ")[0]] += 1
                    continue
                outcomes["built"] += 1
                outcomes["backed out"] += _backs_out(got, free)
    assert outcomes == {"built": 75, "backed out": 66, "no path": 230, "southwest-hugging walk wedged": 55}


def test_hugging_walk_backs_out_of_a_dead_end():
    # from (3, 4) the walk goes west to (3, 1), where neither (3, 0) nor
    # (2, 1) is free, backs out of (3, 1) and (3, 2), and goes north at (3, 3)
    cells = {(3, 4), (3, 3), (3, 2), (3, 1), (2, 3), (1, 3), (1, 2), (1, 1)}
    pairs = (((3.0, 3.5), (0.5, 0.0)),)
    family = ladder_module._hugging_family(pairs, cells)
    assert family.routes == (((3, 4), (3, 3), (2, 3), (1, 3), (1, 2), (1, 1)),)
    assert _backs_out(family, cells)
    assert family == _hugging_family_reference(pairs, cells)


def test_hugging_walk_wedges_at_a_taken_goal():
    # both paths end in box (1, 2); the inner one, placed first, takes it
    cells = {(1, 2), (1, 3), (2, 2), (2, 3)}
    pairs = (((2.0, 2.5), (0.5, 1.0)), ((2.0, 1.5), (0.5, 1.0)))
    wedged = "southwest-hugging walk wedged; ladder is not minimal?"
    assert _walk_outcome(ladder_module._hugging_family, pairs, cells) == wedged
    assert _walk_outcome(_hugging_family_reference, pairs, cells) == wedged


def test_walk_builds_a_family_for_every_excited_state():
    """On the cells that any diagram of the oracle's excited closure leaves
    free, the southwest-hugging walk builds a valid family whose blanks are
    that diagram."""
    v, w = perm_of(LAD_C)
    bp = boundary_points(LAD_C)
    states = excited_states(v, w)
    assert frozenset(blanks(LAD_C, p_bot(LAD_C))) in states
    assert len(states) > 1
    for state in states:
        fam = ladder_module._hugging_family(bp.pairs(), LAD_C.region.cellset - state)
        assert nilp_is_valid(LAD_C, fam)
        assert frozenset(blanks(LAD_C, fam)) == state


@pytest.mark.parametrize(
    "slid, message",
    [
        (lambda res: res.d_zip.pluses - {min(res.d_zip.pluses)}, r"^the zipped family's blanks are not the slid"),
        (lambda res: res.region.cellset, r"^no zipped family: no path from H_1 to V_1;"),
    ],
)
def test_zipped_family_faults_are_internal(monkeypatch, slid, message):
    # a slid diagram that is no excited diagram of d_top is a fault of the
    # pair route, not of the board: a lost plus, and one that blocks every path
    real = ladder_module.zip_result

    def broken(v, w):
        res = real(v, w)
        return dataclasses.replace(res, d_zip=PlusDiagram(res.region, slid(res)))

    monkeypatch.setattr(ladder_module, "zip_result", broken)
    with pytest.raises(InternalError, match=message):
        ladder_module._zipped(LAD_C)


def test_p_zip_matches_zip_diagram():
    for lad in ALL_LADDERS:
        v, w = perm_of(lad)
        zipped = p_zip(lad)
        assert frozenset(blanks(lad, zipped)) == zipdiag.d_zip(v, w).pluses
        assert nilp_is_valid(lad, zipped)
        added = zipdiag.d_zip_k(v, w).pluses - zipdiag.d_zip(v, w).pluses
        assert frozenset(elbows(lad, zipped)) == added


def test_zipped_families_of_small_boards_are_pinned():
    # the zipped family of every small board, or the message that rejects
    # it, pinned so that a rewrite of _zipped must build the same routes
    digest = hashlib.sha256()
    accepted = 0
    for board in all_boards(3, 3, 2, 3):  # 6,600 boards
        try:
            family = ladder_module._zipped(board)[2]
        except ValidationError as exc:
            digest.update(str(exc).encode())
        else:
            accepted += 1
            digest.update(repr((ladder_to_json(board), family.routes, family.endpoints)).encode())
    assert accepted == 529
    assert digest.hexdigest() == SMALL_BOARDS_ZIPPED_SHA256


def test_ladder_statistics_match_pair_statistics():
    for lad in ALL_LADDERS:
        v, w = perm_of(lad)
        assert regularity_ladder(lad) == zipdiag.regularity(v, w)
        assert a_invariant_ladder(lad) == zipdiag.a_invariant(v, w)


def test_minimizing_diagonal_trivial_on_ladder_pairs():
    for lad in ALL_LADDERS:
        v, w = perm_of(lad)
        top = d_top(v, w)
        comps = zipdiag.components(top)
        assert zipdiag.minimizing_diag(top) == tuple(zipdiag.max_diag(c) for c in comps)


def test_render_paths():
    text = render_paths(LAD_A, p_bot(LAD_A))
    assert "H1=(6,4.5)" in text and "V1=(0.5,0)" in text
    assert "└" in text and "┐" in text  # both elbow glyphs appear
