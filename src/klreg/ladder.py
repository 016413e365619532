"""Two-sided mixed ladder regions with marked points: minimality checks,
the associated permutation pair, boundary points, non-intersecting lattice
paths, blanks / weight / unforced elbows, and the lattice-path formulas for
regularity and the a-invariant.

Drawn coordinates: boundary lattice points are (row, col) with (0, 0) at
the region's northwest corner; a box inherits the label of its southeast
corner, so box (i, j) is the cell in row i, column j of the grid.  The
partition pair is drawn reflected across the vertical axis, so the second
partition cuts the region out of the northeast.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .errors import InternalError, ValidationError
from .perm import Cell, Permutation, from_lehmer_code, rank
from .skew import SkewRegion, d_top
from .zipdiag import ZipResult, _greedy, zip_result

Point = tuple[float, float]


@dataclass(frozen=True)
class Ladder:
    """A skew board with marked points (p_i, r_i) on its southwest border.

    `region`, with `n_rows` and `width`, is the one source of the board's
    drawn geometry: its walls, corners, border points and cutout are all
    read off `region.rows`."""

    lam: tuple[int, ...]
    mu: tuple[int, ...]
    marked: tuple[tuple[Cell, int], ...]
    region: SkewRegion = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam, mu = tuple(self.lam), tuple(self.mu)
        if not all(type(x) is int for x in lam + mu):  # bool is not a part
            raise ValidationError(f"partition parts must be integers: {lam!r}, {mu!r}")
        if len(mu) < len(lam):
            mu = mu + (0,) * (len(lam) - len(mu))
        if not lam or any(a <= 0 for a in lam):
            raise ValidationError("lambda must be a nonempty positive partition")
        if any(a < b for a, b in zip(lam, lam[1:])) or any(a < b for a, b in zip(mu, mu[1:])):
            raise ValidationError("partition parts must be weakly decreasing")
        if len(mu) != len(lam) or any(m < 0 for m in mu):
            raise ValidationError("mu must have one nonnegative part per row")
        if any(m >= l for l, m in zip(lam, mu)):
            raise ValidationError("every ladder row must be nonempty")
        # an empty column means the board is not reduced: its bounding width
        # is smaller than lam[0] and the pair correspondence breaks down
        if mu[-1] != 0 or any(mu[i] > lam[i + 1] for i in range(len(lam) - 1)):
            raise ValidationError("ladder has an empty column; reduce the board first")
        marks = tuple((tuple(p), r) for p, r in self.marked)
        for p, r in marks:  # checked before the sort, which would compare them
            if len(p) != 2 or not all(type(x) is int for x in (*p, r)):
                raise ValidationError(f"a mark needs two integer coordinates and an integer r: {p!r}, {r!r}")
        marks = tuple(sorted(marks))
        if any(r <= 0 for _, r in marks):
            raise ValidationError("marked point multiplicities must be positive")
        rows = tuple((lam[0] - l + 1, lam[0] - m) for l, m in zip(lam, mu))  # drawn coordinates
        for p, _ in marks:
            if not _on_sw_border(rows, lam[0], p):
                raise ValidationError(f"marked point {p} is not on the southwest border")
            if p[0] == 0:  # its block, rows 1..0, is empty
                raise ValidationError(f"marked point {p} is on row 0, where its block has no rows")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "marked", marks)
        object.__setattr__(self, "region", SkewRegion(rows))

    @property
    def n_rows(self) -> int:
        return len(self.lam)

    @property
    def width(self) -> int:
        return self.lam[0]


def _on_sw_border(rows, width: int, p: Cell) -> bool:
    """Is p a lattice point of the southwest border polyline, from the
    northwest corner (0, 0) to the southeast corner?  Row i of the polyline
    runs east from row i's west wall to row i+1's (to the east edge on the
    last row); the west wall of a row [a, b] is a - 1."""
    i, j = p
    if not 1 <= i <= len(rows):
        return (i, j) == (0, 0)
    return rows[i - 1][0] - 1 <= j <= (rows[i][0] - 1 if i < len(rows) else width)


def partition_cells(ladder: Ladder) -> frozenset:
    """All cells of the full outer shape, including the northeast cutout."""
    w = ladder.width
    return frozenset((i, j) for i, (a, _) in enumerate(ladder.region.rows, 1) for j in range(a, w + 1))


def sw_corners(ladder: Ladder) -> tuple[Cell, ...]:
    """Convex corners along the southwest border, northwest to southeast."""
    ws = [a - 1 for a, _ in ladder.region.rows]  # west walls
    corners = [(r, ws[r - 1]) for r in range(1, ladder.n_rows) if ws[r] > ws[r - 1]]
    corners.append((ladder.n_rows, ws[-1]))
    return tuple(corners)


def ne_corners(ladder: Ladder) -> tuple[Cell, ...]:
    """Convex corners along the northeast border, northwest to southeast."""
    ee = [b for _, b in ladder.region.rows]  # east walls
    return ((0, ee[0]),) + tuple((r, ee[r]) for r in range(1, ladder.n_rows) if ee[r] > ee[r - 1])


def ladder_from_json(data) -> Ladder:
    """The ladder of a decoded board file: a dict of the documented schema."""
    if not isinstance(data, dict):
        raise ValidationError(f"bad ladder description: expected a JSON object, got {type(data).__name__}")
    try:
        marks = tuple((tuple(m["point"]), m["r"]) for m in data["marked"])
        return Ladder(tuple(data["lambda"]), tuple(data.get("mu", ())), marks)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad ladder description: {exc}") from exc


def ladder_to_json(ladder: Ladder) -> dict:
    return {
        "lambda": list(ladder.lam),
        "mu": list(ladder.mu),
        "marked": [{"point": list(p), "r": r} for p, r in ladder.marked],
    }


# ---------------------------------------------------------------------------
# minimality


@dataclass
class MinimalityReport:
    passed: bool
    uncovered: tuple
    row_offset_violations: tuple
    col_offset_violations: tuple


def validate_minimal(ladder: Ladder) -> MinimalityReport:
    """Check that every cell appears in some generator monomial and that the
    marked-point offsets p(1)-r and p(2)-r strictly increase.

    A cell of the block of mark (p, r) (rows 1..p(1), columns p(2)+1 to the
    east edge) is in a monomial of an r-minor of the block when the block
    less the cell's row and column holds r-1 cells in distinct rows and
    columns.  The mark is on the southwest border, so block row i is the
    run (i, p(2)+1, b_i) (see ladder_generators), b_i weakly increasing
    down the rows, and dropping a row k keeps that.  On such rows:
    (1) Crossing cells (i, c), (i', c') with i < i' and c > c' can swap
    columns (a_i <= a_i' <= c' < c <= e_i <= e_i'), so every set of cells in
    distinct rows and columns has the columns of a chain, strictly
    increasing in row and column.
    (2) By max_diag's (1), `_greedy` gives the least columns g_1 < ... <
    g_m of a longest chain, so m is the most such cells, in rows pointwise
    the northmost; on the block turned half a turn it gives the greatest
    columns h_1 < ... < h_m, in rows pointwise the southmost.  By (1) the
    t-th column of every largest set lies in [g_t, h_t].
    So with m counted on the block less row k, row k is covered in full
    when m >= r (dropping a column removes at most one cell), not at all
    when m < r - 1, and, when m = r - 1, except in the columns where g_t =
    h_t: every largest set uses those, while for g_t < h_t the cells of
    g_1..g_{t-1} and h_t..h_m are a chain of m cells (the row of g_{t-1} is
    north of g_t's, at or north of h_t's) that misses column g_t, and g
    misses every other column.  Each pass stops at r columns and the turned
    one runs only when m = r - 1: a mark costs O(rows^2) plus its cells.

    >>> rep = validate_minimal(Ladder((2, 2), (0, 0), (((1, 0), 1),)))
    >>> rep.passed, rep.uncovered
    (False, ((2, 1), (2, 2)))
    """
    region = ladder.region
    covered = set()
    for (p, r) in ladder.marked:
        block = [(i, p[1] + 1, b) for i, (_, b) in enumerate(region.rows[: p[0]], 1)]
        for k, (i, a, e) in enumerate(block):
            rest = block[:k] + block[k + 1 :]
            g = _greedy(rest, r)[0]
            if len(g) == r:
                covered.update((i, j) for j in range(a, e + 1))
            elif len(g) == r - 1:
                turned = _greedy([(-i2, -e2, -a2) for i2, a2, e2 in reversed(rest)], r)[0]  # -h_m, ..., -h_1
                fixed = {c for c, d in zip(g, reversed(turned)) if c == -d}
                covered.update((i, j) for j in range(a, e + 1) if j not in fixed)
    uncovered = tuple(c for c in region.cells() if c not in covered)

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


# ---------------------------------------------------------------------------
# the permutation pair


def _least_perm(n: int, constraints) -> tuple[Permutation, list[int]]:
    """The Bruhat-least w under the caps ((a', b'), c), rank(w, a', b') <= c,
    and one count per cap, which ends as rank(w, a', b').

    Row a takes the smallest free column b that no cap with a <= a' and
    b <= b' has filled.  If the envelope E = min(a, b, c + (a-a')+ + (b-b')+
    over the caps) is a permutation's rank matrix, the sweep returns it
    (induction over the rows: a free column b that no cap forbids has
    E(a, b) = E(a-1, b) + 1, so E's own column in row a is at most b).
    Otherwise it may return a Bruhat-minimal w where E raised: caps
    {((1,1),0), ((2,2),1)} in S_3 give 231.  Caps with c >= a' + b' - n,
    as a board's are, leave every row a free column, so running out is an
    InternalError: if a filled cap with a <= a' bars the columns up to b',
    rows 1..a-1 put at most a-1-c entries above b', which leaves at least
    n - b' - (a-1-c) >= a' - a + 1 >= 1 of those columns free.
    """
    counts = [0] * len(constraints)
    free = list(range(1, n + 1))
    word = []
    for a in range(1, n + 1):
        caps = [(k, bk, ck) for k, ((ak, bk), ck) in enumerate(constraints) if a <= ak]
        i = bisect_right(free, max((bk for k, bk, ck in caps if counts[k] >= ck), default=0))
        if i == len(free):
            raise InternalError(f"no free column for row {a} under the rank caps")
        b = free.pop(i)
        word.append(b)
        for k, bk, _ in caps:
            counts[k] += b <= bk
    return Permutation(tuple(word)), counts


def rank_constraints(ladder: Ladder, v: Permutation) -> tuple[tuple[Cell, int], ...]:
    """The rank equalities that define w: one per (marked point, NE corner).
    Each is at least a + b - n, as `_least_perm` needs: rank(v, a, b) is,
    r >= 1, and a, b <= n = rows + width."""
    betas = ne_corners(ladder)
    out = []
    for (p, r) in ladder.marked:
        a = p[0] + p[1]
        for beta in betas:
            b = beta[0] + beta[1]
            out.append(((a, b), min(a, b, rank(v, a, b) + r - 1)))
    return tuple(out)


def perm_of(ladder: Ladder) -> tuple[Permutation, Permutation]:
    """The pair (v, w) whose Kazhdan-Lusztig ideal matches the ladder ideal.

    v is cut out by the row-length code of the ladder; w is the Bruhat-least
    permutation under the marked rank caps, built by one sweep over the rows
    (`_least_perm`), and then verified to meet every cap with equality.
    d_top's scan then rejects the pair unless it is 321-avoiding and w <= v.

    v compresses to the board's region, so a mismatch in `_zipped` is an
    InternalError.  Write l_i, m_i for row i's parts; the code puts l_i - m_i
    at row i's position P_i, then l_i - l_{i+1} zeros (l past the last row
    is 0).  With U_i the values free at P_i, row P_i of D(v) is the first
    l_i - m_i values of U_i and v(P_i) the next one; each zero takes the
    least free value, so, as m_i <= l_{i+1}, the zeros after P_i take values
    of that row.  The l_{i+1} - m_i values of the row left below v(P_i) are
    at most row i+1's length, so v(P_{i+1}) > v(P_i): the v(P_i) are the
    left-to-right maxima and the zeros' values are D(v)'s nonempty columns.
    The W - l_i zeros before P_i (W the width) took values below min U_i,
    and a used value inside row P_i's span is some v(P_j), so that row
    compresses to columns W - l_i + 1 .. W - m_i: the region's row i.
    """
    lam, mu = ladder.lam, ladder.mu
    code = []
    for i, (l, m) in enumerate(zip(lam, mu)):
        code.append(l - m)
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        code.extend([0] * (l - nxt))
    v = from_lehmer_code(code)
    cons = rank_constraints(ladder, v)
    w, counts = _least_perm(v.n, cons)
    for ((a, b), c), got in zip(cons, counts):
        if got != c:
            raise ValidationError(f"envelope permutation violates rank({a},{b}) = {c}")
    d_top(v, w)
    return v, w


# ---------------------------------------------------------------------------
# boundary points


@dataclass
class BoundaryPoints:
    """Labeled endpoints: h[i-1] is H_i, v[i-1] is the V_i paired with it."""

    h: tuple[Point, ...]
    v: tuple[Point, ...]
    extended_marks: tuple[tuple[Cell, int], ...]

    def pairs(self) -> tuple[tuple[Point, Point], ...]:
        return tuple(zip(self.h, self.v))


def boundary_points(ladder: Ladder) -> BoundaryPoints:
    """Half-integer start and end points for the path family, read off the
    rank jumps between consecutive marks along each border segment.  Each
    side's jumps are summed before any point is built, so a board whose sums
    differ, or exceed the shape's cells (a path needs a cell of its own), is
    refused whatever its multiplicities."""
    alphas = sw_corners(ladder)
    marks = ladder.marked
    extended = list(marks)
    for a, b in zip(alphas, alphas[1:]):
        corner = (a[0], b[1])  # corner rows strictly increase: fill-ins never collide
        if not any(p == corner for p, _ in marks):
            rval = min((r for p, r in marks if p[0] == a[0] or p[1] == b[1]), default=None)
            if rval is None:
                raise ValidationError(f"no mark determines the corner fill-in at {corner}")
            extended.append((corner, rval))
    extended.append(((0, 0), 1))
    extended.append(((ladder.n_rows, ladder.width), 1))

    # sorted on the point's coordinate along the segment only: a mark at the
    # southeast corner shares its point with the ((n_rows, width), 1) just
    # appended, and the stable order puts the mark first, which fixes the jump
    v_jumps: list = []
    h_jumps: list = []
    for a in alphas:
        seg_v = sorted((m for m in extended if m[0][1] == a[1]), key=lambda m: m[0][0])
        v_jumps += [(p1, r2 - r1) for (p1, r1), (_, r2) in zip(seg_v, seg_v[1:])]
        seg_h = sorted((m for m in extended if m[0][0] == a[0]), key=lambda m: -m[0][1])
        h_jumps += [(p1, r2 - r1) for (p1, r1), (_, r2) in zip(seg_h, seg_h[1:])]
    n_v = sum(max(jump, 0) for _, jump in v_jumps)
    n_h = sum(max(jump, 0) for _, jump in h_jumps)
    if n_v != n_h:
        raise ValidationError(f"unbalanced boundary points: {n_v} vertical, {n_h} horizontal")
    cells = sum(ladder.width - a + 1 for a, _ in ladder.region.rows)  # |partition_cells(ladder)|
    if n_v > cells:
        raise ValidationError(f"{n_v} boundary points on each side, more than the shape's cell count {cells}")
    free = {(p[0] + k - 0.5, float(p[1])) for p, jump in v_jumps for k in range(1, jump + 1)}
    h_points = [(float(p[0]), p[1] - k + 0.5) for p, jump in h_jumps for k in range(1, jump + 1)]

    h_sorted = sorted(h_points, key=lambda p: (-p[1], -p[0]))  # east to west
    v_points: list[Point] = []
    for i in range(len(h_sorted), 0, -1):  # west to east
        h = h_sorted[i - 1]
        pick = max((p for p in free if p[0] < h[0] and p[1] < h[1]), default=None)  # southmost, ties nearest
        if pick is None:
            raise ValidationError(f"no unused vertical point northwest of H_{i} = {h}")
        free.remove(pick)
        v_points.append(pick)
    return BoundaryPoints(tuple(h_sorted), tuple(reversed(v_points)), tuple(sorted(extended)))


# ---------------------------------------------------------------------------
# path families


@dataclass(frozen=True)
class PathFamily:
    """One non-intersecting path family as box routes.  routes[i-1] runs
    from H_i to V_i: it enters its first box from the south, steps west or
    north from each box to the next, and leaves its last box through the
    west edge."""

    routes: tuple  # one tuple of boxes per path
    endpoints: tuple  # ((H_1, V_1), (H_2, V_2), ...)


def _start_box(h: Point) -> Cell:
    return (int(h[0]), int(h[1] + 0.5))


def _goal_box(v: Point) -> Cell:
    return (int(v[0] + 0.5), int(v[1] + 1))


def _passages(family: PathFamily):
    """(box, entry edge, exit edge) of every box on the family's routes."""
    for route in family.routes:
        entry = "S"
        for k, box in enumerate(route):
            exit_ = "N" if k + 1 < len(route) and route[k + 1] == (box[0] - 1, box[1]) else "W"
            yield box, entry, exit_
            entry = "S" if exit_ == "N" else "E"


def _hugging_family(pairs, cells) -> PathFamily:
    """The family from the endpoint pairs ((H_1, V_1), ...) on `cells` in
    which every path hugs the southwest border maximally: paths are placed
    innermost first, always stepping west when a completion through the
    cells still free exists.

    Each path is a west-first depth-first search from its start box.  It
    steps west, else north, onto a box that lies in the box between start
    and goal (a west/north route never leaves it), is free (in `cells`,
    not used) and is not dead; the goal counts as open even when it is
    not free.  A box with no step is popped and marked dead.  A dead box
    has no route to the goal, since each of its steps was dead, shut or
    outside when it was popped; a kept step has one, the rest of the
    route.  So the route steps west exactly where the west box has a
    completion, an empty route means that the start has none, and a goal
    reached that is not free is one the walk cannot enter: it wedges.
    Steps go west or north, so a box on the route is not pushed again,
    and a popped box is dead: each box is pushed at most once, and a path
    costs O(route + dead boxes), never more than a scan of its box."""
    used: set = set()
    routes: list = [()] * len(pairs)
    for i in range(len(pairs), 0, -1):
        start = _start_box(pairs[i - 1][0])
        gr, gc = goal = _goal_box(pairs[i - 1][1])
        route = [start] if start in cells and start not in used else []
        dead: set = set()
        while route and route[-1] != goal:
            r, c = route[-1]
            for cand in ((r, c - 1), (r - 1, c)):  # west first
                if cand == goal or (
                    cand[0] >= gr and cand[1] >= gc and cand in cells and cand not in used and cand not in dead
                ):
                    route.append(cand)
                    break
            else:
                dead.add(route.pop())
        if not route:
            raise ValidationError(f"no path from H_{i} to V_{i}; ladder is not minimal?")
        if goal not in cells or goal in used:
            raise ValidationError("southwest-hugging walk wedged; ladder is not minimal?")
        used.update(route)
        routes[i - 1] = tuple(route)
    return PathFamily(tuple(routes), tuple(pairs))


def p_bot(ladder: Ladder) -> PathFamily:
    """The family in which every path hugs the southwest border maximally."""
    return _hugging_family(boundary_points(ladder).pairs(), ladder.region.cellset)


def blanks(ladder: Ladder, family: PathFamily) -> tuple[Cell, ...]:
    """Ladder cells not occupied by any path."""
    occupied = {box for route in family.routes for box in route}
    return tuple(c for c in ladder.region.cells() if c not in occupied)


def weight(ladder: Ladder) -> int:
    """Ladder cells covered by paths, p_bot's route lengths; the same for every family."""
    return sum(map(len, p_bot(ladder).routes))


def elbows(ladder: Ladder, family: PathFamily) -> tuple[Cell, ...]:
    """Unforced elbows: boxes a path enters from the east and leaves to the
    north, with a blank somewhere on their northeast anti-diagonal.  Every
    grid cell of anti-diagonal i + j north of box (i, j) is on that ray, so
    the box is unforced exactly when the northmost blank of its
    anti-diagonal lies in a row above i."""
    north = {i + j: i for i, j in reversed(blanks(ladder, family))}  # blanks are row-major: the northmost wins
    turns = (box for box, entry, exit_ in _passages(family) if (entry, exit_) == ("E", "N"))
    return tuple(sorted((i, j) for i, j in turns if north.get(i + j, i) < i))


def nilp_is_valid(ladder: Ladder, family: PathFamily) -> bool:
    """Do the routes form disjoint west/north paths H_i -> V_i inside the
    shape whose visits to the cutout satisfy the occupancy conditions?

    A cutout box may not be an east-to-north elbow, and every shape cell
    southwest of it on its anti-diagonal, up to where that ray leaves the
    shape, must be occupied.  Row starts never decrease southward, so those
    cells are all the shape's cells south of the box on its anti-diagonal:
    the box passes when the southmost free cell there lies north of it.
    The elbow test is not implied by the ray test: where rows i and i+1
    share no column, a path can turn east-to-north in the cutout of row i
    with every ray covered."""
    lam_cells = partition_cells(ladder)
    if len(family.routes) != len(family.endpoints):
        return False
    occupied: set = set()
    for route, (h, vpt) in zip(family.routes, family.endpoints):
        goal = _goal_box(vpt)
        if not route or route[0] != _start_box(h) or route[-1] != goal or (goal[0], goal[1] - 1) in lam_cells:
            return False
        if not lam_cells.issuperset(route) or not occupied.isdisjoint(route):
            return False
        if any(b not in ((a[0], a[1] - 1), (a[0] - 1, a[1])) for a, b in zip(route, route[1:])):
            return False
        occupied.update(route)
    south = {i + j: i for i, j in sorted(lam_cells - occupied)}  # row-major: the southmost wins
    return not any(
        (entry, exit_) == ("E", "N") or south.get(i + j, 0) > i
        for (i, j), entry, exit_ in _passages(family)
        if (i, j) not in ladder.region  # in the cutout, as every route lies in the shape
    )


# ---------------------------------------------------------------------------
# the zipped family


def _blanks_are(ladder: Ladder, family: PathFamily, pluses: frozenset) -> bool:
    """Is `pluses`, a set of region cells, the blank set of a family that
    `_hugging_family` built on region cells?  Its routes are disjoint and
    lie in the region, so the blanks are `pluses` exactly when no route
    box is a plus and the two counts fill the region."""
    occupied = {box for route in family.routes for box in route}
    return occupied.isdisjoint(pluses) and len(occupied) + len(pluses) == ladder.region.size()


def _zipped(ladder: Ladder) -> tuple[tuple[Permutation, Permutation], ZipResult, PathFamily]:
    """perm_of(ladder), its zip result and p_zip(ladder), from one run each
    of perm_of, zip_result and p_bot.  The southwest-hugging walk gives the
    bottom family on the region, and from its endpoints the zipped family
    on the cells that d_zip leaves free, as such a family exists and is
    unique:

    - zip_result reaches d_zip by excited moves from d_top, the bottom
      family's blanks (checked).  A move of a blank b to t = b+(1,-1) is a
      one-cell route edit.  With t in the region, s = b+(1,0) is no goal
      box and w = b+(0,-1) no start box, and b is blank, so the route
      through s steps west to t and on to w; b takes t's place in it.
    - A west/north route from box (r, c) to box (r', c') has
      (r - r') + (c - c') + 1 boxes, so every family covers `weight` =
      |region| - |d_top| = |region| - |d_zip| cells: all the free ones.
    - Where the innermost unplaced path steps west, its rest completes the
      step; where it steps north, the cell west of it lies southwest of
      it, where no outer path goes, so it is not free.  The walk follows
      that path, then the next one on the cells left.
    """
    pair = perm_of(ladder)
    res = zip_result(*pair)
    if res.region != ladder.region:
        raise InternalError("compressed diagram of v does not match the ladder region")
    bottom = p_bot(ladder)
    if not _blanks_are(ladder, bottom, res.d_top.pluses):
        raise ValidationError("bottom family does not match the top diagram")
    try:
        family = _hugging_family(bottom.endpoints, ladder.region.cellset - res.d_zip.pluses)
    except ValidationError as exc:  # the family exists, as above
        raise InternalError(f"no zipped family: {exc}") from exc
    if not _blanks_are(ladder, family, res.d_zip.pluses):
        raise InternalError("the zipped family's blanks are not the slid diagram")
    return pair, res, family


def p_zip(ladder: Ladder) -> PathFamily:
    """The family whose blanks form the canonical slid diagram."""
    return _zipped(ladder)[2]


def regularity_ladder(ladder: Ladder) -> int:
    """Number of unforced elbows of the zipped family."""
    return len(elbows(ladder, p_zip(ladder)))


def a_invariant_ladder(ladder: Ladder) -> int:
    """Unforced elbows of the zipped family minus the weight, the cells
    its paths cover."""
    family = p_zip(ladder)
    return len(elbows(ladder, family)) - sum(map(len, family.routes))


# ---------------------------------------------------------------------------
# rendering

_GLYPH = {  # by the edges a path enters and leaves a box through
    ("E", "N"): "└",
    ("S", "W"): "┐",
    ("S", "N"): "│",
    ("E", "W"): "─",
}


def render_paths(ladder: Ladder, family: PathFamily) -> str:
    """ASCII grid of the path glyphs and blank cells, plus a legend of labeled endpoints."""
    glyphs = {cell: _GLYPH[entry, exit_] for cell, entry, exit_ in _passages(family)}
    lines = []
    for i in range(1, ladder.n_rows + 1):
        chars = []
        for j in range(1, ladder.width + 1):
            cell = (i, j)
            if cell in glyphs:
                chars.append(glyphs[cell])
            elif cell in ladder.region:
                chars.append("·")  # ·
            else:
                chars.append(" ")
        lines.append("".join(chars).rstrip())
    for i, (h, vpt) in enumerate(family.endpoints, 1):
        lines.append(f"H{i}=({h[0]:g},{h[1]:g})  V{i}=({vpt[0]:g},{vpt[1]:g})")
    return "\n".join(lines)
