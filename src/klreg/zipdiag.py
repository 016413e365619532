"""The slid diagram construction: connected components of the top diagram,
maximal and minimizing diagonals, the canonical slid diagram and its
K-saturation, and the degree / regularity / a-invariant formulas, together
with an independent degree recurrence.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass

from .errors import DEFAULT_BUDGET, InternalError, ResourceError, ValidationError
from .perm import Cell, Permutation
from .skew import PlusDiagram, SkewRegion, _top, can_move, d_top


def _runs(cells) -> list[tuple[int, int, int]]:
    """The runs (i, a, e) of a cell set, as _ne_scan lists d_top's: maximal
    sets a..e of adjacent columns in row i, row-major.  O(c log c) for c
    cells, the sort."""
    runs: list[tuple[int, int, int]] = []
    for i, j in sorted(cells):
        if runs and runs[-1][0] == i and runs[-1][2] == j - 1:
            runs[-1] = (i, runs[-1][1], j)
        else:
            runs.append((i, j, j))
    return runs


def _components(runs) -> list[list[tuple[int, int, int]]]:
    """The edge-connected components of a plus set given by its row-major
    runs, each a list of runs (i, a, e), one per row, in order of their
    first run.  One sweep: a run joins the component of the one run it
    overlaps in the row above or starts one.  A run meeting two runs above,
    a run above that already has one below, or a run whose start or end is
    west of the run above's raises ValidationError, so each component is a
    skew shape, as _pick needs (never on a top diagram: d_top's run
    lemma).  O(R) for R runs."""
    comps: list[list[tuple[int, int, int]]] = []
    above, here, up, row = [], [], 0, 0  # the row above's runs and row's so far: (a, e, component), west to east
    for run in runs:
        i, a, e = run
        if i != row:
            above, here, up, row = (here if i == row + 1 else []), [], 0, i
        while up < len(above) and above[up][1] < a:  # runs above west of this one touch none east of it either
            up += 1
        if up < len(above) and above[up][0] <= e:
            a0, e0, comp = above[up]
            if comp[-1][0] == i or up + 1 < len(above) and above[up + 1][0] <= e or a < a0 or e < e0:
                raise ValidationError(
                    f"a component is not one run per row with starts and ends weakly increasing, at run {run}"
                )
            comp.append(run)
        else:
            comp = [run]
            comps.append(comp)
        here.append((a, e, comp))
    return comps


def components(diagram: PlusDiagram) -> tuple[tuple[Cell, ...], ...]:
    """Edge-connected components of the plus set, each sorted row-major,
    ordered by their lexicographically minimal cell, the first run's west
    end: a total order, so no ties, that also orders the rare interlocking
    layouts (one component in another's northeast notch).  Pluses sharing
    only a corner are not adjacent.  A view of _components on the plus
    set's runs: O(c log c) to sort the c pluses into R runs, O(R) to link
    them (ValidationError as there) and O(c) to list the cells.
    """
    return tuple(
        tuple((i, j) for i, a, e in comp for j in range(a, e + 1)) for comp in _components(_runs(diagram.pluses))
    )


def _greedy(runs, stop: int = 0) -> tuple[list[int], int]:
    """max_diag's greedy (1) on runs (i, a, e), stopped at `stop` columns if
    stop > 0: the columns taken and the index of the run that took the last."""
    cols, s = [], -1
    for k, (_, a, e) in enumerate(runs):
        c = max(a, cols[-1] + 1) if cols else a
        if c <= e:
            cols.append(c)
            s = k
            if len(cols) == stop:
                break
    return cols, s


def _pick(runs, levels=()) -> tuple[Cell, ...]:
    """max_diag's chain of one run (i, a, e) per row, starts and ends weakly
    increasing southward, or, with the sorted `levels` taken,
    minimizing_diag's; their docstrings give rule, proof and cost."""
    cols, s = _greedy(runs)
    i, _, e = runs[s]
    x, k = bisect_right(levels, i + e + 1), len(runs) - 1  # levels[x]: the first level past row s's reach
    while x < len(levels) and runs[k][0] + runs[k][2] + 1 >= levels[x]:
        k -= 1
    chain: list[Cell] = []
    for j in reversed(cols):  # the lift: k is the southmost row the box may take
        while runs[k][1] > j:
            k -= 1
        chain.append((runs[k][0], j))
        k -= 1
    return tuple(reversed(chain))


def max_diag(component: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """The westmost-then-southmost diagonal of maximal length: of the
    longest chains strictly increasing in row and column, the one with the
    smallest column tuple and then the largest row tuple.  Each row must
    hold one run a..e of adjacent columns, starts and ends weakly
    increasing southward, as in a top-diagram component (d_top's run
    lemma), else ValidationError.

    Found without listing chains (a k x 2k block has C(2k, k)), rows
    numbered 1..r north to south:
    (1) Greedy.  North to south, give a row the column max(a, g + 1), g the
    last column given (none at first), when that is at most e.  For every
    chain (r_1, c_1), ..., (r_t, c_t), the greedy gives boxes (s_1, g_1),
    ..., (s_t, g_t) with s_x <= r_x and g_x <= c_x.  Row 1 takes a_1 <=
    a_{r_1} <= c_1.  Past s_x, either the greedy gives a box north of
    r_{x+1} or row r_{x+1} takes max(a, g_x + 1) <= c_{x+1} <= e; in both
    cases s_{x+1} <= r_{x+1}, and g_{x+1} <= max(a_{r_{x+1}}, c_x + 1) <=
    c_{x+1}, as starts never decrease.  So the greedy chain is a longest
    one, and its columns are pointwise, so lexicographically, the least.
    (2) Ends.  With s the greedy's last row, a longest chain ends in row k
    exactly when k >= s: its last row is at or south of s by (1), and for
    k >= s the greedy's boxes but the last, then (k, e_k), are one, as
    ends never decrease.
    (3) Lift.  Last box to first, each box moves to the southmost row of
    its column north of the next box, the last one to the southmost of
    rows s..b holding its column (b = r here; minimizing_diag bounds it).
    Starts never decrease, so that is the last row k in bounds with a_k <=
    g_x; the greedy's row s_x is in bounds too (the lifted rows are at or
    south of the greedy's), so k >= s_x and e_k >= e_{s_x} >= g_x: row k
    holds the box.  Any chain on these columns has its last box at or north
    of the lifted one, then each box at or north of its lifted row, which
    is the southmost above the next: the lifted rows are pointwise, so
    lexicographically, the largest.
    One pass each way over the r rows, O(r); no cell is visited.

    >>> max_diag(((1, 1), (2, 1), (3, 2)))
    ((2, 1), (3, 2))
    """
    runs = _runs(component)
    if any(i == i2 or a > a2 or e > e2 for (i, a, e), (i2, a2, e2) in zip(runs, runs[1:])):
        raise ValidationError("the cells are not one run per row with starts and ends weakly increasing")
    return _pick(runs) if runs else ()


def _minimizing_diag(comps) -> tuple[tuple[Cell, ...], ...]:
    chains = []
    levels: list[int] = []  # the levels taken so far, sorted, repeats kept
    for runs in reversed(comps):
        chain = _pick(runs, levels)
        chains.append(chain)
        for i, j in chain:
            insort(levels, i + j)
    return tuple(reversed(chains))


def minimizing_diag(diagram: PlusDiagram) -> tuple[tuple[Cell, ...], ...]:
    """Per-component diagonals, chosen from the last component backwards so
    that each minimizes the overlap of the anti-diagonal levels below its
    eastmost endpoint with the levels already taken by later components;
    ties go to the westmost-then-southmost chain.  The overlap depends only
    on the row of the chain's last box: it counts the levels taken up to
    the row's reach i + e + 1, (i, e) the row's east end.  Reaches increase
    southward, so the scores never decrease, and by max_diag's (2) the rows
    where a longest chain ends are those from the greedy's last row s
    south: the least-scored of them are s..b, b the last row whose reach is
    below the first level past s's reach (the last row if there is none).
    The chains allowed are then the longest chains within rows 1..b.  The
    greedy never looks south of the row it is at, and its boxes are in
    rows 1..s, so by max_diag's (1) its columns are the least of those
    chains, and (3) with the last box at or north of b gives the rows.
    With no levels b is the last row, and the chain is max_diag's.  A level
    taken twice changes no choice, and the levels are one sorted list that
    gains each chain's levels by bisection, repeats kept.  A view of the
    runs routines: O(c log c) to sort the c pluses into runs, O(R) to link
    them (ValidationError as for components), then per component of r rows
    and t boxes O(r) as for max_diag, plus O(log L) to find b's level and
    O(t*L) at worst to insert the chain's levels, L levels taken.
    """
    return _minimizing_diag(_components(_runs(diagram.pluses)))


@dataclass
class ZipResult:
    """The degree record of one pair: the compressed region, the top
    diagram, the slid diagram, its K-saturation and the three formulas.
    The chains are minimizing_diag(d_top) and the rooms are rooms(v, w);
    both are views computed on request, not stored."""

    region: SkewRegion
    d_top: PlusDiagram
    d_zip: PlusDiagram
    d_zip_k: PlusDiagram
    degree: int
    regularity: int
    a_invariant: int


def _walk(region: SkewRegion, pluses, b: Cell) -> list[Cell]:
    """The cells b+(k,-k), k >= 1, that excited moves carry a plus at b
    through while the other pluses stay put.  The step from b+(k,-k) tests
    b+(k+1,-k-1), b+(k+1,-k) and b+(k,-k-1), none of which is b or an
    earlier cell of the walk, so walking on the unmoved set gives the same
    cells as moving the plus one step at a time."""
    walk = []
    while can_move(region, pluses, b):
        b = (b[0] + 1, b[1] - 1)
        walk.append(b)
    return walk


def zip_result(v: Permutation, w: Permutation) -> ZipResult:
    """The slid diagram and its saturation, built afresh on every call;
    a caller that needs the record twice keeps it.  Both stages read
    _walk: a slide source moves to the end of its walk on the diagram slid
    so far, and the K-saturation adds each chain box's walk on the slid
    diagram.  The walks run on the unmoved set, so no K-walk sees the
    cells another one adds; every cell they reach was plus-free in the
    diagram walked, so the cardinality check and the collision check of
    the K-saturation against the slid diagram can only fail on a bug.

    The memo hands over the top diagram's plus runs, so nothing sorts the
    pluses: _components links them, one per row (d_top's run lemma), and
    row i's slide sources are its run's columns a..min(e, cj) under the
    chain's last box (ci, cj) in rows <= i.

    The record holds both lengths, so none is recomputed: compress(v) maps
    the cells of D(v) one to one onto the region, so |region| = #D(v) =
    length(v); d_top's scan takes a letter exactly when the remainder's
    length drops by one, and it ends at the identity, so |d_top| =
    length(w).  The pair is validated once, inside d_top; nothing after it
    checks v or w again."""
    top, runs = _top(v, w)
    region = top.region
    comps = _components(runs)
    chains = _minimizing_diag(comps)

    pluses = set(top.pluses)
    for comp, chain in zip(comps, chains):
        # b slides when weakly southwest of a chain box and not one.  The chain rises in
        # row and column, so its last box (ci, cj) in rows <= i is the eastmost of them,
        # and row i's sources are its columns a..cj, less cj when the box is in row i.
        sources, t = [], 0
        for i, a, e in comp:
            while t < len(chain) and chain[t][0] <= i:
                t += 1
            if t:
                ci, cj = chain[t - 1]
                sources.extend((j, -i) for j in range(a, min(e, cj - (ci == i)) + 1))
        sources.sort()  # left to right, bottom to top
        for j, minus_i in sources:
            b = (-minus_i, j)
            walk = _walk(region, pluses, b)
            if walk:
                pluses.remove(b)
                pluses.add(walk[-1])
    zipped = PlusDiagram(region, frozenset(pluses))
    if zipped.size() != top.size():
        raise InternalError("slid diagram changed cardinality")

    extra = {c for chain in chains for b in chain for c in _walk(region, zipped.pluses, b)}
    if extra & zipped.pluses:
        raise InternalError("K-saturation collided with the slid diagram")
    saturated = PlusDiagram(region, zipped.pluses | extra)
    deg = saturated.size()
    return ZipResult(
        region=region,
        d_top=top,
        d_zip=zipped,
        d_zip_k=saturated,
        degree=deg,
        regularity=deg - top.size(),
        a_invariant=deg - region.size(),
    )


def d_zip(v: Permutation, w: Permutation) -> PlusDiagram:
    """The canonical slid diagram; has exactly length(w) pluses."""
    return zip_result(v, w).d_zip


def rooms(v: Permutation, w: Permutation) -> dict[Cell, int]:
    """How many anti-diagonal K-steps fit under each chain box, in chain
    order: the length of the box's walk on the slid diagram, which
    zip_result adds to it.  One record and one minimizing_diag serve every
    box."""
    res = zip_result(v, w)
    pluses = res.d_zip.pluses
    return {b: len(_walk(res.region, pluses, b)) for chain in minimizing_diag(res.d_top) for b in chain}


def d_zip_k(v: Permutation, w: Permutation) -> PlusDiagram:
    """The slid diagram plus its full anti-diagonal K-saturation."""
    return zip_result(v, w).d_zip_k


def groth_degree(v: Permutation, w: Permutation) -> int:
    """Degree of the unspecialized Grothendieck polynomial of the pair."""
    return zip_result(v, w).degree


def regularity(v: Permutation, w: Permutation) -> int:
    """Castelnuovo-Mumford regularity: degree minus length(w)."""
    return zip_result(v, w).regularity


def a_invariant(v: Permutation, w: Permutation) -> int:
    """a-invariant: degree minus length(v)."""
    return zip_result(v, w).a_invariant


def _swap(word: tuple[int, ...], p: int, q: int) -> tuple[int, ...]:
    """The word with positions p < q (0-indexed) exchanged."""
    return word[:p] + (word[q],) + word[p + 1 : q] + (word[p],) + word[q + 1 :]


def _column_leq(y: tuple[int, ...], u: tuple[int, ...], a: int, i: int, j: int) -> bool:
    """rank_y(k, a) >= rank_u(k, a) for the prefixes k ending at positions
    i..j-1 (0-indexed): column a of the rank criterion on the window where
    it can fail, as groth_degree_recursive's docstring proves, starting
    from gap 0."""
    gap = 0
    for x, z in zip(y[i:j], u[i:j]):
        if x != z:  # equal values add 0
            gap += (x <= a) - (z <= a)
            if gap < 0:
                return False
    return True


def groth_degree_recursive(v: Permutation, w: Permutation, budget: int = DEFAULT_BUDGET) -> int:
    """The degree again, via the peel-off recurrence on the northeast box.

    z is the northmost-then-eastmost plus of the top diagram and z' the
    northmost-then-eastmost region box; if they differ the degree is
    unchanged after deleting z' from v, and otherwise it is 1 plus the
    larger of the two one-box-smaller branches.  Branches whose pair is not
    Bruhat-comparable contribute minus infinity.

    Compression keeps the (row, -column) order, so z' is the first cell of
    v's reading order: row i, the first with v(i) != i, whose label is
    a = i + c_i - 1 = v(i) - 1.  z = z' exactly when a is a left descent of
    w, since d_top's scan takes a letter exactly when it is a left descent
    of the remainder.  Both branches delete z', so the letters peeled off v
    are its reading word whatever w is (checked on all 321-avoiding v of
    S_1..S_8), and the recurrence is one forward pass over them.  A level maps each
    remainder of w to the most letters taken to reach it; a remainder that
    reaches the identity leaves with its count, and the degree is the
    largest.  The lifting-property lemma in d_top's docstring, applied to
    this first letter (v = s_a*Dem(rest) is reduced, so s_a*v < v), keeps
    the remainder each case names below the rest of v (an InternalError if
    it is not); the absorbed copy is dropped when it is not.  Left descents
    keep words 321-avoiding, so only the root is validated, by d_top's
    memoized scan, as for the closure oracle: the recurrence certifies the
    degree, not the pair (test_skew checks the scan against bruhat_leq).

    Let u be what is left of v, i (0-indexed from here on) its first
    non-fixed position and j the position of the value a = u(i) - 1; the
    values before i are 1..i, so a > i and j > i.  Peeling a swaps
    positions i and j only, so i never moves back: one forward pointer
    finds it, O(n) over the whole pass.

    Each branch is tested on one column of the rank criterion for Bruhat
    order (Bjorner-Brenti, Thm 2.1.5: y <= u iff rank_y(k, c) >=
    rank_u(k, c) for all k, c, where rank_u(k, c) = #{m <= k : u(m) <= c}),
    and on one window of it.  Every remainder z of a level lies below u:
    at the root by d_top's scan, and later because it passed this test.
    Peeling a gives u' = s_a*u, and each branch y is z or s_a*z, the latter
    when a is a left descent of z.  Left multiplication by s_a swaps the
    values a and a+1, which changes rank(k, c) only for c = a, so for
    c != a, rank_y(k, c) = rank_z(k, c) >= rank_u(k, c) = rank_u'(k, c).
    Hence y <= u' exactly when rank_y(k, a) >= rank_u'(k, a) for every k.
    That needs checking only for the prefixes ending at i..j-1.  z <= u
    and u fixes the positions before i, so z does too (rank_z(k, k) >=
    rank_u(k, k) = k), and s_a touches neither, as a, a+1 > i: y and u' are
    both the identity there, and the gap is 0 entering position i.  A
    prefix ending at j or later holds the same values in u' as in u, so
    rank_u'(k, a) = rank_u(k, a) <= rank_z(k, a) <= rank_y(k, a), the last
    step because s_a*z moves a ahead of a+1.  So a branch costs O(j - i),
    and the two z.index lookups start at i.

    The remainders past each level's first (one per level is an
    O(n*length(v)) chain, the rest exponential branching) count against
    `budget`, summed over the levels; past it, a ResourceError.
    """
    d_top(v, w)
    identity_word = tuple(range(1, v.n + 1))
    best, vw, level, spent, i = 0, v.word, {w.word: 0}, 0, 0  # level: remainder of w -> letters taken
    while True:
        best = max(best, level.pop(identity_word, 0))
        if not level:
            return best
        spent += len(level) - 1
        if spent > budget:
            raise ResourceError(f"recurrence budget {budget} exceeded", partial={"remainders": spent})
        while vw[i] == i + 1:  # a remainder other than the identity: vw is not it either
            i += 1
        a = vw[i] - 1  # the first reading letter of what is left of v
        j = vw.index(a, i)
        vw = _swap(vw, i, j)
        taken: dict = {}
        for z, count in level.items():
            p, q = z.index(a + 1, i), z.index(a, i)
            if p < q:  # a+1 before a: a is a left descent, taken or absorbed
                branches = ((_swap(z, p, q), count + 1), (z, count + 1))
            else:
                branches = ((z, count),)
            for k, (y, c) in enumerate(branches):
                if _column_leq(y, vw, a, i, j):
                    taken[y] = max(c, taken.get(y, c))
                elif k == 0:
                    raise InternalError("a branch the lifting property keeps comparable is not")
        level = taken
