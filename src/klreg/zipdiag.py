"""The slid diagram construction: connected components of the top diagram,
maximal and minimizing diagonals, the canonical slid diagram and its
K-saturation, and the degree / regularity / a-invariant formulas, together
with an independent degree recurrence.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .errors import DEFAULT_BUDGET, InternalError, ResourceError
from .perm import Cell, Permutation
from .skew import PlusDiagram, SkewRegion, can_move, d_top


def components(diagram: PlusDiagram) -> tuple[tuple[Cell, ...], ...]:
    """Edge-connected components of the plus set, each sorted row-major,
    ordered northwest to southeast by their lexicographically minimal cell:
    seeds go in sorted order, so each is its component's minimal cell.

    Two pluses sharing only a corner fall in different components.  The
    lexicographic key is a total order, so no tie-breaking is needed; rare
    interlocking layouts (one component nested in another's northeast
    notch) are ordered by it as well.
    """
    unseen = set(diagram.pluses)
    comps = []
    for seed in sorted(unseen):
        if seed not in unseen:
            continue
        unseen.remove(seed)
        comp = [seed]
        for i, j in comp:  # comp grows while it is read: a breadth-first search
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in unseen:
                    unseen.remove(nb)
                    comp.append(nb)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _chain(component, levels=()) -> tuple[Cell, ...]:
    """max_diag's chain of `component` (sorted row-major) or, with the sorted
    `levels` taken, minimizing_diag's; their docstrings give the rule."""
    rows = [(i, [j for _, j in cells]) for i, cells in groupby(component, key=itemgetter(0))]
    lo = min(cols[0] for _, cols in rows)
    width = max(cols[-1] for _, cols in rows) - lo + 1
    before = [0] * width  # before[x]: the longest chain ending in a swept row west of column lo + x
    east = []  # the longest chain ending at each row's east end, which is the row's longest
    for _, cols in rows:
        ending = [before[j - lo] + 1 for j in cols]
        east.append(ending[-1])
        for j, n in zip(reversed(cols), reversed(ending)):
            x = j - lo + 1
            while x < width and before[x] < n:
                before[x] = n
                x += 1
    top = max(east)
    score = {k: bisect_right(levels, i + cols[-1] + 1) for k, (i, cols) in enumerate(rows) if east[k] == top}
    least = min(score.values())
    # after[x]: the longest chain to a least-scored row from a swept row at column lo + x or east
    after = [0] * (width + 1)
    lengths: list = [None] * len(rows)
    for k in range(len(rows) - 1, -1, -1):
        end, cols = int(score.get(k) == least), rows[k][1]
        lengths[k] = [after[j - lo + 1] + 1 if after[j - lo + 1] else end for j in cols]
        for j, n in zip(cols, lengths[k]):
            x = j - lo
            while x >= 0 and after[x] < n:
                after[x] = n
                x -= 1
    picked, start, west = [], 0, lo - 1  # the columns taken; the next box is in rows[start:], east of west
    for need in range(top, 0, -1):
        best = (0, width + lo)
        for k in range(start, len(rows)):
            cols = rows[k][1]
            x = bisect_right(cols, west)
            if x < len(cols) and cols[x] < best[1] and lengths[k][x] == need:
                best = (k, cols[x])
                if cols[x] == west + 1:  # no row further south has a smaller column
                    break
        start, west = best[0] + 1, best[1]
        picked.append(west)
    chain: list[Cell] = []
    k = len(rows)
    for j in reversed(picked):
        k -= 1
        while j not in rows[k][1] or not (chain or score.get(k) == least):
            k -= 1
        chain.append((rows[k][0], j))
    return tuple(reversed(chain))


def max_diag(component: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """The westmost-then-southmost diagonal of maximal length: of the
    longest chains strictly increasing in row and column, the one with the
    smallest column tuple and then the largest row tuple.

    Found without listing chains (a k x 2k block has C(2k, k)), row by
    row.  A pass from the north keeps `before`, the longest chain ending in
    a swept row west of each column; a pass from the south keeps `after`,
    the longest chain from a swept row at each column or east of it.  Four
    monotonicity facts let each step stop early:
    (1) `before` never decreases eastward and (2) `after` never increases
    eastward, so a cell's update stops at the first entry already at its
    length;
    (3) along a row, the longest chain ending at a cell never decreases
    eastward (its predecessor is northwest of every cell east of it too),
    so a row's east end holds the row's longest;
    (4) along a row, the longest chain from a cell never increases eastward
    (the same argument mirrored), so the walk bisects each row to the first
    column past the last box and reads one length there, and a row whose
    first column there is next to the last box's ends the step.
    The walk takes, for each length from the longest down to 1, the least
    (column, row) cell of that length strictly southeast of the last box:
    the smallest column that still starts a chain of the needed length, and
    in it the smallest row, whose continuations include those of every row
    south of it.  With the columns fixed, each box moves south, last to
    first, to the largest row of its column north of the next box: the
    pointwise, so lexicographic, maximum of the row tuple.  On a component
    sorted row-major, as components returns it, with c cells in r rows
    spanning s columns and longest chain t: O(c + s*t) for the passes (an
    entry rises at most t times), O(t*r*log s) for the walk, O(c) for the
    lift.

    >>> max_diag(((1, 1), (2, 1), (3, 2)))
    ((2, 1), (3, 2))
    """
    return _chain(component)


def _minimizing_diag(comps) -> tuple[tuple[Cell, ...], ...]:
    chains = []
    levels: list[int] = []  # the levels taken so far, sorted, repeats kept
    for comp in reversed(comps):
        chain = comp if len(comp) == 1 else _chain(comp, levels)
        chains.append(chain)
        for i, j in chain:
            insort(levels, i + j)
    return tuple(reversed(chains))


def minimizing_diag(diagram: PlusDiagram) -> tuple[tuple[Cell, ...], ...]:
    """Per-component diagonals, chosen from the last component backwards so
    that each minimizes the overlap of the anti-diagonal levels below its
    eastmost endpoint with the levels already taken by later components;
    ties go to the westmost-then-southmost chain.  The overlap depends only
    on the row of the chain's last box, through that row's east end, so
    the pass from the north finds the rows where a longest chain ends (by
    max_diag's fact (3), those whose east end does), each is scored once,
    and the pass from the south and max_diag's walk run on the chains
    ending in a least-scored row.  Lengths to a set of whole rows keep
    max_diag's four facts, so every early stop holds; with no levels every
    such row scores 0, and the chain is max_diag's.  A row's score counts
    the levels up to its reach i + c' + 1, (i, c') its east end, so the
    least-scored rows are those with no level taken between the least
    reach and theirs: a level taken twice changes no choice, and the
    levels are one sorted list that gains each chain's levels by
    bisection, repeats kept.  A one-cell component is its own chain.  Per
    component of c cells in r rows spanning s columns with longest chain
    t, and L levels taken: O(c + s*t + t*r*log s) as for max_diag,
    O(log L) per scored row and O(t*L) at worst to insert the chain's
    levels.
    """
    return _minimizing_diag(components(diagram))


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

    The record holds both lengths, so none is recomputed: compress(v) maps
    the cells of D(v) one to one onto the region, so |region| = #D(v) =
    length(v); d_top's scan takes a letter exactly when the remainder's
    length drops by one, and it ends at the identity, so |d_top| =
    length(w).  The pair is validated once, inside d_top; nothing after it
    checks v or w again."""
    top = d_top(v, w)
    region = top.region
    comps = components(top)
    chains = _minimizing_diag(comps)

    pluses = set(top.pluses)
    for comp, chain in zip(comps, chains):
        # b slides when weakly southwest of a chain box and not one.  The chain rises
        # in row and column, so its last box in rows <= b(1) is the eastmost of them.
        rows = [d[0] for d in chain]
        sources = []
        for b in comp:
            t = bisect_right(rows, b[0])
            if t and chain[t - 1][1] >= b[1] and chain[t - 1] != b:
                sources.append(b)
        sources.sort(key=lambda b: (b[1], -b[0]))  # left to right, bottom to top
        for b in sources:
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
