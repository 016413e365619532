"""The slid diagram construction: connected components of the top diagram,
maximal and minimizing diagonals, the canonical slid diagram and its
K-saturation, and the degree / regularity / a-invariant formulas, together
with an independent degree recurrence.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .errors import DEFAULT_BUDGET, InternalError, ResourceError, ValidationError
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


def psi_east(component: tuple[Cell, ...], b: Cell) -> Cell:
    """(b(1), c') where c' is the largest column of the component in row b(1).
    The component is sorted row-major, as components returns it: O(log c)."""
    k = bisect_left(component, b)
    if component[k : k + 1] != (b,):
        raise ValidationError(f"{b} is not in the component")
    return component[bisect_left(component, (b[0] + 1,), k) - 1]


def _chain_lengths(cells, ends) -> dict[Cell, int]:
    """For each cell of `cells` (sorted row-major), the longest chain from it
    to a cell of `ends` (0 if none).  One sweep of the rows from the south;
    below[x] is the longest chain from a swept row at column lo + x or east."""
    lo = min(j for _, j in cells)
    below = [0] * (max(j for _, j in cells) - lo + 2)
    length = {}
    for _, row in groupby(reversed(cells), key=itemgetter(0)):
        row = list(row)  # east to west
        for c in row:
            longest = below[c[1] - lo + 1]
            length[c] = longest + 1 if longest else int(c in ends)
        for c in row:
            below[c[1] - lo] = max(below[c[1] - lo], length[c])
        for x in range(row[0][1] - lo - 1, -1, -1):
            below[x] = max(below[x], below[x + 1])
    return length


def _first_chain(cells, ends) -> tuple[Cell, ...]:
    """max_diag's walk over the maximal chains of `cells` that end in `ends`."""
    length = _chain_lengths(cells, ends)
    by_length: dict[int, list[Cell]] = {}
    col_rows: dict[int, list[int]] = {}
    for c in sorted(cells, key=itemgetter(1)):  # stable: column-major
        by_length.setdefault(length[c], []).append(c)
        col_rows.setdefault(c[1], []).append(c[0])
    cols = []
    last = (0, 0)
    for need in range(max(length.values()), 0, -1):
        last = next(c for c in by_length[need] if c[0] > last[0] and c[1] > last[1])
        cols.append(last[1])
    rows = [max(i for i in col_rows[cols[-1]] if (i, cols[-1]) in ends)]
    for j in reversed(cols[:-1]):
        rows.append(col_rows[j][bisect_left(col_rows[j], rows[-1]) - 1])
    return tuple(zip(reversed(rows), cols))


def max_diag(component: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """The westmost-then-southmost diagonal of maximal length: of the
    longest chains strictly increasing in row and column, the one with the
    smallest column tuple and then the largest row tuple.

    Found without listing chains (a k x 2k block has C(2k, k)).  A sweep
    of the rows from the south, with a running maximum per column, gives
    the longest chain from each cell.  Each step then takes the smallest
    column that still starts a chain of the needed length, and in it the
    smallest such row, whose continuations include those of every row
    south of it.  With the columns fixed, each box moves south, last to
    first, to the largest row of its column north of the next box: the
    pointwise, so lexicographic, maximum of the row tuple.  On a component
    sorted row-major, as components returns it, with c cells in r rows
    spanning s columns: O(c + r*s) for the sweep, O(c log c) for the walk.

    >>> max_diag(((1, 1), (2, 1), (3, 2)))
    ((2, 1), (3, 2))
    """
    return _first_chain(component, frozenset(component))


def _minimizing_diag(comps) -> tuple[tuple[Cell, ...], ...]:
    chains = []
    levels: list[int] = []  # the distinct levels taken so far, sorted
    for comp in reversed(comps):
        if len(comp) == 1:
            chain = comp
        else:
            mirrored = [(-i, -j) for i, j in reversed(comp)]  # row-major again
            ending = _chain_lengths(mirrored, frozenset(mirrored))  # longest chain ending at each cell
            top = max(ending.values())
            score = {}  # badness of each row in which a maximal chain ends
            for (i, j), n in ending.items():
                if n == top and -i not in score:
                    last = psi_east(comp, (-i, -j))
                    score[-i] = bisect_right(levels, last[0] + last[1] + 1)
            least = min(score.values())
            chain = _first_chain(comp, frozenset(c for c in comp if score.get(c[0]) == least))
        chains.append(chain)
        levels = sorted(set(levels).union(i + j for i, j in chain))
    return tuple(reversed(chains))


def minimizing_diag(diagram: PlusDiagram) -> tuple[tuple[Cell, ...], ...]:
    """Per-component diagonals, chosen from the last component backwards so
    that each minimizes the overlap of the anti-diagonal levels below its
    eastmost endpoint with the levels already taken by later components;
    ties go to the westmost-then-southmost chain.  The overlap depends only
    on the row of the chain's last box (through psi_east), so a
    longest-chain sweep from the southeast finds the rows where a maximal
    chain ends, each is scored once, and the max_diag walk runs on the
    chains ending in a least-scored row; a one-cell component is its own
    chain.  Per component of c cells in r rows spanning s columns, with L
    levels taken: O(c log c + r*s) for the sweep and the walk, O(log c +
    log L) per scored row (bisections), O(L log L) to add the chain's levels.
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
