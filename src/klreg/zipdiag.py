"""The slid diagram construction: connected components of the top diagram,
maximal and minimizing diagonals, the canonical slid diagram and its
K-saturation, and the degree / regularity / a-invariant formulas, together
with an independent degree recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import IncomparableError, StructureError
from .perm import (
    Cell,
    Permutation,
    bruhat_leq,
    coxeter_length,
    left_mult_s,
)
from .pipes import box_labels, d_ne
from .skew import CellMaps, PlusDiagram, SkewRegion, apply_k_excited, can_move, compress


def components(diagram: PlusDiagram) -> tuple[tuple[Cell, ...], ...]:
    """Edge-connected components of the plus set, ordered northwest to
    southeast by their lexicographically minimal cell.

    Two pluses sharing only a corner fall in different components.  The
    lexicographic key is a total order, so no tie-breaking is needed; rare
    interlocking layouts (one component nested in another's northeast
    notch) are ordered by it as well.
    """
    pluses = set(diagram.pluses)
    comps = []
    while pluses:
        seed = min(pluses)
        comp = {seed}
        frontier = [seed]
        while frontier:
            i, j = frontier.pop()
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in pluses and nb not in comp:
                    comp.add(nb)
                    frontier.append(nb)
        pluses -= comp
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda cells: min(cells))
    return tuple(comps)


def psi_east(component: tuple[Cell, ...], b: Cell) -> Cell:
    """(b(1), c') where c' is the largest column of the component in row b(1)."""
    if b not in component:
        raise StructureError(f"{b} is not in the component")
    return (b[0], max(j for i, j in component if i == b[0]))


def _maximal_chains(component: tuple[Cell, ...]) -> list[tuple[Cell, ...]]:
    """All chains of maximal length, strictly increasing in row and column."""
    cells = sorted(component)
    best = {}  # longest chain starting at each cell

    for c in reversed(cells):
        best[c] = 1 + max(
            (best[d] for d in cells if d[0] > c[0] and d[1] > c[1]), default=0
        )
    top = max(best.values())
    chains: list[tuple[Cell, ...]] = []

    def grow(chain: list[Cell], need: int):
        if need == 0:
            chains.append(tuple(chain))
            return
        last = chain[-1] if chain else (0, 0)
        for c in cells:
            if c[0] > last[0] and c[1] > last[1] and best[c] >= need:
                chain.append(c)
                grow(chain, need - 1)
                chain.pop()

    grow([], top)
    return chains


def _chain_key(chain: tuple[Cell, ...]):
    """Westmost then southmost: minimal column tuple, ties broken by
    maximal row tuple."""
    cols = tuple(j for _, j in chain)
    rows = tuple(-i for i, _ in chain)
    return (cols, rows)


def max_diag(component: tuple[Cell, ...]) -> tuple[Cell, ...]:
    """The westmost-then-southmost diagonal of maximal length."""
    return min(_maximal_chains(component), key=_chain_key)


def minimizing_diag(diagram: PlusDiagram) -> tuple[tuple[Cell, ...], ...]:
    """Per-component diagonals, chosen from the last component backwards so
    that each minimizes the overlap of the anti-diagonal levels below its
    eastmost endpoint with the levels already taken by later components."""
    comps = components(diagram)
    chains: dict[int, tuple[Cell, ...]] = {}
    taken_levels: set[int] = set()
    for q in range(len(comps) - 1, -1, -1):
        comp = comps[q]

        def badness(chain):
            last = psi_east(comp, chain[-1])
            reach = last[0] + last[1] + 1
            return sum(1 for lev in taken_levels if lev <= reach)

        chains[q] = min(_maximal_chains(comp), key=lambda ch: (badness(ch), _chain_key(ch)))
        taken_levels.update(i + j for i, j in chains[q])
    return tuple(chains[q] for q in range(len(comps)))


@dataclass
class ZipData:
    region: SkewRegion
    maps: CellMaps
    top: PlusDiagram
    chains: tuple[tuple[Cell, ...], ...]
    zipped: PlusDiagram
    move_log: tuple[Cell, ...]  # positions from which a plus slid one step
    rooms: dict
    saturated: PlusDiagram


def _slide_all(region: SkewRegion, pluses: set, sources) -> list[Cell]:
    """Slide each source plus as far as possible; mutates pluses, returns
    the elementary move log."""
    log = []
    for cur in sources:
        while can_move(region, pluses, cur):
            log.append(cur)
            pluses.remove(cur)
            cur = (cur[0] + 1, cur[1] - 1)
            pluses.add(cur)
    return log


def _room_of(region: SkewRegion, zipped: frozenset, b: Cell) -> int:
    k = 0
    while can_move(region, zipped, (b[0] + k, b[1] - k)):
        k += 1
    return k


@lru_cache(maxsize=4096)
def _zip_data(v: Permutation, w: Permutation) -> ZipData:
    pipe_set = d_ne(v, w)  # validates the pair before compress does
    region, maps = compress(v)
    top_cells = maps.image(pipe_set)
    top = PlusDiagram(region, top_cells)
    chains = minimizing_diag(top) if top_cells else ()
    comps = components(top)

    pluses = set(top_cells)
    log: list[Cell] = []
    for comp, chain in zip(comps, chains):
        chainset = set(chain)
        sources = [
            b
            for b in comp
            if b not in chainset and any(b[0] >= d[0] and b[1] <= d[1] for d in chain)
        ]
        sources.sort(key=lambda b: (b[1], -b[0]))  # left to right, bottom to top
        log.extend(_slide_all(region, pluses, sources))
    zipped = PlusDiagram(region, frozenset(pluses))
    if zipped.size() != top.size():
        raise StructureError("slid diagram changed cardinality")

    rooms = {b: _room_of(region, zipped.pluses, b) for chain in chains for b in chain}
    extra = {
        (b[0] + k, b[1] - k) for b, r in rooms.items() for k in range(1, r + 1)
    }
    if extra & zipped.pluses:
        raise StructureError("K-saturation collided with the slid diagram")
    saturated = PlusDiagram(region, zipped.pluses | extra)
    return ZipData(region, maps, top, chains, zipped, tuple(log), rooms, saturated)


def d_zip(v: Permutation, w: Permutation) -> PlusDiagram:
    """The canonical slid diagram; has exactly length(w) pluses."""
    return _zip_data(v, w).zipped


def room(v: Permutation, w: Permutation, b: Cell) -> int:
    """How many anti-diagonal K-steps fit under the chain box b."""
    data = _zip_data(v, w)
    if b not in data.rooms:
        raise StructureError(f"{b} is not a chain box of the pair")
    return data.rooms[b]


def d_zip_k(v: Permutation, w: Permutation) -> PlusDiagram:
    """The slid diagram plus its full anti-diagonal K-saturation."""
    return _zip_data(v, w).saturated


def k_saturation_by_moves(v: Permutation, w: Permutation) -> PlusDiagram:
    """Independent construction of d_zip_k by literally applying a maximal
    run of K-theoretic excited moves below each chain box."""
    from .errors import MoveNotApplicableError

    data = _zip_data(v, w)
    diagram = data.zipped
    for chain in data.chains:
        for b in chain:
            cur = b
            while True:
                try:
                    diagram = apply_k_excited(diagram, cur)
                except MoveNotApplicableError:
                    break
                cur = (cur[0] + 1, cur[1] - 1)
    return diagram


def groth_degree(v: Permutation, w: Permutation) -> int:
    """Degree of the unspecialized Grothendieck polynomial of the pair."""
    return _zip_data(v, w).saturated.size()


def regularity(v: Permutation, w: Permutation) -> int:
    """Castelnuovo-Mumford regularity: degree minus length(w)."""
    return groth_degree(v, w) - coxeter_length(w)


def a_invariant(v: Permutation, w: Permutation) -> int:
    """a-invariant: degree minus length(v)."""
    return groth_degree(v, w) - coxeter_length(v)


def groth_degree_recursive(v: Permutation, w: Permutation) -> int:
    """The degree again, via the peel-off recurrence on the northeast box.

    z is the northmost-then-eastmost plus of the top diagram and z' the
    northmost-then-eastmost region box; if they differ the degree is
    unchanged after deleting z' from v, and otherwise it is 1 plus the
    larger of the two one-box-smaller branches.  Branches whose pair is not
    Bruhat-comparable contribute minus infinity.
    """
    if v.n != w.n:  # bruhat_leq would raise a different class
        raise IncomparableError("size mismatch")
    memo: dict = {}

    def rec(v: Permutation, w: Permutation):
        key = (v.word, w.word)
        if key in memo:
            return memo[key]
        if not bruhat_leq(w, v):
            res = None
        elif coxeter_length(w) == 0:
            res = 0
        else:
            region, maps = compress(v)
            top = maps.image(d_ne(v, w))
            z = min(top, key=lambda c: (c[0], -c[1]))
            zp = (1, region.rows[0][1])
            labels = box_labels(v)
            ip = labels[maps.backward[zp]]
            v_next = left_mult_s(v, ip)
            if z != zp:
                res = rec(v_next, w)
            else:
                w_peeled = left_mult_s(w, ip)
                if coxeter_length(w_peeled) != coxeter_length(w) - 1:
                    raise StructureError("peeled letter did not shorten w")
                branches = [rec(v_next, w_peeled), rec(v_next, w)]
                best = max((x for x in branches if x is not None), default=None)
                res = None if best is None else 1 + best
        memo[key] = res
        return res

    out = rec(v, w)
    if out is None:
        raise IncomparableError(f"{w.word} is not below {v.word} in Bruhat order")
    return out


@dataclass
class ZipResult:
    """Everything the headline formulas produce for one pair."""

    d_zip: PlusDiagram
    d_zip_k: PlusDiagram
    chains: tuple[tuple[Cell, ...], ...]
    rooms: dict
    degree: int
    regularity: int
    a_invariant: int
    d_top: PlusDiagram
    region: SkewRegion


def zip_result(v: Permutation, w: Permutation) -> ZipResult:
    data = _zip_data(v, w)
    deg = data.saturated.size()
    return ZipResult(
        d_zip=data.zipped,
        d_zip_k=data.saturated,
        chains=data.chains,
        rooms=dict(data.rooms),
        degree=deg,
        regularity=deg - coxeter_length(w),
        a_invariant=deg - coxeter_length(v),
        d_top=data.top,
        region=data.region,
    )
