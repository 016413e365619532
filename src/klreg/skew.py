"""Compression of Rothe diagrams of 321-avoiding permutations to skew
regions, plus-diagrams, and the excited move engine.

Skew regions are drawn in a convention that reflects English notation
across the vertical axis, so row starts and row ends both weakly increase
going down.  Excited moves translate a plus one step along the (+1, -1)
anti-diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import InternalError, ValidationError
from .perm import Cell, Permutation, _free_values, is_321_avoiding
from .pipes import d_ne


@dataclass(frozen=True)
class SkewRegion:
    """Contiguous column interval [start_i, end_i] per row, 1-indexed.  Hot
    loops test membership on `cellset`, sparing `in region` a method call."""

    rows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        rows = tuple((a, b) for a, b in self.rows)
        object.__setattr__(self, "rows", rows)
        for a, b in rows:
            if type(a) is not int or type(b) is not int:  # bool is not an end
                raise ValidationError(f"row interval ends must be integers: [{a!r}, {b!r}]")
            if not 1 <= a <= b:
                raise ValidationError(f"bad row interval [{a}, {b}]")
        for (a1, b1), (a2, b2) in zip(rows, rows[1:]):
            if a2 < a1 or b2 < b1:
                raise ValidationError("row starts/ends must weakly increase")
        cells = tuple((i, j) for i, (a, b) in enumerate(rows, 1) for j in range(a, b + 1))  # row-major, so sorted
        object.__setattr__(self, "_ordered", cells)
        object.__setattr__(self, "cellset", frozenset(cells))

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cellset

    def cells(self) -> tuple[Cell, ...]:
        return self._ordered

    def size(self) -> int:
        return len(self.cellset)


@dataclass(frozen=True)
class PlusDiagram:
    """A skew region together with a set of marked cells."""

    region: SkewRegion
    pluses: frozenset

    def __post_init__(self):
        pluses = frozenset(self.pluses)
        object.__setattr__(self, "pluses", pluses)
        bad = pluses - self.region.cellset
        if bad:
            raise ValidationError(f"pluses outside region: {sorted(bad)}")

    def size(self) -> int:
        return len(self.pluses)


@dataclass
class CellMaps:
    """The compression bijection between Rothe-diagram cells and region cells."""

    forward: dict
    backward: dict

    def image(self, cells) -> frozenset:
        return frozenset(self.forward[c] for c in cells)


def _compression(word: tuple[int, ...]) -> tuple[SkewRegion, list, dict, dict]:
    """compress's region, the nonempty rows of D(v) as (i, columns), and the
    row and column maps, for a 321-avoiding word v.  Column j of D(v) is
    nonempty exactly when j lies below an earlier value of v, so one
    free-values pass gives it all: O(n log n), the rows being list slices.
    A 321 would end in two of them, so in v they already increase."""
    rows = [(i, free[:k]) for i, (k, free) in enumerate(_free_values(word), 1) if k]
    rmap = {i: r for r, (i, _) in enumerate(rows, 1)}
    nonempty = [x for x, top in zip(word, accumulate(word, max)) if x < top]
    cmap = {c: k for k, c in enumerate(nonempty, 1)}
    intervals = []
    for r, (_, cols) in enumerate(rows, 1):
        first, last = cmap[cols[0]], cmap[cols[-1]]
        if last - first + 1 != len(cols):
            raise InternalError(f"compressed row {r} is not contiguous")
        intervals.append((first, last))
    return SkewRegion(tuple(intervals)), rows, rmap, cmap


def compress(v: Permutation) -> tuple[SkewRegion, CellMaps]:
    """Delete empty rows and columns of D(v), shifting up and left.

    Raises ValidationError unless v is 321-avoiding, which is exactly the
    case in which the compressed diagram is a valid skew region.  Rows stay
    contiguous: if row i has cells in columns j1 < j3 but not in a nonempty
    column j2 between them, then v^-1(j2) < i, some row k < v^-1(j2) has
    v(k) > j2, and k < v^-1(j2) < v^-1(j1) is a 321.  The region and the
    row and column maps come from _compression's one free-values pass,
    O(n log n); the cell maps add O(ell(v)).
    """
    if not is_321_avoiding(v):
        raise ValidationError(f"{v.word} is not 321-avoiding")
    region, rows, rmap, cmap = _compression(v.word)
    forward = {(i, j): (rmap[i], cmap[j]) for i, cols in rows for j in cols}
    backward = {img: src for src, img in forward.items()}
    return region, CellMaps(forward, backward)


@lru_cache(maxsize=1)
def d_top(v: Permutation, w: Permutation) -> PlusDiagram:
    """Compressed image of the northeast-most reduced pipe set, on
    compress(v)'s region, shared by the zip route and the closure oracle.
    d_ne checks the pair, v included, and _compression's row and column
    maps place the ell(w) pluses, with no ell(v)-sized cell maps.  Every
    repeat lookup is the oracle certifying the pair that zip_result has
    just built: 1 of 2 lookups in `klreg pair --oracle`, 50 of 100 in a
    50-sample `klreg sweep`.  One entry serves them all and spares a second
    d_ne, which is worth it: on the 105 seed-7 sweep ops of bench's certify
    workload an uncached d_top takes 6.8 ms, the three degree routes 51.3 ms
    (13%; Python 3.11, 2-core Xeon VM).  A larger memo would only keep old
    pairs' data alive."""
    pipe_set = d_ne(v, w)
    region, _, rmap, cmap = _compression(v.word)
    return PlusDiagram(region, frozenset((rmap[i], cmap[j]) for i, j in pipe_set))


def can_move(region: SkewRegion, pluses, b: Cell) -> bool:
    """The excited-move kernel: can a plus at b slide to b+(1,-1)?  The
    target and its east and north neighbours b+(1,0), b+(0,-1) must lie in
    the region and be plus-free.

    >>> can_move(SkewRegion(((1, 2), (1, 2))), {(1, 2)}, (1, 2))
    True
    """
    i, j = b
    t, s, w = (i + 1, j - 1), (i + 1, j), (i, j - 1)
    cells = region.cellset
    return t in cells and s in cells and w in cells and not (t in pluses or s in pluses or w in pluses)


def render_diagram(diagram: PlusDiagram, bold=()) -> str:
    """ASCII picture: '.' empty cell, '+' plus, 'K' cells from `bold`,
    ' ' outside the region."""
    bold = frozenset(bold)
    lines = []
    for i, (a, b) in enumerate(diagram.region.rows, 1):
        chars = []
        for j in range(1, b + 1):
            if j < a:
                chars.append(" ")
            elif (i, j) in bold:
                chars.append("K")
            elif (i, j) in diagram.pluses:
                chars.append("+")
            else:
                chars.append(".")
        lines.append("".join(chars).rstrip())
    return "\n".join(lines)
