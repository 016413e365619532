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

from .errors import InternalError, ValidationError
from .perm import Cell, Permutation, _free_values, identity, is_321_avoiding


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


def compress(v: Permutation) -> tuple[SkewRegion, CellMaps]:
    """Delete empty rows and columns of D(v), shifting up and left.

    Raises ValidationError unless v is 321-avoiding, which is exactly the
    case in which the compressed diagram is a valid skew region.  Rows stay
    contiguous: if row i has cells in columns j1 < j3 but not in a nonempty
    column j2 between them, then v^-1(j2) < i, some row k < v^-1(j2) has
    v(k) > j2, and k < v^-1(j2) < v^-1(j1) is a 321.  The region and the
    nonempty rows and columns of D(v) come from _ne_scan with w = id, in
    O(n log n); the cell maps add O(ell(v)).
    """
    rows, _, _, lines, cols = _ne_scan(v, identity(v.n))
    region = SkewRegion(tuple(rows))
    forward = {(lines[r - 1], cols[c - 1]): (r, c) for r, c in region.cells()}
    backward = {img: src for src, img in forward.items()}
    return region, CellMaps(forward, backward)


def _ne_scan(v: Permutation, w: Permutation) -> tuple[list[tuple[int, int]], list[Cell], list, list[int], list[int]]:
    """compress(v)'s row intervals, d_top's pluses and their runs, and the
    nonempty rows and columns of D(v), lines[r - 1] and cols[c - 1] for
    compressed row r and column c: d_top's one scan and klreg's one pair
    check (sizes, v then w 321-avoiding, then w <= v).  The runs (r, a, e),
    maximal sets a..e of adjacent plus columns in row r, come row-major;
    a row's close east to west, each inserted at the row's first slot."""
    if v.n != w.n:
        raise ValidationError("size mismatch")
    for u in (v, w):
        if not is_321_avoiding(u):
            raise ValidationError(f"{u.word} is not 321-avoiding")
    zinv = [0] * (v.n + 1)  # z^-1 as a 1-indexed word (entry 0 unused); z = w at the start
    for p, x in enumerate(w.word, 1):
        zinv[x] = p
    rows, pluses, runs, lines, cols = [], [], [], [], []
    top = 0  # running maximum
    for i, (x, (k, free)) in enumerate(zip(v.word, _free_values(v.word)), 1):
        if k:
            if cols and cols[-1] > free[0]:
                raise InternalError(f"compressed row {len(rows) + 1} is not contiguous")
            rows.append((first := len(cols) + 1, len(cols) + k))
            lines.append(i)  # v(i) is above a later value
            r, slot = len(rows), len(runs)
            lo = hi = 0  # the run being read, lo..hi; hi = 0 before the row's first plus
            for a in range(i + k - 1, i - 1, -1):  # right to left; column free[a - i] has label a
                if zinv[a] > zinv[a + 1]:  # a + 1 precedes a in z: a left descent
                    zinv[a], zinv[a + 1] = zinv[a + 1], zinv[a]
                    c = a - i + first
                    pluses.append((r, c))
                    if c + 1 != lo:  # a gap east of c closes the run lo..hi
                        if hi:
                            runs.insert(slot, (r, lo, hi))
                        hi = c
                    lo = c
            if hi:
                runs.insert(slot, (r, lo, hi))
        if x > top:
            top = x
        else:  # x is below an earlier value; these increase, as a 321 would end in two
            cols.append(x)
    if zinv != list(range(v.n + 1)):
        raise ValidationError(f"{w.word} is not below {v.word} in Bruhat order")
    return rows, pluses, runs, lines, cols


@lru_cache(maxsize=1)
def _top(v: Permutation, w: Permutation) -> tuple[PlusDiagram, tuple[tuple[int, int, int], ...]]:
    """d_top's memo: the diagram and its plus runs from one _ne_scan."""
    rows, pluses, runs, _, _ = _ne_scan(v, w)
    return PlusDiagram(SkewRegion(tuple(rows)), frozenset(pluses)), tuple(runs)


def d_top(v: Permutation, w: Permutation) -> PlusDiagram:
    """Compressed image of the northeast-most reduced pipe set on
    compress(v)'s region: every route's front end and its pair check.

    _ne_scan builds it in one free-values pass over v after the size and
    pattern checks: O(n log n) plus n list deletes and O(1) per letter.
    Row i's k cells free[:k] fill compressed columns first..first+k-1,
    first = 1 + the earlier values below the running maximum (the nonempty
    columns passed; they increase, and one above free[0] would need a 321,
    an InternalError).  Right to left, column free[t] has label a = i + t,
    taken exactly when it is a left descent of z = u^-1*w (u the product of
    the letters taken, z^-1 a plain list); its plus goes to (r, first + t).

    The end test is the Bruhat test: w <= v exactly when z is the identity
    after the last letter, else ValidationError.  If it is, each taken
    letter lowered length(z) by one, so the letters taken spell a reduced
    word of w inside the reading word of D(v), a reduced word of v, and
    w <= v by the subword property (Bjorner-Brenti, Thm 2.2.2).  Conversely,
    if w <= v = Dem(the whole word), the scan keeps z <= Dem(unread suffix):
    with a the next letter, s = Dem(a, rest) and s' = Dem(rest), either
    s = s', so z <= s' (and s_a*z < z when a is taken), or s = s_a*s' > s',
    and the lifting property (Bjorner-Brenti, Prop. 2.2.7) gives z <= s'
    when a is not a descent of z and s_a*z <= s' when it is (apply it to
    s_a*z < s).  At the end the suffix is empty, so z is the identity.

    Run lemma: each edge-connected component of d_top is a skew shape, one
    run (maximal set of adjacent plus columns in a row) per row in
    consecutive rows, starts and ends weakly increasing southward.
    (F1) Where rows r and r+1 share column c, label(r+1, c) = label(r, c)
    + 1.  (r, c) in v's row i has label i + c - first, so the offset is
    (i' - i) - (first' - first): the left-to-right maxima of v in rows
    i..i'-1.  v(i) is one (else a larger earlier value, v(i) and the value
    under (r, c) make a 321); one in an empty row p between has every
    smaller value before p, which puts row r+1 east of row r.
    (F2) The taken letters spell a reduced word of w in reading order.
    (*) Pluses at (r, c) and (r+1, c-1) force pluses at (r, c-1) and
    (r+1, c).  Both rows hold c-1 and c (the region is skew), so by F1
    both pluses are s_a, a = label(r, c), and the cells read between them
    (row r west of c, row r+1 east of c-1) carry no s_a, one s_{a-1}, at
    (r, c-1), and one s_{a+1}, at (r+1, c).  321-avoiding w is fully
    commutative (Billey, Jockusch and Stanley, J. Algebraic Combin. 1993),
    so two consecutive copies of s_a in F2's word have at least two letters
    of {s_{a-1}, s_{a+1}} between them (Stembridge, J. Algebraic Combin.
    1996): both cells are taken.
    Runs of rows r and r+1 meet when they share a column; for each claim,
    (*) at the two pluses named would make a plus just outside a run:
      - no run meets two runs a1..e1, a2..e2 above: (r, a2), (r+1, a2-1);
      - no run meets two runs a1..e1, a2..e2 below: (r, e1+1), (r+1, e1);
      - a run a'..e' under a..e has a' >= a: else (r, a), (r+1, a-1);
      - and e' >= e: else (r, e'+1), (r+1, e').
    By the first two a component's runs form a path, one per row.  Tests
    check F1, (*) and the shape on S_1..S_7, CI the shape on S_8.

    The scan also lists the plus runs, O(1) each, for zip_result.  The one
    memo, _top, hands diagram and runs from their first reader to the
    others on the pair: 1 hit of 2 lookups in `klreg ladder` (perm_of,
    zip_result), 2 of 3 in `klreg pair --oracle --recurrence` and each
    `sweep` sample (zip_result, the closure oracle, the recurrence).
    Uncached, d_top takes 3.2 ms on bench's 105 seed-7 certify sweep ops,
    the three routes 19.0 ms with it warm (17%; 2-core Xeon, Py 3.11)."""
    return _top(v, w)[0]


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
