"""Reading words of Rothe diagrams and the northeast-most reduced pipe set."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import ValidationError
from .perm import Cell, Permutation, _free_values
from .skew import _ne_scan


def _reading_cells(v: Permutation) -> Iterator[tuple[Cell, int]]:
    """(cell, label) in the reading order of D(v): each row of one
    free-values pass read right to left, so no sort is needed.  The kth
    leftmost box in row i is labelled i + k - 1."""
    for i, (k, free) in enumerate(_free_values(v.word), 1):
        for t in range(k - 1, -1, -1):
            yield (i, free[t]), i + t


def reading_word(v: Permutation, cells: Iterable[Cell]) -> tuple[int, ...]:
    """Labels of the given sub-diagram, in the reading order of D(v).

    >>> from .perm import Permutation
    >>> reading_word(Permutation((3, 1, 2)), [(1, 1), (1, 2)])
    (2, 1)
    """
    cellset = frozenset(cells)
    read = tuple(_reading_cells(v))
    outside = cellset.difference(c for c, _ in read)
    if outside:
        raise ValidationError(f"cells {sorted(outside)} are not in D(v)")
    return tuple(a for c, a in read if c in cellset)


def d_ne(v: Permutation, w: Permutation) -> tuple[Cell, ...]:
    """The northeast-most reduced pipe set for (v, w) as a subset of D(v),
    in reading order: the lexicographically earliest index set whose
    reading word is a reduced word for w.  A view of d_top's one scan
    (skew._ne_scan, proved in d_top's docstring), its pluses mapped back
    from the region to D(v); d_top's memo is left alone.  Raises
    ValidationError unless w <= v are 321-avoiding of one size.

    >>> from .perm import Permutation
    >>> d_ne(Permutation((2, 4, 1, 3)), Permutation((1, 3, 2, 4)))
    ((2, 1),)
    """
    _, pluses, _, rows, cols = _ne_scan(v, w)
    return tuple((rows[r - 1], cols[c - 1]) for r, c in pluses)
