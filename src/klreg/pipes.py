"""Reading words of Rothe diagrams and the northeast-most reduced pipe set."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import InternalError, ValidationError
from .perm import (
    Cell,
    Permutation,
    _free_values,
    check_pair,
    coxeter_length,
)


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
    """The northeast-most reduced pipe set for (v, w) as a subset of D(v).

    Greedy scan of the reading order with remainder z = u^-1 w, u the
    product of the letters taken so far: a letter a is taken exactly when
    it is a left descent of z (s_a*z < z), and then z becomes s_a*z.
    Returns the cells in reading order; their index set is the
    lexicographically earliest one whose reading word is a reduced word
    for w.

    Any other letter would lengthen z, and every left descent can be taken
    with no Bruhat test, because the scan keeps the invariant
    z <= Dem(unread suffix) in Bruhat order, which says the suffix still
    holds a reduced word for z.  It holds at the start, as w <= v = Dem(the
    whole word).  Let a be the next letter, s = Dem(a, rest) and
    s' = Dem(rest).  If s = s', then z <= s' and, when a is taken,
    s_a*z < z <= s'.  Otherwise s = s_a*s' > s', and the lifting property
    (Bjorner-Brenti, Prop. 2.2.7) gives z <= s' when a is not a descent of
    z, and s_a*z <= s' when it is (apply it to s_a*z < s).  At the end the
    suffix is empty, so z is the identity.

    The input checks cost O(n^2) in the worst case (the Bruhat test), and
    the scan walks the (cell, label) pairs of one free-values pass over v,
    O(n log n) plus O(1) per letter, stopping once z is the identity.

    >>> from .perm import Permutation
    >>> d_ne(Permutation((2, 4, 1, 3)), Permutation((1, 3, 2, 4)))
    ((2, 1),)
    """
    check_pair(v, w)

    zinv = [0, *w.inverse().word]  # z^-1 as a 1-indexed word (entry 0 unused)
    zlen = coxeter_length(w)
    chosen: list[Cell] = []
    for cell, a in _reading_cells(v):
        if zlen == 0:
            break
        if zinv[a] > zinv[a + 1]:  # a + 1 precedes a in z: a left descent
            zinv[a], zinv[a + 1] = zinv[a + 1], zinv[a]
            zlen -= 1
            chosen.append(cell)
    if zlen != 0:
        raise InternalError("greedy subword search failed to reach w")
    return tuple(chosen)
