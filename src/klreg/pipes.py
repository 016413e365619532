"""Box labelings of Rothe diagrams, reading words, Demazure products of
sub-diagrams, and the northeast-most reduced pipe set."""

from __future__ import annotations

from typing import Iterable

from .errors import ContainmentError, IncomparableError, PatternError, StructureError
from .perm import (
    Cell,
    Permutation,
    bruhat_leq,
    coxeter_length,
    demazure_product,
    is_321_avoiding,
    rothe_diagram,
)


def box_labels(v: Permutation) -> dict[Cell, int]:
    """Label the kth leftmost box in row i of the Rothe diagram with i + k - 1."""
    labels: dict[Cell, int] = {}
    row = 0
    k = 0
    for (i, j) in rothe_diagram(v):
        if i != row:
            row, k = i, 0
        k += 1
        labels[(i, j)] = i + k - 1
    return labels


def reading_order(v: Permutation) -> tuple[Cell, ...]:
    """Rothe-diagram cells scanned right to left along rows, top to bottom."""
    return tuple(sorted(rothe_diagram(v), key=lambda c: (c[0], -c[1])))


def reading_word(v: Permutation, cells: Iterable[Cell]) -> tuple[int, ...]:
    """Labels of the given sub-diagram, in the reading order of D(v).

    >>> from .perm import Permutation
    >>> reading_word(Permutation((3, 1, 2)), [(1, 1), (1, 2)])
    (2, 1)
    """
    cellset = frozenset(cells)
    labels = box_labels(v)
    if not cellset <= set(labels):
        raise ContainmentError(f"cells {sorted(cellset - set(labels))} are not in D(v)")
    return tuple(labels[c] for c in reading_order(v) if c in cellset)


def delta(v: Permutation, cells: Iterable[Cell]) -> Permutation:
    """Demazure product of the reading word of the sub-diagram."""
    return demazure_product(reading_word(v, cells), v.n)


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

    Building the Rothe diagram, its labels and the input checks costs
    O(n^2) and sorting the reading order O(ell(v) log ell(v)); then each
    letter costs O(1).

    >>> from .perm import Permutation
    >>> d_ne(Permutation((2, 4, 1, 3)), Permutation((1, 3, 2, 4)))
    ((2, 1),)
    """
    if v.n != w.n:
        raise IncomparableError("size mismatch")
    for u in (v, w):
        if not is_321_avoiding(u):
            raise PatternError(f"{u.word} is not 321-avoiding")
    if not bruhat_leq(w, v):
        raise IncomparableError(f"{w.word} is not below {v.word} in Bruhat order")

    labels = box_labels(v)
    zinv = [0, *w.inverse().word]  # z^-1 as a 1-indexed word (entry 0 unused)
    zlen = coxeter_length(w)
    chosen: list[Cell] = []
    for cell in reading_order(v):
        if zlen == 0:
            break
        a = labels[cell]
        if zinv[a] > zinv[a + 1]:  # a + 1 precedes a in z: a left descent
            zinv[a], zinv[a + 1] = zinv[a + 1], zinv[a]
            zlen -= 1
            chosen.append(cell)
    if zlen != 0:
        raise StructureError("greedy subword search failed to reach w")
    return tuple(chosen)
