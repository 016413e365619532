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
    rank_matrix,
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

    Greedy scan of the reading order: a letter a is accepted at remainder
    z = u^-1 w (u the product of the accepted letters) exactly when s_a*z is
    shorter, so u*s_a is longer and on a geodesic to w, and the unread
    suffix can still complete a reduced word for s_a*z: s_a*z <= s in
    Bruhat order, s the Demazure product of the unread suffix.  Returns the
    cells in reading order; their index set is the lexicographically
    earliest one whose reading word is a reduced word for w.

    The Bruhat test reads a gap table G = r_z - r_s of rank tables, with
    the number of its negative cells (z <= s iff there are none).  s_a
    swaps the values a and a+1, so it changes column a of a rank table, and
    only over the rows between the positions of those values: accepting a
    raises column a of r_z, and reading past a letter that lengthened the
    suffix product raises column a of r_s.  G is built once, every letter
    costs O(n), and the whole scan O(n^2 + n*ell(v)).
    """
    if v.n != w.n:
        raise IncomparableError("size mismatch")
    for u in (v, w):
        if not is_321_avoiding(u):
            raise PatternError(f"{u.word} is not 321-avoiding")
    if not bruhat_leq(w, v):
        raise IncomparableError(f"{w.word} is not below {v.word} in Bruhat order")

    order = reading_order(v)
    labels = box_labels(v)
    letters = [labels[c] for c in order]

    # Inverse one-line words, 1-indexed (entry 0 unused): sinv of the suffix
    # product, built right to left; grew[k] says letter k lengthened it.
    sinv = list(range(v.n + 1))
    grew = [False] * len(letters)
    for k in range(len(letters) - 1, -1, -1):
        a = letters[k]
        if sinv[a] < sinv[a + 1]:
            sinv[a], sinv[a + 1] = sinv[a + 1], sinv[a]
            grew[k] = True
    s = Permutation(tuple(sinv[1:])).inverse()
    zinv = [0, *w.inverse().word]
    # G[j][i] = r_z(i, j) - r_s(i, j), stored by column.
    columns = zip(zip(*rank_matrix(w)), zip(*rank_matrix(s)))
    G = [[x - y for x, y in zip(cz, cs)] for cz, cs in columns]
    negative = sum(x < 0 for col in G for x in col)

    chosen: list[Cell] = []
    zlen = coxeter_length(w)
    for k, a in enumerate(letters):
        if zlen == 0:
            break
        col = G[a]
        if grew[k]:
            # s becomes s_a * s: r_s rises on rows sinv[a+1] .. sinv[a] - 1.
            lo, hi = sinv[a + 1], sinv[a]
            sinv[a], sinv[a + 1] = lo, hi
            negative += col[lo:hi].count(0)
            col[lo:hi] = [x - 1 for x in col[lo:hi]]
        lo, hi = zinv[a + 1], zinv[a]
        if lo > hi:
            continue  # s_a * z not shorter: off the geodesic
        # z would become s_a * z: r_z rises on rows zinv[a+1] .. zinv[a] - 1.
        if col[lo:hi].count(-1) != negative:
            continue  # suffix cannot complete the remainder
        col[lo:hi] = [x + 1 for x in col[lo:hi]]
        negative = 0  # every negative cell was a -1 in the raised rows
        zinv[a], zinv[a + 1] = lo, hi
        zlen -= 1
        chosen.append(order[k])
    if zlen != 0:
        raise StructureError("greedy subword search failed to reach w")
    return tuple(chosen)
