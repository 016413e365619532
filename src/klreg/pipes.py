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
    demazure_step_left,
    identity,
    is_321_avoiding,
    left_mult_s,
    right_mult_s,
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

    Greedy scan of the reading order: a letter a is accepted at partial
    product u exactly when u*s_a is longer, lies on a geodesic to w, and the
    unread suffix can still complete a reduced word for the remainder (the
    suffix Demazure product dominates it in Bruhat order).  Returns the cells
    in reading order; their index set is the lexicographically earliest one
    whose reading word is a reduced word for w.
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
    m = len(letters)

    # suffix_delta[k] = Demazure product of letters[k:], built right to left.
    suffix_delta = [identity(v.n)] * (m + 1)
    for k in range(m - 1, -1, -1):
        suffix_delta[k] = demazure_step_left(suffix_delta[k + 1], letters[k])

    chosen: list[Cell] = []
    u = identity(v.n)
    z = w  # remainder: z = u^-1 w throughout
    zlen = coxeter_length(w)
    for k, a in enumerate(letters):
        if zlen == 0:
            break
        if u.word[a - 1] > u.word[a]:
            continue  # u * s_a not longer
        zinv = z.inverse().word
        if zinv[a - 1] < zinv[a]:
            continue  # s_a * z not shorter: off the geodesic
        znew = left_mult_s(z, a)
        if not bruhat_leq(znew, suffix_delta[k + 1]):
            continue  # suffix cannot complete the remainder
        u = right_mult_s(u, a)
        z = znew
        zlen -= 1
        chosen.append(order[k])
    if zlen != 0:
        raise StructureError("greedy subword search failed to reach w")
    return tuple(chosen)

