"""Independent brute-force references: breadth-first closures of the move
system, exhaustive earliest-subword search, pipe-set enumeration, the
degree of the unspecialized Grothendieck polynomial, minimal-length
permutations for rank constraints, small lattice-path enumerations, and
the closed-form degree on the matrix-Schubert slice; plus the one random
321-avoiding pair sampler.

These deliberately avoid the clever constructions they certify.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import ladder as lad
from .errors import DEFAULT_BUDGET, ResourceError, ValidationError
from .perm import (
    Cell,
    Permutation,
    bruhat_leq,
    coxeter_length,
    demazure_step,
    identity,
    rank,
    right_mult_s,
)
from .pipes import _reading_cells
from .skew import d_top


@dataclass
class ClosureSet:
    """All diagrams reachable from the top diagram, with BFS statistics."""

    diagrams: tuple[tuple[Cell, ...], ...]  # sorted, deterministic
    size_histogram: dict
    max_size: int
    expanded: int

    def __len__(self):
        return len(self.diagrams)

    def as_sets(self) -> frozenset:
        return frozenset(frozenset(d) for d in self.diagrams)


def _closure_states(v: Permutation, w: Permutation, budget: int):
    """The BFS behind closure: every diagram reachable from the top diagram
    as a bitmask over the region's cells, those cells in bit order, and the
    number of states expanded.  More than `budget` states visited is a
    ResourceError."""
    top = d_top(v, w)
    cells = top.region.cells()
    inside = top.region.cellset
    index = {c: k for k, c in enumerate(cells)}

    transitions = []
    for c in cells:
        t = (c[0] + 1, c[1] - 1)
        s = (c[0] + 1, c[1])
        west = (c[0], c[1] - 1)
        if t in inside and s in inside and west in inside:
            frame = (1 << index[t]) | (1 << index[s]) | (1 << index[west])
            transitions.append((1 << index[c], frame, 1 << index[t]))

    start = 0
    for c in top.pluses:
        start |= 1 << index[c]
    seen = {start}
    queue = deque([start])
    expanded = 0
    while queue:
        state = queue.popleft()
        expanded += 1
        for bit, frame, target in transitions:
            if state & bit and not state & frame:
                nxt = (state ^ bit) | target  # excited move
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                nxt = state | target  # K-move
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                if len(seen) > budget:
                    raise ResourceError(
                        f"closure budget {budget} exceeded",
                        partial={"visited": len(seen), "expanded": expanded},
                    )
    return seen, cells, expanded


def closure(v: Permutation, w: Permutation, budget: int = DEFAULT_BUDGET) -> ClosureSet:
    """BFS closure of the top diagram under excited and K-theoretic moves.
    No move removes a cell and a K-move adds one, so the excited diagrams
    are exactly the states with ell(w) cells."""
    seen, cells, expanded = _closure_states(v, w, budget)

    def unpack(state: int) -> tuple[Cell, ...]:
        return tuple(c for k, c in enumerate(cells) if state >> k & 1)

    diagrams = sorted((unpack(s) for s in seen), key=lambda d: (len(d), d))
    hist = dict(Counter(len(d) for d in diagrams))
    return ClosureSet(tuple(diagrams), hist, max(hist) if hist else 0, expanded)


def max_closure_size(v: Permutation, w: Permutation, budget: int = DEFAULT_BUDGET) -> int:
    """Largest diagram cardinality in the full closure: the degree oracle.

    The same BFS as closure, with the same budget, but the answer is read
    off the bitmask states as their largest popcount: no state is unpacked
    into cells, and nothing is sorted or counted by size."""
    seen, _, _ = _closure_states(v, w, budget)
    return max(s.bit_count() for s in seen)


def enumerate_pipes(
    v: Permutation,
    w: Permutation,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[Cell, ...]]:
    """All subsets of D(v) whose reading word has Demazure product w,
    by direct subset search over the reading order."""
    read = tuple(_reading_cells(v))
    n = v.n
    count = 0

    def rec(k: int, u: Permutation, chosen: tuple):
        nonlocal count
        count += 1
        if count > budget:
            raise ResourceError(f"pipe enumeration budget {budget} exceeded")
        if k == len(read):
            if u == w:
                yield chosen
            return
        if not bruhat_leq(u, w):
            return
        yield from rec(k + 1, u, chosen)
        cell, a = read[k]
        yield from rec(k + 1, demazure_step(u, a), chosen + (cell,))

    yield from rec(0, identity(n), ())


def brute_earliest_subword(v: Permutation, w: Permutation, budget: int = DEFAULT_BUDGET) -> tuple[Cell, ...]:
    """Lexicographically earliest index subsequence of the reading word of
    D(v) that is a reduced word for w, by backtracking in lex order."""
    read = tuple(_reading_cells(v))
    need = coxeter_length(w)
    nodes = 0

    def rec(k: int, u: Permutation, taken: list):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise ResourceError(f"subword search budget {budget} exceeded")
        if len(taken) == need:
            return u == w
        if len(read) - k < need - len(taken):
            return False
        if not bruhat_leq(u, w):
            return False
        cell, a = read[k]
        if u.word[a - 1] < u.word[a]:
            taken.append(cell)
            if rec(k + 1, right_mult_s(u, a), taken):
                return True
            taken.pop()
        return rec(k + 1, u, taken)

    taken: list = []
    if not rec(0, identity(v.n), taken):
        raise ValidationError("no reduced subword found; is w <= v?")
    return tuple(taken)


def brute_minimal_w(
    n: int, constraints: Iterable[tuple[Cell, int]], budget: int = DEFAULT_BUDGET
) -> Permutation:
    """First permutation of S_n in (length, word) order meeting every rank
    equality rank(w, a, b) == c for ((a, b), c) in constraints.

    Searches S_n level by level from the identity, each level reached from
    the one before by ascent swaps, and stops at the first level that holds
    a solution."""
    cons = [((a, b), c) for (a, b), c in constraints]
    level = {identity(n)}
    visited = 0
    while level:
        visited += len(level)
        if visited > budget:
            raise ResourceError(f"brute scan budget {budget} exceeded", partial={"visited": visited})
        hits = [u for u in level if all(rank(u, a, b) == c for (a, b), c in cons)]
        if hits:
            return min(hits, key=lambda u: u.word)
        level = {right_mult_s(u, i) for u in level for i in range(1, n) if u.word[i - 1] < u.word[i]}
    raise ValidationError("no permutation satisfies the rank constraints")


def enumerate_nilp(ladder, budget: int = DEFAULT_BUDGET):
    """All valid non-intersecting path families on the ladder; more than
    `budget` of them is a ResourceError."""
    bp = lad.boundary_points(ladder)
    lam_cells = lad.partition_cells(ladder)
    ell = len(bp.h)
    results = []

    def routes(start: Cell, goal: Cell, used: frozenset):
        """All monotone box routes start -> goal inside the partition shape."""
        if start not in lam_cells or start in used:
            return
        if start == goal:
            yield (start,)
            return
        if start[0] < goal[0] or start[1] < goal[1]:
            return
        for nxt in ((start[0], start[1] - 1), (start[0] - 1, start[1])):
            for rest in routes(nxt, goal, used):
                yield (start,) + rest

    def place(i: int, used: frozenset, acc: list) -> None:
        """Place paths i.. after acc."""
        if i == ell:
            fam = lad.PathFamily(tuple(acc), bp.pairs())
            if lad.nilp_is_valid(ladder, fam):
                results.append(fam)
                if len(results) > budget:
                    raise ResourceError(f"path enumeration budget {budget} exceeded")
            return
        for route in routes(lad._start_box(bp.h[i]), lad._goal_box(bp.v[i]), used):
            acc.append(route)
            place(i + 1, used | frozenset(route), acc)
            acc.pop()

    place(0, frozenset(), [])
    return tuple(results)


def slice_pair(w: Permutation) -> tuple[Permutation, Permutation]:
    """The matrix-Schubert slice of w in S_m: v_m = (m+1, ..., 2m, 1, ..., m)
    and w~ = (w(1), ..., w(m), m+1, ..., 2m) in S_2m, with w~ <= v_m.  The
    opposite cell of v_m has [M | I] in its top m rows, M generic, and the
    rank conditions of w~ are Fulton's conditions on M for w, so the
    Kazhdan-Lusztig variety of the pair is the matrix Schubert variety of
    w up to an affine factor.  compress(v_m) is the m x m square."""
    high = tuple(range(w.n + 1, 2 * w.n + 1))
    return Permutation(high + tuple(range(1, w.n + 1))), Permutation(w.word + high)


def rajcode_degree(w: Permutation) -> int:
    """The degree of the Grothendieck polynomial of w in S_m, the sum of its
    Rajchgot code (Pechenik, Speyer and Weigandt 2021): the sum over k of
    (m - k + 1) - L_k, where L_k is the longest increasing subsequence of
    w(k), ..., w(m) that starts at w(k).  One right-to-left patience pass,
    O(m log m), reading no diagram: the degree of slice_pair(w) in closed
    form.

    >>> rajcode_degree(Permutation((2, 1, 3)))
    1
    """
    firsts: list[int] = []  # -firsts[x]: the greatest first of an increasing subsequence of length x + 1 read
    total = 0
    for read, x in enumerate(reversed(w.word)):  # the suffix from w(k) has read + 1 entries
        longer = bisect_left(firsts, -x)  # L_k - 1
        firsts[longer : longer + 1] = [-x]
        total += read - longer
    return total


def _swap_if_avoiding(word: list[int], before: list[int], after: list[int], i: int) -> bool:
    """Swap the increasing entries at i, i + 1 (0-indexed) of a 321-avoiding
    word if that keeps it 321-avoiding, and say whether it did.  The new
    inversion must not sit below a larger earlier entry or above a smaller
    later one.  before[k] = max(word[:k], default=0) and
    after[k] = min(word[k:], default=n + 1) make the test O(1); a swap
    changes them only at k = i + 1, and they are updated there."""
    lo, hi = word[i], word[i + 1]
    if not (lo < hi and before[i] < hi and after[i + 2] > lo):
        return False
    word[i], word[i + 1] = hi, lo
    before[i + 1] = max(before[i], hi)
    after[i + 1] = min(lo, after[i + 2])
    return True


def random_avoiding_pair(rng, n: int) -> tuple[Permutation, Permutation]:
    """A random 321-avoiding pair w <= v, in polynomial time, not uniform.

    v is an adjacent-swap walk from the identity of S_n: each of up to
    rng.randint(0, n*n // 4) steps swaps the first increasing adjacent pair,
    in a shuffled order of positions, whose swap keeps the word
    321-avoiding, and the walk stops early when none does.  Each step adds
    one inversion, so l(v) <= n*n // 4.  w starts at the identity and takes
    each letter of v's reading word with probability 1/2 when it lengthens
    w and keeps it 321-avoiding, so w is the Demazure product of a subword
    of a reduced word for v and w <= v.
    """
    word = list(range(1, n + 1))
    before, after = list(range(n + 1)), list(range(1, n + 2))  # of the identity
    positions = list(range(n - 1))
    for _ in range(rng.randint(0, n * n // 4)):
        rng.shuffle(positions)
        if not any(_swap_if_avoiding(word, before, after, i) for i in positions):
            break
    v = Permutation(tuple(word))
    w = list(range(1, n + 1))
    before, after = list(range(n + 1)), list(range(1, n + 2))
    for _, a in _reading_cells(v):
        i = a - 1
        if w[i] < w[i + 1] and rng.random() < 0.5:
            _swap_if_avoiding(w, before, after, i)
    return v, Permutation(tuple(w))
