"""Shared worked-instance data, and the reference primitives and
enumerators, used across the test modules.

Values here are pinned from hand-checked sources: either computed by an
independent method inside the tests, or read off published diagrams and
cross-verified against each other.
"""

import random
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Iterable

from klreg import Ladder, Permutation, oracle
from klreg.errors import ValidationError
from klreg.perm import Cell, coxeter_length, demazure_step, identity, is_321_avoiding
from klreg.pipes import reading_word
from klreg.skew import PlusDiagram, can_move
from klreg.zipdiag import minimizing_diag, zip_result


def inverse_word(u: Permutation) -> tuple[int, ...]:
    """u^-1 in one-line notation (the reference loops' inverse)."""
    return tuple(sorted(range(1, u.n + 1), key=lambda i: u.word[i - 1]))


def left_mult_s(u: Permutation, i: int) -> Permutation:
    """s_i * u: swap the values i and i+1 (the reference loops' left action)."""
    if not 1 <= i <= u.n - 1:
        raise ValidationError(f"generator index {i} out of range for S_{u.n}")
    w = [x if x not in (i, i + 1) else (i + 1 if x == i else i) for x in u.word]
    return Permutation(tuple(w))


def excited_states(v: Permutation, w: Permutation) -> frozenset:
    """The excited diagrams of the pair: the states of the oracle's closure
    with ell(w) cells, each as a frozenset of cells."""
    lw = coxeter_length(w)
    return frozenset(d for d in oracle.closure(v, w).as_sets() if len(d) == lw)


def demazure_product(word: Iterable[int], n: int) -> Permutation:
    """Fold demazure_step over word, starting from the identity of S_n."""
    u = identity(n)
    for i in word:
        u = demazure_step(u, i)
    return u


def delta(v: Permutation, cells: Iterable[Cell]) -> Permutation:
    """Demazure product of the reading word of the sub-diagram."""
    return demazure_product(reading_word(v, cells), v.n)


def all_permutations(n: int) -> list[Permutation]:
    """All of S_n, sorted by (length, word)."""
    out = [Permutation(w) for w in permutations(range(1, n + 1))]
    out.sort(key=lambda u: (coxeter_length(u), u.word))
    return out


def all_321_avoiding(n: int) -> list[Permutation]:
    """All 321-avoiding elements of S_n, sorted by (length, word)."""
    return [u for u in all_permutations(n) if is_321_avoiding(u)]


def _sw_border_points(lam, mu) -> set:
    """All lattice points on the southwest border polyline, from the
    northwest corner to the southeast corner: the reference enumeration for
    `Ladder`'s border test, walked step by step."""
    ws = [lam[0] - l for l in lam]  # west walls
    pts = set()
    row = 0
    col = 0
    for r in range(1, len(lam) + 1):
        while row < r:
            row += 1
            pts.add((row, col))
        nxt = ws[r] if r < len(lam) else lam[0] - mu[-1]
        while col < nxt:
            col += 1
            pts.add((row, col))
    pts.add((0, 0))
    return pts


def random_board_dict(rng: random.Random):
    """A random board file as a dict, before `Ladder` validates it: 2-4
    rows of width at most 4 and 1-3 marks off row 0 on the southwest
    border.  None when a drawn mark has no allowed multiplicity."""
    nrows = rng.randint(2, 4)
    lam = [rng.randint(2, 4)]
    for _ in range(nrows - 1):
        lam.append(rng.randint(1, lam[-1]))
    mu = []
    prev = None
    for l in lam:
        hi = min(l - 1, prev if prev is not None else l - 1)
        mu.append(rng.randint(0, hi) if hi > 0 else 0)
        prev = mu[-1]
    cands = [p for p in sorted(_sw_border_points(tuple(lam), tuple(mu))) if p[0] >= 1]
    marks = []
    for p in sorted(rng.sample(cands, rng.randint(1, min(3, len(cands))))):
        rmax = min(p[0], p[1] + 2, 4)
        if rmax < 1:
            return None
        marks.append({"point": list(p), "r": rng.randint(1, rmax)})
    return {"lambda": lam, "mu": mu, "marked": marks}


def all_boards(max_rows: int, max_part: int, max_marks: int, max_r: int):
    """Every board with at most max_rows rows and parts at most max_part,
    every mu that `Ladder` accepts, and 1..max_marks marks off row 0 with
    r <= max_r."""
    for rows in range(1, max_rows + 1):
        for lam in combinations_with_replacement(range(max_part, 0, -1), rows):
            for mu in product(*(range(l) for l in lam)):
                points = [p for p in sorted(_sw_border_points(lam, mu)) if p[0] >= 1]
                for m in range(1, max_marks + 1):
                    for marked in combinations(points, m):
                        for rs in product(range(1, max_r + 1), repeat=m):
                            try:
                                yield Ladder(lam, mu, tuple(zip(marked, rs)))
                            except ValidationError:
                                pass


def rank_envelope_perm(n: int, constraints) -> Permutation:
    """The w of a board's rank caps read off the (n+1) x (n+1) min-plus
    envelope min(a, b, c + (a - a')+ + (b - b')+ over the caps), one
    second difference per cell: the reference for `ladder._least_perm`."""
    cons = [((a, b), c) for (a, b), c in constraints]
    env = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            val = min(a, b)
            for (ak, bk), ck in cons:
                cand = ck + max(0, a - ak) + max(0, b - bk)
                if cand < val:
                    val = cand
            env[a][b] = val
    word = [0] * n
    seen_cols = set()
    for a in range(1, n + 1):
        hits = []
        for b in range(1, n + 1):
            d = env[a][b] - env[a - 1][b] - env[a][b - 1] + env[a - 1][b - 1]
            if d == 1:
                hits.append(b)
            elif d != 0:
                raise ValidationError(
                    f"rank envelope is not a permutation rank matrix at ({a}, {b})"
                )
        if len(hits) != 1 or hits[0] in seen_cols:
            raise ValidationError("rank envelope is not a permutation rank matrix")
        word[a - 1] = hits[0]
        seen_cols.add(hits[0])
    return Permutation(tuple(word))


def k_saturation_by_moves(v: Permutation, w: Permutation) -> PlusDiagram:
    """Independent construction of d_zip_k by literally applying a maximal
    run of K-theoretic excited moves below each chain box."""
    res = zip_result(v, w)
    pluses = set(res.d_zip.pluses)
    for chain in minimizing_diag(res.d_top):
        for cur in chain:
            while can_move(res.region, pluses, cur):
                cur = (cur[0] + 1, cur[1] - 1)
                pluses.add(cur)
    return PlusDiagram(res.region, frozenset(pluses))


def rooms_by_moves(res) -> dict[Cell, int]:
    """The room under each chain box of a zip record, box by box in chain
    order: how many K-theoretic excited moves carry a plus from the box
    down its anti-diagonal while the slid diagram stays put."""
    rooms = {}
    for chain in minimizing_diag(res.d_top):
        for b in chain:
            cur, rooms[b] = b, 0
            while can_move(res.region, res.d_zip.pluses, cur):
                cur = (cur[0] + 1, cur[1] - 1)
                rooms[b] += 1
    return rooms


def is_grassmannian(u: Permutation) -> bool:
    """True iff u has at most one descent."""
    w = u.word
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1]) <= 1


def is_skew_shape(component) -> bool:
    """True iff the cells form a skew shape: one run of adjacent columns
    per row, in consecutive rows, with starts and ends weakly increasing
    southward (the region's convention)."""
    rows: dict[int, list[int]] = {}
    for i, j in component:
        rows.setdefault(i, []).append(j)
    spans = []
    for i in range(min(rows), max(rows) + 1):
        cols = sorted(rows.get(i, ()))
        if not cols or cols != list(range(cols[0], cols[-1] + 1)):
            return False
        spans.append((cols[0], cols[-1]))
    return all(a <= b and e <= f for (a, e), (b, f) in zip(spans, spans[1:]))


def components_by_search(diagram):
    """The plus set's edge-connected components, as zipdiag.components
    lists them, by a breadth-first search over the cells from each unseen
    cell in sorted order, each component sorted row-major: the reference
    that reads no runs, so it also finds components that are not skew
    shapes."""
    unseen = set(diagram.pluses)
    comps = []
    for seed in sorted(unseen):
        if seed not in unseen:
            continue
        unseen.remove(seed)
        comp = [seed]
        for i, j in comp:  # comp grows while it is read
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in unseen:
                    unseen.remove(nb)
                    comp.append(nb)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


# The S_10 pair behind the reading-word / earliest-subword / degree-8 checks.
V10 = Permutation((4, 6, 1, 2, 8, 9, 3, 5, 10, 7))
W10 = Permutation((4, 1, 2, 3, 6, 8, 5, 9, 7, 10))
# code(V10) by hand, c_i = #{j > i : V10(j) < V10(i)}: 4 and 6 precede {1,2,3}
# and {1,2,3,5}, 8 and 9 each precede {3,5,7}, 10 precedes 7; the sum is 14.
CODE_V10 = (3, 4, 0, 0, 3, 3, 0, 0, 1, 0)
WORD_W10 = (3, 2, 1, 5, 7, 6, 8)
D_NE_10 = frozenset({(1, 1), (1, 2), (1, 3), (2, 5), (5, 5), (5, 7), (6, 7)})
REGION10 = ((1, 3), (1, 4), (3, 5), (3, 5), (5, 5))
D_TOP_10 = frozenset({(1, 1), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)})
DEGREE10 = 8

# The S_11 headline pair: regularity 4, a-invariant -10, 16 saturated cells.
V11 = Permutation((5, 8, 9, 10, 1, 2, 11, 3, 4, 6, 7))
W11 = Permutation((1, 4, 5, 8, 2, 3, 9, 6, 10, 11, 7))

# The S_16 pair with two components and room sums 5 and 8.
V16 = Permutation((6, 11, 12, 13, 14, 15, 1, 16, 2, 3, 4, 5, 7, 8, 9, 10))
W16 = Permutation((1, 6, 2, 3, 7, 8, 11, 12, 4, 5, 9, 10, 13, 14, 15, 16))
C2_16 = ((2, 8), (2, 9), (3, 8), (3, 9))
MAX_DIAG_16_C1 = ((1, 2), (4, 4), (5, 5))
MIN_DIAG_16_C1 = ((1, 2), (2, 4), (3, 5))
DIAG_16_C2 = ((2, 8), (3, 9))
ROOMS_16 = {(1, 2): 1, (2, 4): 2, (3, 5): 2, (2, 8): 4, (3, 9): 4}
D_ZIP_16 = frozenset(
    {
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 4), (2, 5), (2, 8), (2, 9),
        (3, 5), (3, 9),
        (5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (7, 4),
    }
)
DEGREE16 = 29

# The two-sided board whose ideal has 3-minors over rows [4], 2-minors over
# columns {3,4,5} and {4,5}.
LAD_A = Ladder((5, 5, 5, 5, 2, 2), (2, 1, 0, 0, 0, 0), (((4, 0), 3), ((4, 2), 2), ((6, 3), 2)))
V_LAD_A = Permutation((4, 6, 8, 9, 1, 2, 3, 10, 11, 5, 7))
# The minimal-length solution of the nine rank constraints (cross-checked
# against the generator-set equality and the lattice-path statistics).
W_LAD_A = Permutation((1, 2, 4, 6, 3, 8, 5, 9, 10, 7, 11))
D_TOP_LAD_A = frozenset({(1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 5)})

# The large board with four paths, weight 40 and regularity 7.
LAD_B = Ladder(
    (10, 10, 10, 10, 8, 4, 4, 4, 2, 2),
    (2, 2, 0, 0, 0, 0, 0, 0, 0, 0),
    (((4, 0), 3), ((5, 2), 4), ((5, 6), 3), ((8, 6), 4), ((10, 8), 2)),
)
H_LAD_B = ((10.0, 9.5), (8.0, 7.5), (8.0, 6.5), (5.0, 5.5))
V_LAD_B = ((0.5, 0.0), (1.5, 0.0), (5.5, 6.0), (4.5, 2.0))
CORNER_FILLS_B = (((4, 2), 3), ((8, 8), 2))

# Hand-traced box routes (H_i to V_i) for the bottom family of LAD_B.
ROUTES_BOT_B = (
    (
        (10, 10), (10, 9), (9, 9), (8, 9), (7, 9), (6, 9), (5, 9), (4, 9),
        (4, 8), (3, 8), (3, 7), (3, 6), (3, 5), (3, 4), (3, 3), (3, 2),
        (2, 2), (1, 2), (1, 1),
    ),
    (
        (8, 8), (7, 8), (6, 8), (5, 8), (5, 7), (4, 7), (4, 6), (4, 5),
        (4, 4), (4, 3), (4, 2), (4, 1), (3, 1), (2, 1),
    ),
    ((8, 7), (7, 7), (6, 7)),
    ((5, 6), (5, 5), (5, 4), (5, 3)),
)

# A second valid family: the first path swings along the east edge.
ROUTES_MID_B = (
    (
        (10, 10), (9, 10), (8, 10), (7, 10), (6, 10), (5, 10), (4, 10), (3, 10),
        (3, 9), (3, 8), (2, 8), (1, 8), (1, 7), (1, 6), (1, 5), (1, 4),
        (1, 3), (1, 2), (1, 1),
    ),
    (
        (8, 8), (7, 8), (6, 8), (5, 8), (5, 7), (4, 7), (3, 7), (3, 6),
        (3, 5), (3, 4), (3, 3), (3, 2), (3, 1), (2, 1),
    ),
    ((8, 7), (7, 7), (6, 7)),
    ((5, 6), (5, 5), (5, 4), (5, 3)),
)

# An invalid family: the first path cuts through the cutout above a blank.
ROUTES_BAD_B = (
    (
        (10, 10), (9, 10), (8, 10), (7, 10), (6, 10), (5, 10), (4, 10), (3, 10),
        (2, 10), (2, 9), (2, 8), (1, 8), (1, 7), (1, 6), (1, 5), (1, 4),
        (1, 3), (1, 2), (1, 1),
    ),
    ROUTES_BOT_B[1],
    ROUTES_BOT_B[2],
    ROUTES_BOT_B[3],
)

# Small two-sided boards for bijection and generator-set checks.
LAD_C = Ladder((3, 3, 3, 2), (1, 0, 0, 0), (((3, 0), 2), ((4, 1), 2)))
LAD_D = Ladder((4, 4, 2, 2), (2, 1, 0, 0), (((2, 0), 1), ((4, 2), 2)))

# A board whose generators are all the variables: everything is covered.
LAD_FULL = Ladder((2, 2), (0, 0), (((2, 0), 1),))
# A board whose marked minors are vacuous: no blanks at all.
LAD_EMPTYW = Ladder((2, 2), (0, 0), (((2, 0), 3),))

# Minimal boards that perm_of accepts but the ladder route rejects (exit 3
# from `klreg ladder`), while the recurrence on perm_of's pair gives their
# regularity: 1, 2 and 1.  In the first and the third, the r = 3 mark's
# block holds no 3-minor: "unbalanced boundary points: 2 vertical, 1
# horizontal".  The second has two blocks that meet at a corner: "no path
# from H_1 to V_1; ladder is not minimal?".  The first two are the fewest
# cells with their message in all_boards(3, 3, 3, 3) and all_boards(4, 4,
# 2, 3), where such boards are 57 of the 182 minimal, perm_of-accepted
# boards and 154 of 1,059.
LADDER_ROUTE_REJECTS = (
    Ladder((2, 2), (0, 0), (((1, 0), 3), ((2, 0), 2))),
    Ladder((4, 4, 2, 2), (2, 2, 0, 0), (((2, 0), 2), ((4, 2), 2))),
    Ladder((3, 3, 3, 3), (2, 2, 1, 0), (((3, 0), 3), ((4, 0), 2))),
)

# Pairs on which the zip route under-counts the degree by one, as
# (v, w, degree): the five witnesses in S_7, where v is Grassmannian, and
# the smallest S_8 pair that no choice of maximal chains repairs, a
# staircase whose optimum keeps a box off the longest chain.  The degrees
# are the recurrence's and the closure oracle's.
ZIP_UNDERCOUNT = (
    (Permutation((2, 4, 5, 6, 7, 1, 3)), Permutation((2, 4, 1, 5, 7, 3, 6)), 7),
    (Permutation((3, 4, 5, 6, 7, 1, 2)), Permutation((2, 4, 1, 5, 7, 3, 6)), 7),
    (Permutation((3, 4, 5, 6, 7, 1, 2)), Permutation((3, 4, 1, 5, 7, 2, 6)), 8),
    (Permutation((4, 5, 6, 7, 1, 2, 3)), Permutation((1, 2, 4, 6, 3, 5, 7)), 6),
    (Permutation((4, 5, 6, 7, 1, 2, 3)), Permutation((2, 1, 4, 6, 3, 5, 7)), 7),
    (Permutation((2, 4, 6, 8, 1, 3, 5, 7)), Permutation((2, 4, 1, 6, 3, 8, 5, 7)), 8),
)

# sha256 of the zip records of every comparable pair of S_7, as folded by
# test_zip_degree_matches_recurrence_on_all_of_s7 (region rows, sorted top
# diagram, chains, sorted slid diagram, sorted rooms).
S7_ZIP_RECORD_SHA256 = "ad7d143548ab5ea1304726988a0a07e7cce98da80f3071aa1293e053273cb728"

# The same fold over oracle.random_avoiding_pair(random.Random(seed), n) for
# seeds 0..4 and n = 4..60, as test_zip_records_of_random_pair_draws_are_pinned
# folds it.
DRAWS_ZIP_RECORD_SHA256 = "14ad3c590946252e4c0c7d3da422b73704232fe32dda41470ef56bf34302d407"

# sha256 of repr((v.word, w.word, groth_degree_recursive(v, w))) over the same
# draws for seeds 0..4 and n = 4..30, as
# test_recurrence_values_of_random_pair_draws_are_pinned folds it.
DRAWS_RECURRENCE_SHA256 = "e152b2ba24f29b524f56b4b895c970a034bef3a69e937bc68982837a76391e90"

# The same fold for seeds 0..2 and n = 31..36, past the sizes above.
LARGE_DRAWS_RECURRENCE_SHA256 = "69e346281ec988be79063d66a2bf3e5290193ec97065d39ee6db060ced2f1452"

# sha256 of the zipped family of every board of all_boards(3, 3, 2, 3), as
# test_zipped_families_of_small_boards_are_pinned folds it: the board's JSON
# with the family's routes and endpoints, or the ValidationError message.
# Four boards, lambda (1) with a mark ((1, 0), 3), are refused by
# boundary_points' cell bound (2 points a side, 1 cell) before the pairing.
SMALL_BOARDS_ZIPPED_SHA256 = "9e52e055cb44a2029a5ac051e468670a6e9ddeb1b0c6b764ffed4f0a1a141bcd"
