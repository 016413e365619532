"""Seeded inputs for the klreg benchmark.

Nothing here imports klreg: the program under test only ever receives the
inputs built here.  The one exception is the minimality filter for random
boards, which the caller passes in as `accept`.  The same (workload, seed,
count) always gives the same op list, and `digest` fingerprints it so that
two runs can be shown to have seen identical inputs.

Op records are plain JSON-able dicts:
  {"kind": "pair",   "v": [...], "w": [...], ...}   klreg pair (CLI)
  {"kind": "ladder", "name": str, "board": {...}}   klreg ladder --oracle (CLI)
  {"kind": "sweep",  "v": [...], "w": [...], ...}   three degree routes
  {"kind": "gens",   "name": str, "board": {...}}   generator-set check
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

BOARD_DIR = Path(__file__).resolve().parent / "boards"

# The two demo boards and the tests' worked boards, copied as JSON.
# demo_small is the tests' LAD_A and demo_large their LAD_B.
FIXED_BOARDS = (
    "demo_small",
    "demo_large",
    "known_c",
    "known_d",
    "known_full",
    "known_emptyw",
)
# Boards whose generator sets the acceptance suite compares (criterion 10).
CRITERION10_BOARDS = ("demo_small", "known_c", "known_d")

# Rectangular Grassmannian shapes (k, m), k <= m, with C(m, k) between
# about 10^3 and 2.5 * 10^4; each is used in both orientations, so that
# the seed only moves the padding.
GRASSMANNIAN_SHAPES = (
    (3, 20), (3, 30), (3, 40), (4, 14), (4, 20), (4, 25), (5, 13), (5, 17),
    (6, 13), (6, 16), (7, 14), (7, 16), (8, 16), (9, 17),
)

# Side lengths of the one-mark square boards; every r in 1..a//4 is used.
# 24 x 24 with r = 6 is added alone: all of a = 24 took 40% of the time.
SQUARE_SIDES = tuple(range(8, 21, 2))


# ---------------------------------------------------------------------------
# permutations


def keeps_321_avoiding(word: list, i: int) -> bool:
    """Does swapping positions i, i+1 (0-based, word[i] < word[i+1]) of a
    321-avoiding word keep it 321-avoiding?  A new 321 pattern must use both
    swapped entries, so it is x > b before them or y < a after them."""
    a, b = word[i], word[i + 1]
    return all(x < b for x in word[:i]) and all(y > a for y in word[i + 2 :])


def walk_v(rng: random.Random, n: int, target: int) -> tuple[int, ...]:
    """A length-increasing adjacent-swap walk from the identity of S_n that
    stays 321-avoiding; it stops at length `target` or when stuck."""
    word = list(range(1, n + 1))
    positions = list(range(n - 1))
    for _ in range(target):
        rng.shuffle(positions)
        for i in positions:
            if word[i] < word[i + 1] and keeps_321_avoiding(word, i):
                word[i], word[i + 1] = word[i + 1], word[i]
                break
        else:
            break
    return tuple(word)


def reading_letters(v) -> list[int]:
    """The reading word of the Rothe diagram of v: rows top to bottom, each
    right to left, the kth leftmost box of row i labelled i + k - 1."""
    n = len(v)
    inv = [0] * n
    for i, x in enumerate(v, 1):
        inv[x - 1] = i
    letters = []
    for i in range(1, n + 1):
        row = [j for j in range(1, n + 1) if v[i - 1] > j and inv[j - 1] > i]
        letters.extend(i + k for k in range(len(row) - 1, -1, -1))
    return letters


def demazure_w(v, take) -> tuple[int, ...]:
    """Per-letter Demazure steps over v's reading word: the kth letter is
    taken if `take(k)` and it lengthens w and keeps it 321-avoiding.  w is
    the Demazure product of a subword of a reduced word of v, so w <= v."""
    word = list(range(1, len(v) + 1))
    for k, a in enumerate(reading_letters(v)):
        i = a - 1
        if word[i] < word[i + 1] and take(k) and keeps_321_avoiding(word, i):
            word[i], word[i + 1] = word[i + 1], word[i]
    return tuple(word)


def w_at_gap(rng: random.Random, v, gap: int, tries: int = 20) -> tuple[int, ...]:
    """Demazure steps that skip k random letters of v's reading word, for
    ell(v) - ell(w) = gap.  Skipping k letters shortens w by at least k and
    often by more, so k starts at `gap` and goes down after `tries` draws
    that all overshoot.  Returns the first draw with ell(v) - ell(w) = gap,
    or else the draw closest to it."""
    ell_v = inversions(v)
    best, best_err = None, None
    for k in range(gap, 0, -1):
        for _ in range(tries):
            skip = set(rng.sample(range(ell_v), k))
            w = demazure_w(v, lambda i: i not in skip)
            err = abs(ell_v - inversions(w) - gap)
            if best is None or err < best_err:
                best, best_err = w, err
            if err == 0:
                return best
    return best


def top_diagram(v, w) -> list[tuple[int, int]]:
    """The northeast-most reduced pipe set of (v, w), in the coordinates of
    the Rothe diagram of v with its empty rows and columns deleted.

    The same greedy as the program's: scan the reading order and take a
    letter when it lengthens the prefix, shortens the remainder z, and the
    unread letters still contain a reduced word for the new remainder.  The
    last test needs no Bruhat comparison: a word contains a reduced word for
    x exactly when taking every letter that is a left descent of what is
    left of x uses up x (lifting property of the Demazure product)."""
    n = len(v)
    vinv = [0] * n
    for i, x in enumerate(v, 1):
        vinv[x - 1] = i
    cells, letters = [], []
    for i in range(1, n + 1):
        row = [j for j in range(1, n + 1) if v[i - 1] > j and vinv[j - 1] > i]
        for k in range(len(row) - 1, -1, -1):
            cells.append((i, row[k]))
            letters.append(i + k)
    u = list(range(1, n + 1))
    zinv = [0] * n  # positions of the values of the remainder z = u^-1 w
    for i, x in enumerate(w, 1):
        zinv[x - 1] = i
    zlen = inversions(w)
    chosen = []
    for k, a in enumerate(letters):
        if zlen == 0:
            break
        if u[a - 1] > u[a] or zinv[a - 1] < zinv[a]:
            continue
        x = zinv[:]
        x[a - 1], x[a] = x[a], x[a - 1]
        need = zlen - 1
        for b in letters[k + 1 :]:
            if need == 0:
                break
            if x[b - 1] > x[b]:
                x[b - 1], x[b] = x[b], x[b - 1]
                need -= 1
        if need:
            continue
        u[a - 1], u[a] = u[a], u[a - 1]
        zinv[a - 1], zinv[a] = zinv[a], zinv[a - 1]
        zlen -= 1
        chosen.append(cells[k])
    rows = {r: k for k, r in enumerate(sorted({i for i, _ in cells}), 1)}
    cols = {c: k for k, c in enumerate(sorted({j for _, j in cells}), 1)}
    return [(rows[i], cols[j]) for i, j in chosen]


def components(cells) -> list[list[tuple[int, int]]]:
    """Edge-connected components of a set of cells."""
    left = set(cells)
    comps = []
    while left:
        frontier = [left.pop()]
        comp = []
        while frontier:
            i, j = frontier.pop()
            comp.append((i, j))
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in left:
                    left.remove(nb)
                    frontier.append(nb)
        comps.append(comp)
    return comps


def chain_count(component) -> int:
    """Number of maximal-length chains (strictly increasing in row and
    column) in a set of cells, by dynamic programming over the cells."""
    cells = sorted(component)
    best: dict = {}
    ways: dict = {}
    for c in reversed(cells):
        succ = [d for d in cells if d[0] > c[0] and d[1] > c[1]]
        b = 1 + max((best[d] for d in succ), default=0)
        best[c] = b
        ways[c] = 1 if b == 1 else sum(ways[d] for d in succ if best[d] == b - 1)
    top = max(best.values(), default=0)
    return sum(ways[c] for c in cells if best[c] == top)


def top_chains(v, w) -> int:
    """Maximal chains summed over the components of the top diagram: the
    chains the program's minimizing_diag enumerates."""
    return sum(chain_count(c) for c in components(top_diagram(v, w)))


def inversions(word) -> int:
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j])


def _stratified(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k values in [lo, hi), one per equal stratum, lowest stratum first."""
    return [lo + (hi - lo) * (j + rng.random()) / k for j in range(k)]


def random_pairs(
    tag: str, seed: int, count: int, sizes, frac, kind: str, prob=None, gap=None, max_chains=None
) -> list[dict]:
    """`count` distinct pairs spread evenly over `sizes`.  Per size, the
    target length fraction of n^2/4 is a stratified sample from the range
    `frac`, and so is one of:
      prob: a range of letter probabilities; each letter of v's reading
            word is taken with that probability;
      gap:  a map from n to the (lowest, highest) codimension
            ell(v) - ell(w); the target codimension is sampled from that
            range (and is at most ell(v)),
            and `w_at_gap` draws w at that codimension.
    The two samples' strata are paired by a permutation that does not
    depend on the seed, so every seed has the same mix of long and short v
    with large and small codimension; the seed moves the values within
    their strata and draws the walks.  A walk that gets stuck below its
    target length is drawn again, so ell(v) is exactly the target: an op's
    cost grows about exponentially with ell(v).  With `max_chains`, a pair
    whose top diagram has more maximal chains is drawn again."""
    per_size = math.ceil(count / len(sizes))
    plan_rng = random.Random(f"{tag}:{seed}:plan")
    plans = []
    for n in sizes:
        fracs = _stratified(plan_rng, per_size, *frac)
        if gap is None:
            draws = _stratified(plan_rng, per_size, *prob)
        else:
            lo, hi = gap[n]
            draws = [int(g) for g in _stratified(plan_rng, per_size, lo, hi + 1)]
        pairing = list(range(per_size))
        random.Random(f"{tag}:pairing:{n}").shuffle(pairing)
        plans.extend((n, j, fracs[j], draws[pairing[j]]) for j in range(per_size))
    plan_rng.shuffle(plans)
    ops, seen = [], set()
    for n, j, f, d in plans[:count]:
        attempt = 0
        while True:
            rng = random.Random(f"{tag}:{seed}:{n}:{j}:{attempt}")
            target = int(f * n * n / 4)
            v = walk_v(rng, n, target)
            if inversions(v) < target:  # the walk got stuck: draw again
                attempt += 1
                continue
            if gap is None:
                w = demazure_w(v, lambda k: rng.random() < d)
            else:
                w = w_at_gap(rng, v, min(d, inversions(v)))
            if (v, w) not in seen and (max_chains is None or top_chains(v, w) <= max_chains):
                break
            attempt += 1
        seen.add((v, w))
        ops.append({"kind": kind, "n": n, "v": list(v), "w": list(w)})
    return ops


def grassmannian_word(rows: int, cols: int, before: int, after: int) -> list[int]:
    """The rectangular Grassmannian permutation with a rows x cols Rothe
    diagram, padded by `before` and `after` fixed points."""
    block = list(range(cols + 1, cols + rows + 1)) + list(range(1, cols + 1))
    n = before + rows + cols + after
    return list(range(1, before + 1)) + [before + x for x in block] + list(
        range(before + rows + cols + 1, n + 1)
    )


# ---------------------------------------------------------------------------
# boards


def sw_border_points(lam, mu) -> set:
    """Lattice points on a board's southwest border (row, col), (0, 0) at
    the northwest corner."""
    west = [lam[0] - l for l in lam]
    pts = {(0, 0)}
    row = col = 0
    for r in range(1, len(lam) + 1):
        while row < r:
            row += 1
            pts.add((row, col))
        nxt = west[r] if r < len(lam) else lam[0] - mu[-1]
        while col < nxt:
            col += 1
            pts.add((row, col))
    return pts


def random_board(rng: random.Random):
    """The random-board distribution of the test suite: 2-4 rows of width at
    most 4, and 1-3 marked points on the southwest border."""
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
    cands = [p for p in sorted(sw_border_points(lam, mu)) if p[0] >= 1]
    marks = []
    for p in sorted(rng.sample(cands, rng.randint(1, min(3, len(cands))))):
        rmax = min(p[0], p[1] + 2, 4)
        if rmax < 1:
            return None
        marks.append({"point": list(p), "r": rng.randint(1, rmax)})
    return {"lambda": lam, "mu": mu, "marked": marks}


def random_minimal_boards(tag: str, seed: int, count: int, accept) -> list[dict]:
    """Up to `count` distinct boards from `random_board` that `accept`
    (the program's minimality and pair construction) admits."""
    rng = random.Random(f"{tag}:{seed}:boards")
    out, seen = [], set()
    for _ in range(200 * count):
        if len(out) == count:
            break
        board = random_board(rng)
        key = None if board is None else json.dumps(board, sort_keys=True)
        if key is None or key in seen:
            continue
        seen.add(key)
        if accept(board):
            out.append(board)
    return out


def square_board(a: int, r: int) -> dict:
    return {"lambda": [a] * a, "mu": [0] * a, "marked": [{"point": [a, 0], "r": r}]}


def fixed_board(name: str) -> dict:
    with open(BOARD_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def board_cells(board: dict) -> int:
    mu = list(board.get("mu", ())) + [0] * len(board["lambda"])
    return sum(l - m for l, m in zip(board["lambda"], mu))


# ---------------------------------------------------------------------------
# workloads

# Op-list sizes are for a run of REFERENCE_SECONDS; a shorter run takes a
# proportional prefix of the list.
REFERENCE_SECONDS = 30
MIN_GAP = 4
MAX_GAP = 12
MAX_GAP_LARGE_N = 10
# Maximal chains of the top diagram are heavy-tailed on `pairs`: 2 of 1526
# draws had over 5000, and one draw had 2 million, whose enumeration took
# 31 s.  `pairs` exists for d_ne and perm, so such
# draws are replaced; `grassmannian` is the workload for many chains.
MAX_CHAINS = 5000


def _scaled(n_full: int, seconds: float) -> int:
    return max(1, min(n_full, math.ceil(n_full * seconds / REFERENCE_SECONDS)))


def _shuffled(tag: str, seed: int, ops: list) -> list:
    random.Random(f"{tag}:{seed}:order").shuffle(ops)
    return ops


def build(workload: str, seed: int, seconds: float, accept) -> list[dict]:
    """The op list of one run."""
    if workload == "pairs":
        count = _scaled(156, seconds)
        return random_pairs(
            "pairs", seed, count, range(20, 81, 5), (0.1, 0.35), "pair", prob=(0.1, 0.5), max_chains=MAX_CHAINS
        )
    if workload == "grassmannian":
        rng = random.Random(f"grassmannian:{seed}:pad")
        ops = []
        for k, m in GRASSMANNIAN_SHAPES:
            for rows, cols in ((k, m), (m, k)):
                v = grassmannian_word(rows, cols, rng.randint(0, 3), rng.randint(0, 3))
                ops.append({"kind": "pair", "n": len(v), "shape": [rows, cols], "v": v, "w": v})
        # Most chains first: the largest op then sets the peak RSS before
        # other ops fragment the heap, so the peak does not vary by seed.
        ops.sort(key=lambda op: -math.comb(max(op["shape"]), min(op["shape"])))
        return ops[: _scaled(len(ops), seconds)]
    if workload == "boards":
        # Square boards outnumber the small ones by 2 to 1, so the median op
        # is a square board and not one at the edge between the two groups.
        ops = [{"kind": "ladder", "name": name, "board": fixed_board(name)} for name in FIXED_BOARDS]
        for k, board in enumerate(random_minimal_boards("boards", seed, 6, accept)):
            ops.append({"kind": "ladder", "name": f"random{k}", "board": board})
        squares = [(a, r) for a in SQUARE_SIDES for r in range(1, a // 4 + 1)] + [(24, 6)]
        for a, r in squares:
            ops.append({"kind": "ladder", "name": f"square{a}r{r}", "board": square_board(a, r)})
        return _shuffled("boards", seed, ops)[: _scaled(len(ops), seconds)]
    if workload == "certify":
        count = _scaled(105, seconds)
        # Codimension at most MAX_GAP keeps the brute-force closure near
        # 10^3 states; from about 26 it often passes 10^5 and one op can
        # take seconds.  The ops at n = 15, 16 take most of the time, so
        # their cap is lower, and a few of them do not make up the tail.
        # Below MIN_GAP the closure almost always has a single state.
        gaps = {n: (MIN_GAP, MAX_GAP if n < 15 else MAX_GAP_LARGE_N) for n in range(10, 17)}
        ops = random_pairs("certify", seed, count, range(10, 17), (0.3, 0.6), "sweep", gap=gaps)
        ops += [{"kind": "gens", "name": name, "board": fixed_board(name)} for name in CRITERION10_BOARDS]
        boards = random_minimal_boards("certify", seed, _scaled(16, seconds), accept)
        ops += [{"kind": "gens", "name": f"random{k}", "board": b} for k, b in enumerate(boards)]
        return _shuffled("certify", seed, ops)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("pairs", "grassmannian", "boards", "certify")


def digest(ops: list[dict]) -> str:
    """sha256 of the canonical JSON of the op list."""
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()
