"""The chain-count dynamic program against brute-force enumeration."""

import random
import sys
from itertools import combinations
from math import comb
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from inputs import chain_count  # noqa: E402


def brute_count(cells) -> int:
    cells = sorted(cells)
    for length in range(len(cells), 0, -1):
        chains = [
            c
            for c in combinations(cells, length)
            if all(a[0] < b[0] and a[1] < b[1] for a, b in zip(c, c[1:]))
        ]
        if chains:
            return len(chains)
    return 0


def test_dp_matches_enumeration_on_random_cell_sets():
    rng = random.Random(2)
    for _ in range(150):
        grid = [(i, j) for i in range(1, 6) for j in range(1, 6)]
        cells = rng.sample(grid, rng.randint(1, 12))
        assert chain_count(cells) == brute_count(cells)


def test_rectangle_has_binomial_many_chains():
    for k, m in ((2, 5), (3, 4), (3, 3), (4, 6)):
        cells = [(i, j) for i in range(1, k + 1) for j in range(1, m + 1)]
        assert chain_count(cells) == comb(m, k)
        assert chain_count([(j, i) for i, j in cells]) == comb(m, k)
