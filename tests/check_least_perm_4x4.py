"""Exhaustive check of perm_of's row sweep, too slow for the test suite
(about 5 minutes on one core).

On every board with lambda in a 4 x 4 box, every mu that `Ladder` accepts
and 1-3 marks off row 0 with r <= 3, the min-plus rank envelope
(knowndata.rank_envelope_perm) must be a permutation rank matrix and the
sweep must build the same w from the same caps.  On the boards perm_of
accepts, v must also compress to the board's region; and the minimal ones
that `_zipped` (the ladder route) still rejects are counted by message,
the routes of the families it builds on the rest are folded into one
sha256, and their unforced elbows into a second; a third folds every
board's `validate_minimal` verdict, (passed, uncovered), in the order the
boards are listed.  Prints the counts and the three digests, then the
number of boards that pass `validate_minimal` with a region cell in no
monomial of a `ladder_generators` generator (the two notions of "covered"
of ROADMAP item 4(a)), and exits non-zero on a different w or a region
mismatch.

Run from the root of a checkout:
`PYTHONPATH=src:tests python tests/check_least_perm_4x4.py`
"""

import hashlib
import sys
from collections import Counter

from klreg import ladder
from klreg.errors import ValidationError
from klreg.ideals import ladder_generators
from klreg.skew import compress

from knowndata import all_boards, rank_envelope_perm


def main() -> int:
    sweep = ladder._least_perm
    last = []

    def spy(n, constraints):
        out = sweep(n, constraints)
        last[:] = [n, constraints, out[0]]
        return out

    ladder._least_perm = spy
    counts = Counter({"boards": 0, "region mismatches": 0})
    routes = hashlib.sha256()
    elbows = hashlib.sha256()
    verdicts = hashlib.sha256()
    uncovered = 0
    for board in all_boards(4, 4, 3, 3):
        counts["boards"] += 1
        report = ladder.validate_minimal(board)
        verdicts.update(repr((report.passed, report.uncovered)).encode())
        if report.passed:
            in_generators = {c for g in ladder_generators(board) for m, _ in g.terms for c in m}
            uncovered += not in_generators.issuperset(board.region.cells())
        last.clear()
        try:
            v, _ = ladder.perm_of(board)
            counts["perm_of accepts"] += 1
        except ValidationError as exc:
            counts[f"perm_of rejects: {str(exc).split(' rank(')[0]}"] += 1
        else:
            if compress(v)[0] != board.region:
                counts["region mismatches"] += 1
            if report.passed:
                counts["minimal and accepted"] += 1
                try:
                    family = ladder._zipped(board)[2]
                except ValidationError as exc:
                    counts[f"_zipped rejects a minimal board: {exc}"] += 1
                else:
                    routes.update(repr(family.routes).encode())
                    elbows.update(repr(ladder.elbows(board, family)).encode())
        n, constraints, w = last
        try:
            reference = rank_envelope_perm(n, constraints)
        except ValidationError:
            counts["envelope is not a permutation rank matrix"] += 1
            continue
        counts["same w" if w == reference else "different w"] += 1
    for key, value in counts.items():
        print(f"{key}: {value}")
    print(f"zipped routes sha256: {routes.hexdigest()}")
    print(f"zipped elbows sha256: {elbows.hexdigest()}")
    print(f"validate_minimal sha256: {verdicts.hexdigest()}")
    print(f"minimal with a cell in no generator: {uncovered}")
    return int(counts["same w"] != counts["boards"] or counts["region mismatches"] > 0)


if __name__ == "__main__":
    sys.exit(main())
