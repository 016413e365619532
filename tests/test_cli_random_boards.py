"""Pins of `klreg ladder --file F --oracle --render` on seeded random board
files, rejected boards included: the boards are drawn as dicts by
knowndata.random_board_dict and handed to the CLI before `Ladder` sees
them.  Each board's (stdout, stderr, exit code) is pinned by a sha256
prefix in golden_random_boards.json, and the exit codes by their counts.

After an intended change of the output, re-record with
`PYTHONPATH=src python tests/test_cli_random_boards.py` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
from collections import Counter

from klreg import cli

from knowndata import random_board_dict

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_random_boards.json"
SEED = 2718
COUNT = 300


def _boards() -> list[dict]:
    rng = random.Random(SEED)
    boards = []
    while len(boards) < COUNT:
        board = random_board_dict(rng)
        if board is not None:
            boards.append(board)
    return boards


def _record(workdir: pathlib.Path) -> dict:
    """Exit-code counts and one sha256 prefix of [stdout, stderr, exit code]
    per board, in draw order."""
    path = workdir / "board.json"
    digests, codes = [], Counter()
    for board in _boards():
        path.write_text(json.dumps(board))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["ladder", "--file", str(path), "--oracle", "--render"])
        blob = json.dumps([out.getvalue(), err.getvalue(), code], ensure_ascii=False)
        digests.append(hashlib.sha256(blob.encode()).hexdigest()[:16])
        codes[str(code)] += 1
    return {"exit_codes": dict(sorted(codes.items())), "digests": digests}


def test_random_board_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("KLREG_BUDGET", raising=False)
    got = _record(tmp_path)
    want = json.loads(GOLDEN.read_text())
    assert got["exit_codes"] == want["exit_codes"]
    changed = [k for k, (a, b) in enumerate(zip(got["digests"], want["digests"])) if a != b]
    assert not changed, [_boards()[k] for k in changed[:5]]
    assert len(got["digests"]) == len(want["digests"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = _record(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden['digests'])} digests, exit codes {golden['exit_codes']}, to {GOLDEN}", file=sys.stderr)
