"""Byte-for-byte pins of the CLI on the worked boards and pairs: stdout,
stderr and exit code of `klreg ladder --file F --oracle --render` on the
demo board files and the boards of knowndata, and of
`klreg pair --render --oracle --recurrence` on two worked pairs, as
recorded in golden_cli.json.  One changed glyph, key or number fails.
The scripts that `klreg ladder --file F --export-ideal S` writes for the
two demo boards are pinned by their sha256 and size.

After an intended change of the output, re-record with
`PYTHONPATH=src python tests/test_golden_cli.py` and review the diff.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

import pytest

from klreg import cli
from klreg.ladder import ladder_to_json

from knowndata import LAD_A, LAD_B, LAD_C, LAD_D, LAD_EMPTYW, LAD_FULL, V10, V11, W10, W11

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"

BOARDS = {f"ladder {p.name}": p.read_text() for p in sorted((ROOT / "demos" / "boards").glob("*.json"))}
BOARDS.update(
    (f"ladder {name}", json.dumps(ladder_to_json(lad)))
    for name, lad in (
        ("LAD_A", LAD_A), ("LAD_B", LAD_B), ("LAD_C", LAD_C),
        ("LAD_D", LAD_D), ("LAD_FULL", LAD_FULL), ("LAD_EMPTYW", LAD_EMPTYW),
    )
)
PAIRS = {"pair V10 W10": (V10, W10), "pair V11 W11": (V11, W11)}
CASES = sorted({**BOARDS, **PAIRS})
EXPORTS = {  # demo board -> (sha256, bytes) of its --export-ideal script
    "small_board": ("54d75f7d6f392c14d77ccd899f9e8742e2a21781156008e4588f038368bc96bb", 1215),
    "large_board": ("a18a586a7814585152629d7adcda8238538a8797f1487c026c08d309be1e01c5", 79073),
}


def _capture(name: str, workdir: pathlib.Path) -> list:
    """[stdout, stderr, exit code] of the CLI on the case `name`."""
    if name in PAIRS:
        v, w = PAIRS[name]
        argv = ["pair", "--v", json.dumps(list(v.word)), "--w", json.dumps(list(w.word))]
        argv += ["--render", "--oracle", "--recurrence"]
    else:
        path = workdir / "board.json"
        path.write_text(BOARDS[name])
        argv = ["ladder", "--file", str(path), "--oracle", "--render"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [out.getvalue(), err.getvalue(), code]


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == CASES


@pytest.mark.parametrize("name", CASES)
def test_cli_output_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.delenv("KLREG_BUDGET", raising=False)
    assert _capture(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("board", sorted(EXPORTS))
def test_export_ideal_script_is_pinned(board, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("KLREG_BUDGET", raising=False)
    script = tmp_path / "ideal.m2"
    path = ROOT / "demos" / "boards" / f"{board}.json"
    assert cli.main(["ladder", "--file", str(path), "--export-ideal", str(script)]) == 0
    data = script.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == EXPORTS[board]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: _capture(name, pathlib.Path(tmp)) for name in CASES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)
