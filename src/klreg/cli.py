"""Command-line interface.

Subcommands:
  klreg pair   --v <perm> --w <perm> [--render] [--oracle] [--recurrence]
  klreg ladder --file <path> [--render] [--oracle] [--export-ideal <path>]
  klreg sweep  --n <k> --samples <m> [--seed <s>]

Permutations are JSON arrays or separator-delimited words; compact digit
strings are accepted only below S_10.  The KLREG_BUDGET environment
variable, a positive integer, overrides the budget of the oracle
enumerations, of the recurrence and of --export-ideal's minors; --n and
--samples are non-negative.  Options are spelled in full, as --flag value
or --flag=value; --help prints this text.  Exit codes: 0 success, 1 oracle
disagreement, 2 parse or usage error or a report or this text that cannot
be written, 3 validation error, 4 budget exhausted (what the enumeration
counted goes to stderr as one JSON line) or memory run out, 5 internal
fault (a failed invariant or any other crash; the traceback goes to
stderr).  sweep always prints its report: a sample whose recurrence or
oracle runs out of budget or memory is listed under "exhausted" with what
it counted (null for memory), and it exits 1 on any disagreement, else 4
if any sample ran out, else 0.
"""

from __future__ import annotations

import json
import os
import random
import sys
import traceback

from . import ladder as lad
from . import oracle, zipdiag
from .errors import DEFAULT_BUDGET, ParseError, ResourceError, ValidationError
from .perm import Permutation
from .skew import render_diagram

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


def parse_permutation(text: str) -> Permutation:
    """JSON array, separated word, or (below S_10 only) compact digits."""
    text = text.strip()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, list) and all(type(x) is int for x in data):  # bool is not an entry
        try:
            return Permutation(tuple(data))
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc
    cleaned = text.replace(",", " ").split()
    if len(cleaned) > 1:
        try:
            return Permutation(tuple(int(x) for x in cleaned))
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"bad permutation word {text!r}: {exc}") from exc
    if text.isdecimal():  # isdigit() also accepts superscripts, which int() rejects
        if len(text) > 9:
            raise ParseError(
                f"{text!r} is ambiguous: entries above 9 need separators or JSON"
            )
        try:
            return Permutation(tuple(int(ch) for ch in text))
        except ValidationError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"cannot parse permutation from {text!r}")


def _budget() -> int:
    env = os.environ.get("KLREG_BUDGET")
    if env is None:
        return DEFAULT_BUDGET
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ParseError(f"KLREG_BUDGET must be a positive integer, got {env!r}")
    return budget


def run_pair(opts: dict) -> tuple[dict, int]:
    v = parse_permutation(opts["v"])
    w = parse_permutation(opts["w"])
    result = zipdiag.zip_result(v, w)
    report = {
        "mode": "pair",
        "v": list(v.word),
        "w": list(w.word),
        "ell_v": result.region.size(),
        "ell_w": result.d_top.size(),
        "groth_degree": result.degree,
        "regularity": result.regularity,
        "a_invariant": result.a_invariant,
    }
    code = EXIT_OK
    if opts.get("recurrence"):
        report["recurrence_degree"] = zipdiag.groth_degree_recursive(v, w, budget=_budget())
    if opts.get("oracle"):
        closure_max = oracle.max_closure_size(v, w, budget=_budget())
        agree = closure_max == result.degree
        report["oracle"] = {
            "closure_max": closure_max,
            "verdict": "AGREE" if agree else "DISAGREE",
        }
        if not agree:
            code = EXIT_DISAGREE
    if opts.get("render"):
        extra = result.d_zip_k.pluses - result.d_zip.pluses
        report["render"] = {
            "d_top": render_diagram(result.d_top),
            "d_zip": render_diagram(result.d_zip),
            "d_zip_k": render_diagram(result.d_zip, bold=extra),
        }
    return report, code


def run_ladder(opts: dict) -> tuple[dict, int]:
    path, target = opts["file"], opts.get("export-ideal")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    ladder = lad.ladder_from_json(data)
    minimal = lad.validate_minimal(ladder).passed
    try:
        (v, w), res, fam = lad._zipped(ladder)
    except ValidationError as exc:
        if minimal:
            raise
        raise ValidationError(f"the board is not minimal: {exc}") from exc
    reg = len(lad.elbows(ladder, fam))
    cells = ladder.region.size()
    wt = sum(map(len, fam.routes))  # the weight: the cells the paths cover
    report = {
        "mode": "ladder",
        "cells": cells,
        "weight": wt,
        "blanks_bot": cells - wt,
        "elbows": reg,
        "regularity": reg,
        "a_invariant": reg - wt,
        "ell_v": res.region.size(),
        "ell_w": res.d_top.size(),
        "v": list(v.word),
        "w": list(w.word),
        "boundary": {
            "H": [list(h) for h, _ in fam.endpoints],
            "V": [list(vpt) for _, vpt in fam.endpoints],
        },
        "minimal": minimal,
    }
    code = EXIT_OK
    if opts.get("oracle"):
        zip_reg, zip_a = res.regularity, res.a_invariant
        agree = (zip_reg, zip_a) == (reg, reg - wt)
        report["oracle"] = {
            "pair_regularity": zip_reg,
            "pair_a_invariant": zip_a,
            "verdict": "AGREE" if agree else "DISAGREE",
        }
        if not agree:
            code = EXIT_DISAGREE
    if opts.get("render"):
        report["render"] = lad.render_paths(ladder, fam)
    if target is not None:  # an empty path fails to open like any unwritable one
        from .ideals import ideal_script, ladder_generators

        gens = ladder_generators(ladder, budget=_budget())
        try:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(ideal_script(gens))
        except OSError as exc:
            raise ParseError(f"cannot write {target}: {exc}") from exc
        report["exported_ideal"] = target
    return report, code


def run_sweep(opts: dict) -> tuple[dict, int]:
    n, samples = opts["n"], opts["samples"]
    rng = random.Random(opts.get("seed", 2023))
    budget = _budget()
    disagreements = []
    exhausted = []
    checked = 0
    for _ in range(samples):
        v, w = oracle.random_avoiding_pair(rng, n)
        by_zip = zipdiag.groth_degree(v, w)
        try:
            by_closure = oracle.max_closure_size(v, w, budget=budget)
            by_rec = zipdiag.groth_degree_recursive(v, w, budget=budget)
        except (ResourceError, MemoryError) as exc:  # a MemoryError has no count
            exhausted.append({"v": list(v.word), "w": list(w.word), "partial": getattr(exc, "partial", None)})
            continue
        checked += 1
        if not by_zip == by_rec == by_closure:
            disagreements.append(
                {
                    "v": list(v.word),
                    "w": list(w.word),
                    "zip": by_zip,
                    "recurrence": by_rec,
                    "closure": by_closure,
                }
            )
    report = {
        "mode": "sweep",
        "n": n,
        "samples": samples,
        "checked": checked,
        "disagreements": disagreements,
        "exhausted": exhausted,
    }
    return report, EXIT_DISAGREE if disagreements else EXIT_RESOURCE if exhausted else EXIT_OK


INT, COUNT = "an integer", "a non-negative integer"  # a str flag takes any text, a bool flag none
COMMANDS = {  # subcommand -> (runner, {flag: kind}, required flags)
    "pair": (run_pair, {"v": str, "w": str, "render": bool, "oracle": bool, "recurrence": bool}, ("v", "w")),
    "ladder": (run_ladder, {"file": str, "render": bool, "oracle": bool, "export-ideal": str}, ("file",)),
    "sweep": (run_sweep, {"n": COUNT, "samples": COUNT, "seed": INT}, ("n", "samples")),
}


def parse_args(argv) -> tuple:
    """(runner, {flag: value}) for one command line; a usage error is a ParseError."""
    if not argv or argv[0] not in COMMANDS:
        got = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand"
        raise ParseError(f"{got}; expected pair, ladder or sweep")
    run, flags, required = COMMANDS[argv[0]]
    opts = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token[2:].partition("=")
        kind = flags.get(flag) if token.startswith("--") else None
        if kind is None:
            raise ParseError(f"unknown option {token!r} for {argv[0]}")
        if kind is bool and eq:
            raise ParseError(f"--{flag} takes no value, got {token!r}")
        if kind is not bool and not eq and (value := next(tokens, None)) is None:
            raise ParseError(f"--{flag} needs a value")
        if kind in (INT, COUNT):
            try:
                value = int(value)
            except ValueError:
                pass
            if type(value) is str or kind is COUNT and value < 0:
                raise ParseError(f"--{flag} must be {kind}, got {value}")
        opts[flag] = True if kind is bool else value
    if missing := [f"--{flag}" for flag in required if flag not in opts]:
        raise ParseError(f"{argv[0]} needs {' and '.join(missing)}")
    return run, opts


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv:
            what, text, code = "the help", __doc__, EXIT_OK
        else:
            run, opts = parse_args(argv)
            report, code = run(opts)
            what, text = "the report", json.dumps(report, sort_keys=True, indent=2) + "\n"
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # stdout full or closed, e.g. a pipe into head
            raise ParseError(f"cannot write {what}: {exc}") from exc
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        if exc.partial is not None:
            print(json.dumps(exc.partial, sort_keys=True), file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:  # a resource failure like a spent budget, not a fault in klreg
        print("budget exhausted: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as exc:  # InternalError or a crash: a fault in klreg, not in the input
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
