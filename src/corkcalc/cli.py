"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage or parse error (including a datum file that fails ``validate``),
3 I/O failure, 4 internal error (an exception that is not a
``CorkCalcError``: a fault of corkcalc, never a verdict on the input).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import datum as datum_io
from . import families, scripts, stein, suites
from .errors import CorkCalcError, DatumFormatError, FrontFormatError
from .invariants import boundary_h1, homology, intersection_form
from .linalg import is_diag_minus_one
from .moves import trace_from_text
from .presentations import (TIETZE_BUDGET, GroupPresentation, pi1_presentation,
                            tietze_simplify)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class _CliError(Exception):
    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _CliError(f"cannot read {path}: {e}", EXIT_IO) from e


@contextmanager
def _output(path: str | None):
    """The stream to write to: stdout for no path or ``-``, else the opened
    file, where an OSError exits 3 with ``cannot write``."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as f:
            yield f
    except OSError as e:
        raise _CliError(f"cannot write {path}: {e}", EXIT_IO) from e


def _write_text(path: str | None, text: str) -> None:
    with _output(path) as f:
        f.write(text)


def _load_datum(path: str):
    """Parse and validate a datum file; a parse error or violation exits 2."""
    text = _read_text(path)
    try:
        d = datum_io.loads(text)
    except DatumFormatError as e:
        where = f" (line {e.line})" if e.line else ""
        raise _CliError(f"{path}: {e}{where}", EXIT_USAGE) from e
    report = datum_io.validate(d)
    if not report.ok:
        raise _CliError(f"{path}: invalid datum\n{report}", EXIT_USAGE)
    return d


def _emit(report: dict, fmt: str, out: str | None) -> None:
    """Write a report. JSON goes out chunk by chunk as it is encoded, so the
    whole text, ``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, is
    never held at once."""
    if fmt == "md":
        _write_text(out, _markdown(report))
        return
    with _output(out) as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def _markdown(obj: dict) -> str:
    lines = ["# report", ""]

    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                if isinstance(value[k], (dict, list)) and value[k]:
                    walk(f"{prefix}{k}.", value[k])
                else:
                    lines.append(f"- `{prefix}{k}`: {value[k]}")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, (dict, list)) and item:
                    walk(f"{prefix}{i}.", item)
                else:
                    lines.append(f"- `{prefix}{i}`: {item}")

    walk("", obj)
    return "\n".join(lines) + "\n"


# --- gen -----------------------------------------------------------------------

def _build_Cm(n: int, m: int):
    if n != 1:
        raise CorkCalcError(f"family Cm is the wheel of size one: needs n = 1, got {n}")
    return families.build_Cm(m)


# family letter -> (builder, the gen arguments it takes, in order); a family
# needs each of --seq and --i that it takes and refuses the others
_FAMILIES = {
    "C": (families.build_C, ("n", "m")),
    "D": (families.build_D, ("n", "m")),
    "E": (families.build_E, ("n", "m")),
    "F": (families.build_F, ("n", "m")),
    "W": (families.build_W, ("n", "m")),
    "X": (families.build_X, ("n", "m", "seq")),
    "Z": (families.build_Z, ("n", "m", "i")),
    "Cm": (_build_Cm, ("n", "m")),
}


def _generate(args) -> int:
    builder, takes = _FAMILIES[args.family]
    for option in ("seq", "i"):
        value = getattr(args, option)
        if option in takes and value in (None, ""):
            raise _CliError(f"family {args.family} needs --{option}", EXIT_USAGE)
        if option not in takes and value is not None:
            raise _CliError(f"family {args.family} does not read --{option}", EXIT_USAGE)
    try:
        d = builder(*(getattr(args, name) for name in takes))
    except CorkCalcError as e:
        raise _CliError(str(e), EXIT_USAGE) from e
    _write_text(args.out, datum_io.dumps(d))
    return EXIT_OK


# --- invariants -------------------------------------------------------------------

def _invariants(args) -> int:
    d = _load_datum(args.datum)
    prof = homology(d)
    boundary = boundary_h1(d)
    _, certified = tietze_simplify(pi1_presentation(d), args.budget)
    verdict = is_diag_minus_one(intersection_form(d))
    report = {
        "h1": list(prof.h1_invariants),
        "b2": prof.b2,
        "boundary_invariants": list(boundary.invariant_factors),
        "is_homology_sphere": boundary.is_homology_sphere,
        "pi1_certified_trivial": certified,
        "form_diag_minus_one": (True if verdict.verdict is True
                                else False if verdict.verdict is False
                                else "inconclusive"),
    }
    _emit(report, args.format, args.out)
    return EXIT_OK


# --- verify -----------------------------------------------------------------------

def _verify(args) -> int:
    try:
        suites.resolve_suite(args.suite)
    except KeyError as e:
        raise _CliError(str(e), EXIT_USAGE) from e
    grid = {key: getattr(args, key) for key in suites.GRID_MINIMUM}
    result = suites.run_suite(args.suite, grid, jobs=args.jobs)
    if not result.cases:
        raise _CliError(f"the grid of {args.suite} has no cases; nothing was verified",
                        EXIT_USAGE)
    report = result.to_dict()
    _emit(report, args.format, args.out)
    for failure in result.failures:
        print(f"FAIL {failure.case}: {failure.details}", file=sys.stderr)
    return EXIT_OK if result.passed else EXIT_VERIFY_FAILED


# --- replay -----------------------------------------------------------------------

def _replay(args) -> int:
    d = _load_datum(args.datum)
    text = _read_text(args.trace)
    try:
        trace = trace_from_text(text)
    except CorkCalcError as e:
        raise _CliError(f"{args.trace}: bad trace file: {e}", EXIT_USAGE) from e
    report, result = scripts.check_trace(d, trace)
    if result is not None and args.out_datum:
        _write_text(args.out_datum, datum_io.dumps(result))
    _emit(report, args.format, args.out)
    return EXIT_OK if result is not None else EXIT_VERIFY_FAILED


# --- simplify ----------------------------------------------------------------------

def _simplify(args) -> int:
    text = _read_text(args.presentation)
    try:
        pres = GroupPresentation.from_dict(json.loads(text))
    except (ValueError, RecursionError, CorkCalcError) as e:  # ValueError: JSON too
        raise _CliError(f"{args.presentation}: bad presentation file: {e}",
                        EXIT_USAGE) from e
    simplified, certified = tietze_simplify(pres, args.budget)
    report = {
        "certified_trivial": certified,
        "generators": list(simplified.generators),
        "relators": [r.serialize() for r in simplified.relators],
        "abelianization": list(simplified.abelianization()),
        "moves_applied": len(simplified.move_log),
    }
    _emit(report, args.format, args.out)
    return EXIT_OK


# --- stein-check --------------------------------------------------------------------

def _stein_check(args) -> int:
    d = _load_datum(args.datum)
    text = _read_text(args.front)
    try:
        doc = stein.front_from_text(text)
    except FrontFormatError as e:
        where = f" (line {e.line})" if e.line else ""
        raise _CliError(f"{args.front}: {e}{where}", EXIT_USAGE) from e
    try:
        report = stein.stein_check(d, doc.front, doc.correspondence_dict)
    except CorkCalcError as e:
        raise _CliError(str(e), EXIT_USAGE) from e
    _emit(report.to_dict(), args.format, args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# --- argument parsing ----------------------------------------------------------------

def _int_at_least(minimum: int):
    """The argparse type of an integer flag of at least ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)  # argparse names the flag and "integer" when this fails
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corkcalc",
        description="Exact symbolic calculus on handle-decomposition data.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family datum file")
    gen.add_argument("family", choices=_FAMILIES)
    gen.add_argument("n", type=int)
    gen.add_argument("m", type=int)
    gen.add_argument("--seq", help="{*,0}-sequence literal, e.g. '*00'")
    gen.add_argument("--i", type=int, help="extra index for the Z family")
    gen.add_argument("-o", "--out", default=None, help="output path (default stdout)")

    inv = sub.add_parser("invariants", help="homology/boundary/form report for a datum file")
    inv.add_argument("datum")
    inv.add_argument("--budget", type=_int_at_least(suites.GRID_MINIMUM["budget"]),
                     default=TIETZE_BUDGET)
    inv.add_argument("--format", choices=("json", "md"), default="json")
    inv.add_argument("-o", "--out", default=None)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite")
    for key, least in suites.GRID_MINIMUM.items():
        ver.add_argument("--" + key.replace("_", "-"), dest=key,
                         type=_int_at_least(least), default=None)
    ver.add_argument("--jobs", type=_int_at_least(1), default=1)
    ver.add_argument("--format", choices=("json", "md"), default="json")
    ver.add_argument("-o", "--out", default=None)

    rep = sub.add_parser("replay", help="replay a move trace against a datum file")
    rep.add_argument("datum")
    rep.add_argument("trace")
    rep.add_argument("--out-datum", default=None, help="write the final datum here")
    rep.add_argument("--format", choices=("json", "md"), default="json")
    rep.add_argument("-o", "--out", default=None)

    simp = sub.add_parser("simplify", help="Tietze-simplify a presentation file")
    simp.add_argument("presentation")
    simp.add_argument("--budget", type=_int_at_least(suites.GRID_MINIMUM["budget"]),
                      default=TIETZE_BUDGET)
    simp.add_argument("--format", choices=("json", "md"), default="json")
    simp.add_argument("-o", "--out", default=None)

    sc = sub.add_parser("stein-check", help="framing criterion for a datum and front file")
    sc.add_argument("datum")
    sc.add_argument("front")
    sc.add_argument("--format", choices=("json", "md"), default="json")
    sc.add_argument("-o", "--out", default=None)

    return parser


_COMMANDS = {
    "gen": _generate,
    "invariants": _invariants,
    "verify": _verify,
    "replay": _replay,
    "simplify": _simplify,
    "stein-check": _stein_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except CorkCalcError as e:
        print(f"error [{e.code}]: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # exit 1 must mean only that a verification failed
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
