"""Command-line front end: compile, simulate, decode, check, verify.

Exit codes are a stable contract:

* 0: success (for ``check``: verdict True)
* 1: verdict False
* 2: parse error, malformed input, bad bound/depth, or an output file
  that cannot be written
* 3: machine validation failure
* 4: simulation reached the error state
* 5: verdict Unknown

Verdict and report payloads are deterministic; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .cgs import CgsError, cgs_to_json, load_cgs
from .comptree import is_complete_level, levels_to_json, to_dot
from .formulas import FormulaSyntaxError, parse_formula
from .mc import BoundTooSmall, Truth, check
from .reduction import (
    RIGHTMOST_LABELS,
    ReductionCgs,
    build_cgs,
    decode_level,
    error_level,
    simulation_tree,
    verify_construction,
)
from .turing import MachineDocumentError, MalformedMachine, load_tm

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_PARSE = 2
EXIT_BAD_MACHINE = 3
EXIT_ERR_STATE = 4
EXIT_UNKNOWN = 5


class _Failure(Exception):
    """An error exit: ``main`` prints the message and returns the code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path, load, rejected: dict, unreadable):
    """``load(path)``, failing on a missing file, on errors of the types in
    ``unreadable`` (the file cannot be read), and on errors of the types that
    ``rejected`` maps to exit codes, where the first type that matches decides."""
    try:
        return load(path)
    except FileNotFoundError:
        raise _Failure(EXIT_PARSE, f"no such file: {path}") from None
    except tuple(rejected) as exc:
        code = next(code for kind, code in rejected.items() if isinstance(exc, kind))
        raise _Failure(code, str(exc)) from exc
    except unreadable as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _Failure(EXIT_PARSE, f"cannot read {path}: {reason}") from None


def _write(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Failure(EXIT_PARSE, f"cannot write {path}: {exc.strerror or exc}") from None


def _load_machine(path) -> ReductionCgs:
    """The compiled game of the machine file at ``path``."""
    # unreadable documents are parse errors; machines that parse but
    # fail validation are rejected with their own code
    return _read(
        path,
        lambda p: build_cgs(load_tm(p)),
        {MachineDocumentError: EXIT_PARSE, MalformedMachine: EXIT_BAD_MACHINE},
        OSError,
    )


def cmd_reduce(args) -> int:
    rc = _load_machine(args.machine)
    for warning in rc.lint:
        print(f"warning: {warning}", file=sys.stderr)
    out = json.dumps(cgs_to_json(rc.cgs), indent=2) + "\n"
    if args.output:
        _write(args.output, out)
    else:
        sys.stdout.write(out)
    print(f"states: {len(rc.cgs.states)}")
    print(f"actions: {len(rc.cgs.actions)}")
    print(f"transitions: {len(rc.cgs.delta)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    rc = _load_machine(args.machine)
    if args.depth < 0:
        raise _Failure(EXIT_PARSE, "depth must be non-negative")
    t = simulation_tree(rc, args.depth)
    if args.format == "dot":
        out = to_dot(rc.cgs, t)
    else:
        out = json.dumps({"levels": levels_to_json(t, RIGHTMOST_LABELS)}, indent=2) + "\n"
    err_level = error_level(t)
    decoded = []
    if args.decode:
        # levels from the error state on encode no configuration
        stop = args.depth + 1 if err_level is None else err_level
        for n in range(3, stop, 2):
            if is_complete_level(t, n):
                decoded.append((n, "".join(decode_level(rc, t, n))))
    if args.output:
        _write(args.output, out)
        prefix = ""
    else:
        sys.stdout.write(out)
        # keep stdout parseable when the tree itself went there
        prefix = "// " if args.format == "dot" else ""
    for n, word in decoded:
        print(f"{prefix}level {n}: {word}")
    if err_level is not None:
        print(f"error state reached at level {err_level}", file=sys.stderr)
        return EXIT_ERR_STATE
    return EXIT_OK


_JOB_FIELDS = (("cgs", str), ("state", str), ("formula", str), ("bound", int))


def _read_job(path) -> tuple:
    """The structure path, state, formula text and bound of a job file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
        fields = tuple(job[name] for name, _ in _JOB_FIELDS)
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        raise _Failure(EXIT_PARSE, f"bad job file: {exc}") from None
    for (name, kind), value in zip(_JOB_FIELDS, fields):
        # exact types: a bool is not a bound, and a number is not a path
        if type(value) is not kind:
            wanted = "a string" if kind is str else "an integer"
            raise _Failure(
                EXIT_PARSE,
                f"bad job file: {name} must be {wanted}, not {type(value).__name__}",
            )
    return fields


def cmd_check(args) -> int:
    if args.job:
        cgs_path, state, formula_text, bound = _read_job(args.job)
    elif args.cgs and args.state and args.formula and args.bound is not None:
        cgs_path, state, formula_text, bound = args.cgs, args.state, args.formula, args.bound
    else:
        raise _Failure(
            EXIT_PARSE,
            "need a game structure, --state, --formula and --bound (or a --job file)",
        )
    g = _read(
        cgs_path,
        functools.partial(load_cgs, allow_invalid=args.allow_invalid),
        {CgsError: EXIT_PARSE},
        # a directory, an unreadable file, or a name no file can have (a
        # job file's path may hold a NUL character)
        (OSError, ValueError),
    )
    try:
        f = parse_formula(formula_text)
        started = time.perf_counter()
        verdict = check(g, state, f, bound)
    except (FormulaSyntaxError, BoundTooSmall, CgsError) as exc:
        raise _Failure(EXIT_PARSE, str(exc)) from exc
    elapsed = time.perf_counter() - started
    print(json.dumps(verdict.to_json(), indent=2))
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    if verdict.value is Truth.TRUE:
        return EXIT_OK
    if verdict.value is Truth.FALSE:
        return EXIT_FALSE
    return EXIT_UNKNOWN


def cmd_verify_claims(args) -> int:
    rc = _load_machine(args.machine)
    if args.depth < 3:
        raise _Failure(EXIT_PARSE, "depth must be at least 3")
    report = verify_construction(rc, args.depth)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(f"{'claim':>5}  {'sub':>5}  {'level':>5}  {'pass':>5}  detail")
        for e in report.entries:
            lvl = "-" if e.level is None else str(e.level)
            print(
                f"{e.claim:>5}  {e.subclaim:>5}  {lvl:>5}  "
                f"{'ok' if e.passed else 'FAIL':>5}  {e.detail}"
            )
        good = sum(1 for e in report.entries if e.passed)
        print(f"{good}/{len(report.entries)} checks passed to depth {report.depth}")
    return EXIT_OK if report.all_pass else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlir",
        description=(
            "Workbench for bounded ATL model checking under imperfect "
            "information and perfect recall, with a Turing-machine-to-game "
            "compiler."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="compile a machine into its game structure")
    p.add_argument("machine", help="machine file (JSON)")
    p.add_argument("-o", "--output", help="write the game structure here")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("simulate", help="saturate the simulation tree and export it")
    p.add_argument("machine", help="machine file (JSON)")
    p.add_argument("-d", "--depth", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--decode", action="store_true", help="print decoded odd levels")
    p.add_argument("-o", "--output", help="write the tree here instead of stdout")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("check", help="check a formula on a game structure")
    p.add_argument("cgs", nargs="?", help="game structure file (JSON)")
    p.add_argument("--state", help="state to check at")
    p.add_argument("--formula", help="formula text, e.g. '<<1,2>> G ok'")
    p.add_argument("-b", "--bound", type=int, help="search depth")
    p.add_argument("--job", help="checking-job file {cgs, state, formula, bound}")
    p.add_argument(
        "--allow-invalid",
        action="store_true",
        help="load structures that fail validation anyway",
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "verify-claims", help="machine-check the compiled game's structural laws"
    )
    p.add_argument("machine", help="machine file (JSON)")
    p.add_argument("-d", "--depth", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_verify_claims)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, not at import.

    Nothing in it depends on ``argv``, and parsing does not change it, so
    one build serves every call in the process.  The subcommand functions
    are bound at that build.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    raise SystemExit(main())
