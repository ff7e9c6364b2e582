"""Command-line workflow.

Exit codes are part of the contract:

* 0 - success (empty validation report, completed walk, certificate emitted)
* 1 - parse or schema error in the scenario file or command line, a
  scenario file that cannot be read, an output file that cannot be
  written, or standard output cannot be written (closed pipe, full device)
* 2 - refusal: validation failure, impossible wall crossing, a codimension-4
  surface minimum or maximum, failed maximum
* 3 - strict mode only: the walk completed but certification failed
* 4 - internal invariant breach (always a bug)
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    BootstrapError,
    DhwalkError,
    GluingError,
    PreconditionError,
    ScenarioFormatError,
    WalkError,
)
from .io import (
    dump_scenario,
    load_scenario,
    profile_csv,
    profile_svg,
    profile_text,
    trace_csv,
    trace_text,
)
from .lattice import default_lattice, exceptional_classes
from .scenario import validate_structure

# ``walk``, ``classify`` and ``rigidity`` (with ``family``) are imported by the
# commands that run them, so ``validate`` and ``lattice exc`` never load them.

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_REFUSED = 2
EXIT_UNCERTIFIED = 3
EXIT_INTERNAL = 4


class _StdoutClosed(Exception):
    """Standard output refused a write: a closed pipe or a full device."""


def _emit(text: str) -> None:
    """Write to standard output and flush, so a failing stream fails here."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as err:
        raise _StdoutClosed(err.strerror or repr(err)) from err


def _load(path):
    """Parse under the digit limit, then lift it: derived denominators outgrow it."""
    data = load_scenario(path)
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7
        sys.set_int_max_str_digits(0)  # ``main`` restores it
    return data


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for refusals
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _build_parser() -> _Parser:
    """The command line; each command's parser names the function that runs it."""
    parser = _Parser(prog="dhwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural validation report for a scenario file")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("file")

    p = sub.add_parser("walk", help="run the wall-crossing walk and print the trace")
    p.set_defaults(run=_cmd_walk)
    p.add_argument("file")
    p.add_argument("--trace", choices=["text", "csv"], default="text")
    p.add_argument(
        "--strict", action="store_true", help="fail (exit 3) on uncertified intervals"
    )

    p = sub.add_parser("classify", help="emit a classification certificate or a refusal")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("file")

    p = sub.add_parser("dh-profile", help="tabulate or plot the piecewise volume")
    p.set_defaults(run=_cmd_profile)
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--emit", choices=["csv", "svg", "text"], default="text")

    p = sub.add_parser("lattice", help="lattice utilities")
    lattice_sub = p.add_subparsers(dest="lattice_command", required=True)
    pe = lattice_sub.add_parser("exc", help="enumerate exceptional classes")
    pe.set_defaults(run=_cmd_lattice_exc)
    pe.add_argument("-k", type=int, required=True, help="blow-up count")

    p = sub.add_parser("bootstrap", help="recover full fixed point data from small data")
    p.set_defaults(run=_cmd_bootstrap)
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("rigidity-table", help="print the cited rigidity facts")
    p.set_defaults(run=_cmd_rigidity_table)
    return parser


def _cmd_validate(args) -> int:
    data = _load(args.file)
    report = validate_structure(data)
    if report.ok:
        _emit(f"{data.name}: structurally valid ({len(data.levels)} levels)\n")
        return EXIT_OK
    _emit("".join(f"{line}\n" for line in report.lines()))
    return EXIT_REFUSED


def _cmd_walk(args) -> int:
    from .rigidity import certify
    from .walk import run_walk

    data = _load(args.file)
    trace = run_walk(data)
    _emit(trace_csv(trace) if args.trace == "csv" else trace_text(trace))
    if trace.final_report is not None and not trace.final_report.passed:
        print("walk refused: maximum data inconsistent", file=sys.stderr)
        return EXIT_REFUSED
    if args.strict:
        certification = certify(trace)
        if not certification.certified:
            print(f"strict mode: {certification.reason}", file=sys.stderr)
            return EXIT_UNCERTIFIED
    return EXIT_OK


def _cmd_classify(args) -> int:
    from .classify import Certificate, classify

    data = _load(args.file)
    outcome = classify(data)
    _emit("".join(f"{line}\n" for line in outcome.lines()))
    return EXIT_OK if isinstance(outcome, Certificate) else EXIT_REFUSED


def _cmd_profile(args) -> int:
    if args.samples < 1:
        print("sample count must be positive", file=sys.stderr)
        return EXIT_PARSE
    from .walk import run_walk

    data = _load(args.file)
    trace = run_walk(data)
    emit = {"csv": profile_csv, "svg": profile_svg, "text": profile_text}[args.emit]
    _emit(emit(trace, args.samples))
    return EXIT_OK


def _cmd_lattice_exc(args) -> int:
    if args.k < 0:
        print("blow-up count must be nonnegative", file=sys.stderr)
        return EXIT_PARSE
    if 9 - args.k <= 0:  # K.K of the plane blown up k times, read before the lattice is built
        print(
            f"blow-up count must be at most 8: the plane blown up {args.k} times has "
            f"K.K = {9 - args.k} and so infinitely many exceptional classes",
            file=sys.stderr,
        )
        return EXIT_PARSE
    lattice = default_lattice(args.k)
    classes = exceptional_classes(lattice)
    lines = [f"# {len(classes)} exceptional classes on the {args.k}-fold blow-up"]
    lines += [f"{lattice.name_of(c)} = {c.integer_coeffs()}" for c in classes]
    _emit("".join(f"{line}\n" for line in lines))
    return EXIT_OK


def _cmd_bootstrap(args) -> int:
    from .classify import small_data_bootstrap

    data = _load(args.file)
    full = small_data_bootstrap(data)
    dump_scenario(full, args.output)
    filled = sum(1 for lv in full.levels if lv.euler_minus is not None)
    _emit(f"wrote full fixed point data to {args.output} ({filled} levels with bundle data)\n")
    return EXIT_OK


def _cmd_rigidity_table(args) -> int:
    from .rigidity import citation_table

    _emit(f"{citation_table()}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        return args.run(args)
    except _StdoutClosed as err:
        print(f"error: cannot write to standard output: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (WalkError, PreconditionError, BootstrapError, GluingError) as err:
        print(f"refused: {err}", file=sys.stderr)
        return EXIT_REFUSED
    except DhwalkError as err:
        print(f"internal invariant breach (this is a bug): {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as err:  # noqa: BLE001 - the contract maps bugs to exit 4
        print(f"internal error (this is a bug): {err!r}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    raise SystemExit(main())
