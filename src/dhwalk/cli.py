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

import sys
from types import SimpleNamespace

from .errors import DhwalkError, PreconditionError, ScenarioFormatError, WalkError
from .lattice import default_lattice, exceptional_classes

# One command table; each command imports the modules it runs, so ``lattice exc``
# and ``rigidity-table`` load neither ``io`` (and JSON) nor the walk.

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
    from .io import load_scenario

    data = load_scenario(path)
    if hasattr(sys, "set_int_max_str_digits"):  # absent before Python 3.10.7
        sys.set_int_max_str_digits(0)  # ``main`` restores it
    return data


def _spelled(flags: str, option: tuple) -> str:
    """An option as usage shows it: ``[--trace {text,csv}]``, ``[--strict]`` or ``-k K``."""
    dest, default, kind, _ = option
    if kind is not bool:
        flags += f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else f" {dest.upper()}"
    return flags if default is None else f"[{flags}]"


def _exit(name: str, error: str = ""):
    """Help for a command or for ``dhwalk`` (stdout, exit 0), or a usage error (stderr, exit 1)."""
    if name:
        _, text, positionals, options = _COMMANDS[name]
        rows = [f"  {_spelled(f, o):<22} {o[3]}\n" for f, o in {**_HELP, **options}.items()]
    else:
        text, positionals, options = __doc__.splitlines()[0], [f"{{{','.join(_COMMANDS)}}} ..."], {}
        rows = [f"  {n:<22} {command[1]}\n" for n, command in _COMMANDS.items()]
    parts = [_spelled(f.split("/")[0], o) for f, o in options.items()]
    usage = " ".join([f"usage: {f'dhwalk {name}'.strip()} [-h]", *parts, *positionals])
    if error:
        print(f"{usage}\n{f'dhwalk {name}'.strip()}: error: {error}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    _emit(f"{usage}\n\n{text}\n\n{'options' if name else 'commands'}:\n{''.join(rows)}")
    raise SystemExit(EXIT_OK)


def _positional(token: str) -> bool:
    """Not an option: plain words, ``-`` and negative numbers (``--samples -3``)."""
    return token[:1] != "-" or token == "-" or token[1:].replace(".", "", 1).isdecimal()


def _parse(argv: list):
    """``(runner, args)`` for a command line: ``--opt=value``, ``-k4`` and long prefixes too."""
    name = next((n for n in _COMMANDS if argv[: len(n.split())] == n.split()), "")
    # with no command named, ``dhwalk`` itself is read: ``-h`` and one positional
    run, _, positionals, options = _COMMANDS.get(name, (None, "", ("command",), {}))
    options = {**_HELP, **options}
    values, given = {o[0]: o[1] for o in options.values()}, []
    tokens = iter(argv[len(name.split()):])
    for token in tokens:
        if token == "--" or _positional(token):
            given += tokens if token == "--" else [token]
            continue
        key, eq, value = token.partition("=") if token[:2] == "--" else (
            token[:2], "", token[2:].removeprefix("="))
        found = {f for f in options if any(s.startswith(key) for s in f.split("/"))}
        (flags,) = found if len(found) == 1 else _exit(name, f"unrecognized arguments: {token}")
        dest, _, kind, _ = options[flags]
        if kind is bool and (eq or value):
            _exit(name, f"argument {flags}: ignored explicit argument {value!r}")
        if kind is not bool and not (eq or value):
            value = next(tokens, "--")  # none left reads as an option would
            if not _positional(value):
                _exit(name, f"argument {flags}: expected one argument")
        try:  # a flag, a choice, or a converter's value
            values[dest] = True if kind is bool else (
                kind[kind.index(value)] if isinstance(kind, tuple) else kind(value))
        except ValueError:
            what = "choice" if isinstance(kind, tuple) else f"{kind.__name__} value"
            _exit(name, f"argument {flags}: invalid {what}: {value!r}")
    missing = [*positionals[len(given):], *(f for f, o in options.items() if values[o[0]] is None)]
    if values.pop("help"):
        _exit(name)
    if missing:
        _exit(name, f"the following arguments are required: {', '.join(missing)}")
    if run is None:
        _exit(name, f"argument command: invalid choice: {given[0]!r}")
    if given[len(positionals):]:
        _exit(name, f"unrecognized arguments: {' '.join(given[len(positionals):])}")
    return run, SimpleNamespace(**values, **dict(zip(positionals, given)))


def _cmd_validate(args) -> int:
    from .scenario import validate_structure

    data = _load(args.file)
    report = validate_structure(data)
    if report.ok:
        _emit(f"{data.name}: structurally valid ({len(data.levels)} levels)\n")
        return EXIT_OK
    _emit("".join(f"{line}\n" for line in report.lines()))
    return EXIT_REFUSED


def _cmd_walk(args) -> int:
    from .io import trace_csv, trace_text
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
    from .io import profile_csv, profile_svg, profile_text
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
    from .io import dump_scenario

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


# command -> (runner, help, positionals, {option strings: (dest, default, kind, help)}); a kind
# is ``bool`` (a flag), a tuple of choices or a converter; a ``None`` default makes it required
_COMMANDS = {
    "validate": (_cmd_validate, "structural validation report for a scenario file", ("file",), {}),
    "walk": (_cmd_walk, "run the wall-crossing walk and print the trace", ("file",), {
        "--trace": ("trace", "text", ("text", "csv"), "trace format"),
        "--strict": ("strict", False, bool, "fail (exit 3) on uncertified intervals")}),
    "classify": (_cmd_classify, "emit a classification certificate or a refusal", ("file",), {}),
    "dh-profile": (_cmd_profile, "tabulate or plot the piecewise volume", ("file",), {
        "--samples": ("samples", 64, int, "sample count"),
        "--emit": ("emit", "text", ("csv", "svg", "text"), "output format")}),
    "lattice exc": (_cmd_lattice_exc, "enumerate exceptional classes", (), {
        "-k": ("k", None, int, "blow-up count")}),
    "bootstrap": (_cmd_bootstrap, "recover full fixed point data from small data", ("file",), {
        "-o/--output": ("output", None, str, "the full-mode scenario file to write")}),
    "rigidity-table": (_cmd_rigidity_table, "print the cited rigidity facts", (), {}),
}
_HELP = {"-h/--help": ("help", False, bool, "show this help message and exit")}


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        run, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return run(args)
    except SystemExit as exc:  # help, or a usage error
        return exc.code
    except _StdoutClosed as err:
        print(f"error: cannot write to standard output: {err}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (WalkError, PreconditionError) as err:
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
