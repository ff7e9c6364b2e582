"""Run one ``dhwalk`` command in this fresh interpreter with the tracer installed.

Usage: python perfbench/tracecli.py SPANS_JSON <dhwalk arguments...>

Behaves like ``python -m dhwalk.cli <arguments>`` (same output, same exit
code) and writes the recorded spans to SPANS_JSON when the command ends.
"""

import sys

import dhwalk.cli

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = dhwalk.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
