"""One benchmark child process: import the smoothap CLI, then run one command.

    python3 child.py STAMP [--trace FILE RUN_ID] [CLI_ARGV ...]

Writes to STAMP the CLOCK_MONOTONIC time at which `smoothap.cli` finished
importing, so the parent can time set-up from spawn; with no CLI_ARGV it
stops there.  With --trace, smoothap's layers are wrapped (see tracer.py)
before the command runs and the spans are written to FILE after it returns.
Exits with the CLI's exit code.  `src/` must be on PYTHONPATH.
"""

import sys
import time


def main(argv: list[str]) -> int:
    stamp, rest = argv[0], argv[1:]
    trace = None
    if rest[:1] == ["--trace"]:
        trace, rest = rest[1:3], rest[3:]

    import smoothap.cli

    imported = time.monotonic()
    with open(stamp, "w", encoding="utf-8") as fh:
        fh.write(repr(imported))
    if not rest:
        return 0
    if trace is None:
        return smoothap.cli.main(rest)

    import tracer

    path, run_id = trace
    tr = tracer.install(run_id)
    try:
        return tr.wrap("cli.main", smoothap.cli.main)(rest)
    finally:
        tr.write(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
