"""One traced `cloneopt` invocation.

    python3 perfbench/cli_child.py SPANS_FILE JOB_ID CLI_ARGS...

Wraps cloneopt's functions with spans.Tracer, runs cloneopt.cli.run on
CLI_ARGS inside a `cli.run` span, writes the spans and counts to
SPANS_FILE and exits with the CLI's exit code.
"""
import json
import sys

from cloneopt import cli

from spans import Tracer


def main() -> int:
    spans_file, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.job = job_id
    tracer.install()
    try:
        code = tracer.wrap("cli.run", cli.run)(argv)
    finally:
        tracer.uninstall()
        with open(spans_file, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
