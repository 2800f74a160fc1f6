"""Run ``ybuskit.cli.main`` under the tracer, for the traced CLI pipeline.

Usage: ``python cli_child.py TRACE_JSONL OP_ID PARENT_SPAN_ID CLI_ARGS...``

Installs the same wrappers as the in-process runs, calls the CLI with the
remaining arguments, writes the spans (children of PARENT_SPAN_ID in
operation OP_ID) to TRACE_JSONL and exits with the CLI's exit code.
"""

import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    trace_path, op, parent, cli_args = argv[0], int(argv[1]), argv[2], argv[3:]
    import ybuskit.cli

    tracer = Tracer(prefix=f"{parent}.", root=parent)
    tracer.op = op
    tracer.install()
    try:
        return ybuskit.cli.main(cli_args)
    finally:
        tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
