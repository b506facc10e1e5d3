"""One traced CLI call in a fresh process.

    python3 perfbench/traced_cli.py SPANS_JSON OP_ID <trabessel CLI arguments>

Times ``import trabessel.cli``, installs the span wrappers, runs
``cli.main`` and writes the import time and the spans to SPANS_JSON.
Standard output and the exit code are the CLI's own.
"""
import json
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
import trabessel.cli  # noqa: E402  (the import is what is timed)
import_ms = (perf_counter() - start) * 1e3

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402


def main():
    spans_path, op_id, cli_args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op_id, tracer.active = op_id, True
    try:
        code = trabessel.cli.main(cli_args)
    finally:
        tracer.active = False
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
