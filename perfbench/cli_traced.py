"""The `dwbc` command line with the layer tracer installed.

Invoked as `python3 perfbench/cli_traced.py <dwbc arguments>` with the
sources on PYTHONPATH, by the traced cli-batch run.  It behaves as
`dwbc` does and, on exit, writes the span log and the layer totals of
the invocation to the directory named by PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install  # noqa: E402


def main():
    tracer = Tracer()
    install(tracer)
    query = int(os.environ.get("PERFBENCH_QUERY", "0"))
    tracer.query = query
    out = os.environ["PERFBENCH_TRACE_OUT"]
    from dwbc import cli
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.write_spans(os.path.join(out, f"q{query}.spans.jsonl"))
        with open(os.path.join(out, f"q{query}.json"), "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
