"""Run the repro CLI with the benchmark's layer spans.

    python perfbench/traced.py SPANS.json ARGS...

behaves like ``python -m repro.cli ARGS...`` and writes the spans of
this process to ``SPANS.json`` when the command returns, under one
``cli`` root span.  A forked campaign worker writes its own spans to
``SPANS.json.<pid>`` when its netlist is done.
"""

import os
import sys

import layers


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    layers.install()
    import repro.cli
    from repro.service import runner

    tracer = layers.TRACER
    os.register_at_fork(after_in_child=tracer.reset)
    worker = runner._supervised_worker

    def traced_worker(task, conn):
        try:
            worker(task, conn)
        finally:
            tracer.dump(f"{out}.{os.getpid()}")

    runner._supervised_worker = traced_worker
    root = tracer.begin("cli")
    code = 1
    try:
        code = repro.cli.main(argv)
    except SystemExit as stop:
        code = stop.code
    finally:
        tracer.end(root)
        layers.program_sizes()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
