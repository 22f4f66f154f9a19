"""The repository benchmark: one command, three workloads, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-mix  --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload tpch-suite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload adhoc      --seed 1 --seconds 40 --trace 1

``--trace 0`` measures one workload with tracing off and prints every
end-to-end metric.  ``BENCHMARK.json`` lists ``serve-mix`` and ``adhoc``;
``tpch-suite`` is run by hand (``perfbench/spec.json`` says why).
``--trace 1`` is the traced run: it repeats all three workloads with
the benchmark's own spans around each call into a layer (and the server
at ``--trace-sample 1.0``), prints every per-layer metric, and writes
a per-layer self-time table and a Chrome trace under ``perfbench/out/``.
``--profile`` adds one cProfile dump per tpch-suite query to the traced
run.

Human-readable detail goes to standard error; the last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every checked answer was right, 1 when any was
wrong, and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("tpch-suite", "serve-mix", "adhoc")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="qcert-py repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="traced run only: dump a cProfile file per tpch-suite query into perfbench/out/",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so every server it started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: program source not found at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from harness import Result

    result = Result()
    if args.trace:
        import traced

        traced.run(args.workload, args.seed, args.seconds, result, OUT, args.profile)
    else:
        if args.workload == "tpch-suite":
            import tpch_suite as workload
        elif args.workload == "serve-mix":
            import serve_mix as workload
        else:
            import adhoc as workload
        workload.run(args.seed, args.seconds, result)
    for note in result.notes:
        print(note, file=sys.stderr)
    print(result.line())
    sys.stdout.flush()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
