#!/usr/bin/env python3
"""The repository benchmark: browse / edit / olap against a live server.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 15 \\
        --trace 0

The server under test is a separate process (``serve.py``) running the
public ``repro.server`` surface with default settings: one process,
compiled XSLT, incremental republish and telemetry on.  This process is
the only load generator; it drives the server with at most two threads
over two keep-alive connections, both opened before the measured
phase.  Inputs are generated from ``--seed`` before any server starts,
and every response is checked against an offline oracle afterwards.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
server with span wrappers installed and alternates one-second untraced
and traced slices; it prints the per-layer table and the tracing
overhead (traced minus untraced slices).  ``--workload all`` runs the
three workloads in turn.  Lines starting with ``#`` are for people; the
last line is the JSON result (keyed by workload for ``all``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("browse", "edit", "olap")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True,
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import BENCHES

    if args.workload != "all":
        result = BENCHES[args.workload](args.seed, args.seconds,
                                        bool(args.trace)).run()
        print(json.dumps(result, sort_keys=True))
        return 0
    results = {}
    for name in WORKLOADS:
        results[name] = BENCHES[name](args.seed, args.seconds,
                                      bool(args.trace)).run()
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
