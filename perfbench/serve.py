"""The server under test: one ``repro.server`` process, default settings.

Run by :mod:`run` as ``python3 perfbench/serve.py [--trace]`` from the
root of a checkout.  It serves on an ephemeral loopback port, prints
``READY <port>`` and then obeys one command per stdin line:

``trace on`` / ``trace off``
    switch tracing for new requests (``--trace`` only);
``slices <start_ns> <slice_ns>``
    trace requests that begin in odd slices of *slice_ns* counted from
    the monotonic instant *start_ns* (``--trace`` only);
``spans``
    write every recorded span as one JSON line;
``quit`` (or end of input)
    stop the server and exit.

With ``--trace`` the span wrappers of :mod:`tracing` are installed
before the server module is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    from repro.server import ModelServer

    server = ModelServer().start()
    out = sys.stdout
    out.write(f"READY {server.port}\n")
    out.flush()
    try:
        for line in sys.stdin:
            command = line.split()
            if not command:
                continue
            if command[0] == "quit":
                break
            if command[0] == "trace" and tracer is not None:
                tracer.enabled = command[1] == "on"
                tracer.set_slices(0, 0)
            elif command[0] == "slices" and tracer is not None:
                tracer.set_slices(int(command[1]), int(command[2]))
            elif command[0] == "spans":
                spans = tracer.spans if tracer is not None else []
                out.write(json.dumps(spans, separators=(",", ":")) + "\n")
            else:
                out.write(f"ERROR unknown command {line.strip()!r}\n")
                out.flush()
                continue
            out.write("OK\n")
            out.flush()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
