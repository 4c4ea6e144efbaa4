#!/usr/bin/env python3
"""Self-tests of the benchmark itself; needs no server.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that one workload seed always yields the same requests (every
path, header, PUT body and query string), that another seed changes
them, and that the oracle flags a response with one corrupted byte.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from oracle import OlapOracle, rejection_ok, site_sha  # noqa: E402
from workloads import Browse, Olap, Sample  # noqa: E402

#: Small sizes keep the self-tests to a few seconds.
VERSIONS = 3
REQUESTS = 400
STEPS = 200


def request_sequence(seed: int, model, xml: bytes, multi: dict,
                     single: dict) -> list:
    """Everything the load generator would send for *seed*."""
    browse = [(g.path, g.headers) for g in
              inputs.browse_requests(seed, multi, single, REQUESTS)]
    versions = inputs.edit_chain(seed, model, xml, VERSIONS)
    puts = [(s.body, s.version, s.rejected)
            for s in inputs.edit_steps(versions, 2 * VERSIONS)]
    touched = [v.touched for v in versions]
    reads = [g.path for g in
             inputs.reader_requests(seed, versions, REQUESTS)]
    queries = [[q.path for q in schedule] for schedule in
               inputs.olap_schedules(seed, model, STEPS)]
    return [browse, puts, touched, reads, queries]


def corrupt(data: bytes) -> bytes:
    middle = len(data) // 2
    return data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1:]


def served(plan, body: bytes, headers: dict | None = None) -> Sample:
    """A completed 200 sample whose ETag matches its (maybe bad) body."""
    sample = Sample("get", plan, 0.0, 0.0)
    sample.status = 200
    sample.sha = inputs.sha(body)
    sample.headers = {"etag": f'"{sample.sha}"', **(headers or {})}
    return sample


def main() -> int:
    model, xml = inputs.base_model()
    multi, single = site_sha(xml)

    first = request_sequence(7, model, xml, multi, single)
    again = request_sequence(7, model, xml, multi, single)
    other = request_sequence(8, model, xml, multi, single)
    names = ("browse GETs", "edit PUT bodies", "edit touched pages",
             "reader GETs", "olap query strings")
    for name, a, b, c in zip(names, first, again, other):
        if a != b:
            print(f"FAIL: seed 7 gave two different {name}")
            return 1
        if a == c:
            print(f"FAIL: seeds 7 and 8 gave the same {name}")
            return 1
        print(f"ok: {name} repeat per seed and change across seeds")

    from repro.web.publisher import publish_multi_page

    bench = Browse(7, 1, False)
    bench.multi, bench.single = multi, single
    page = sorted(multi)[len(multi) // 2]
    body = publish_multi_page(model).pages[page].encode("utf-8")
    plan = inputs.Get(inputs.page_path(page), page)
    good, bad = served(plan, body), served(plan, corrupt(body))
    bench.expect(good)
    bench.expect(bad)
    if not good.ok or bad.ok:
        print(f"FAIL: page oracle good={good.ok} corrupted={bad.ok}")
        return 1
    print(f"ok: page oracle accepts {page} and flags one flipped byte")

    oracle = OlapOracle(xml)
    spec = inputs.warmup_specs(model, inputs.DATA_SEEDS)[0]
    entry, _ = oracle.service.execute(
        inputs.MODEL_NAME, oracle.content_hash, oracle.model, spec)
    query = inputs.Query(spec, "json")
    body = entry.renderings["json"]
    outcome = {"x-goldcase-olap": "executed"}
    good = served(query, body, outcome)
    bad = served(query, corrupt(body), outcome)
    Olap.expect(good, oracle)
    Olap.expect(bad, oracle)
    if not good.ok or bad.ok:
        print(f"FAIL: olap oracle good={good.ok} corrupted={bad.ok}")
        return 1
    print("ok: olap oracle accepts a result and flags one flipped byte")

    with_path = json.dumps({"issues": [{"path": "/goldmodel/cubeclasses"
                                                "/cubeclass[1]/@fact"}]})
    without = json.dumps({"issues": [{"path": ""}]})
    if not rejection_ok(422, with_path.encode()) \
            or rejection_ok(422, without.encode()) \
            or rejection_ok(400, with_path.encode()):
        print("FAIL: rejection oracle")
        return 1
    print("ok: rejection oracle needs a 422 with an instance path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
