"""The three workloads and the machinery they share.

Imported by ``run.py`` once it has checked that ``src/`` is present and
put it on ``sys.path``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter

import inputs
from hostinfo import fingerprint, peak_rss_mib, process_cpu_s, steal_s
from httpclient import Connection
from inputs import MODEL_NAME, Query, page_path, sha
from oracle import OlapOracle, rejection_ok, site_sha
from tracing import analyse, table

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Length of one untraced or traced slice in a ``--trace 1`` run.
SLICE_S = 1.0

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("server_cpu_ms_per_req", "ms"),
    ("get_p50_ms", "ms"),
    ("op_p50_ms", "ms"),
)

PER_LAYER = (
    ("httpd.cpu_us_per_req", "us"),
    ("app.handle_us", "us"),
    ("app.self_us", "us"),
    ("telemetry.bracket_us", "us"),
    ("store.put_ms", "ms"),
    ("store.parse_ms", "ms"),
    ("store.validate_ms", "ms"),
    ("store.to_model_ms", "ms"),
    ("store.rejected", "count"),
    ("cache.hits", "count"),
    ("cache.rebuilds", "count"),
    ("cache.coalesced", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.build_ms", "ms"),
    ("cache.wait_ms", "ms"),
    ("incremental.republish_ms", "ms"),
    ("incremental.pages_rebuilt", "count"),
    ("incremental.pages_reused", "count"),
    ("incremental.fallbacks", "count"),
    ("linkcheck.check_ms", "ms"),
    ("publisher.publish_ms", "ms"),
    ("olap.parse_resolve_us", "us"),
    ("olap.hit_ratio", "ratio"),
    ("olap.executions", "count"),
    ("olap.coalesced", "count"),
    ("olap.engine_ms", "ms"),
    ("olap.render_xml_ms", "ms"),
    ("olap.render_json_ms", "ms"),
    ("olap.datagen_s", "s"),
    ("olap.generations", "count"),
    ("host.steal_s", "s"),
    ("gen.late_p99_ms", "ms"),
    ("client.cpu_s", "s"),
    ("client.connect_ms", "ms"),
    ("error_ratio", "ratio"),
    ("get_p99_ms", "ms"),
    ("put_p50_ms", "ms"),
    ("visible_p50_ms", "ms"),
    ("visible_p90_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p95_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("trace.overhead_cpu_ms_per_req", "ms"),
    ("trace.overhead_get_p50_ms", "ms"),
)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (*q* in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def say(text: str) -> None:
    print(f"# {text}", flush=True)


# -- the server process ----------------------------------------------------

class ServerProcess:
    """``serve.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self, *, trace: bool) -> None:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("GOLDCASE_")}
        command = [sys.executable, os.path.join(HERE, "serve.py")]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line[1])
        self.pid = self.proc.pid

    def command(self, text: str) -> list[str]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        lines = []
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited during {text!r}")
            line = line.rstrip("\n")
            if line == "OK":
                return lines
            if line.startswith("ERROR"):
                raise RuntimeError(line)
            lines.append(line)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


# -- samples ---------------------------------------------------------------

class Sample:
    """One request made in the measured phase, checked afterwards."""

    __slots__ = ("kind", "plan", "due", "sent", "done", "status",
                 "headers", "sha", "body", "ok", "why")

    def __init__(self, kind: str, plan, due: float, sent: float) -> None:
        self.kind = kind
        self.plan = plan
        self.due = due
        self.sent = sent
        self.done = 0.0
        self.status = 0
        self.headers: dict[str, str] = {}
        self.sha = ""
        self.body = b""
        self.ok = True
        self.why = ""

    def fail(self, why: str) -> None:
        if self.ok:
            self.ok = False
            self.why = why

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class Bench:
    """Shared machinery: inputs, set-up, measured phase, checks, report."""

    name = ""

    def __init__(self, seed: int, seconds: int, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.connect_s: list[float] = []
        self.samples: list[Sample] = []
        self.extra_failures: list[str] = []
        self.extra_attempted = 0
        self.lock = threading.Lock()

    # -- hooks -------------------------------------------------------------

    def prepare(self) -> None:
        raise NotImplementedError

    def warm(self, conn) -> None:
        """Workload-specific set-up work after the model PUT."""

    def workers(self, conns, t0: float, t_end: float) -> list:
        raise NotImplementedError

    def check(self, conn) -> None:
        """Oracle checks after the measured phase."""

    def latencies(self, samples: list[Sample]) -> dict[str, list[float]]:
        raise NotImplementedError

    # -- plumbing ----------------------------------------------------------

    def request(self, conn, kind: str, method: str, path: str, *,
                plan=None, due: float | None = None, body: bytes = b"",
                headers=(), keep_body: bool = False) -> Sample:
        """One timed request; transport errors are recorded, not raised."""
        sent = perf_counter()
        sample = Sample(kind, plan, sent if due is None else due, sent)
        try:
            reply = conn.request(method, path, body=body, headers=headers)
        except (OSError, ConnectionError) as exc:
            sample.done = perf_counter()
            sample.fail(f"transport: {type(exc).__name__}: {exc}")
            self.connect_s.append(conn.connect())
        else:
            sample.done = perf_counter()
            sample.status = reply.status
            sample.headers = reply.headers
            sample.sha = hashlib.sha256(reply.body).hexdigest()
            if keep_body:
                sample.body = reply.body
        with self.lock:
            self.samples.append(sample)
        return sample

    def open_loop(self, conn, kind: str, gets: list, rate: float,
                  t0: float, t_end: float) -> None:
        """Send *gets* on a fixed schedule, the k-th due at t0 + k/rate.

        A late response delays the next send, and its latency still
        runs from when it was due.
        """
        for k, get in enumerate(gets):
            due = t0 + k / rate
            if due >= t_end:
                return
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.request(conn, kind, "GET", get.path, plan=get, due=due,
                         headers=get.headers)

    def setup(self, server: ServerProcess):
        """Connect both clients, store the model, publish it cold."""
        conns = [Connection("127.0.0.1", server.port) for _ in range(2)]
        for conn in conns:
            self.connect_s.append(conn.connect())
        reply = conns[0].request("PUT", f"/models/{MODEL_NAME}",
                                 body=self.base_xml)
        if reply.status != 201:
            raise RuntimeError(f"model PUT answered {reply.status}: "
                               f"{reply.body[:300]!r}")
        reply = conns[0].request("GET", f"/site/{MODEL_NAME}/index.html")
        if reply.status != 200:
            raise RuntimeError(f"cold publish answered {reply.status}")
        self.warm(conns[0])
        return conns

    def stats(self, conn) -> dict:
        reply = conn.request("GET", "/stats")
        if reply.status != 200:
            raise RuntimeError(f"/stats answered {reply.status}")
        return json.loads(reply.body)

    def run_phase(self, server: ServerProcess, conns) -> dict:
        """The measured phase; returns raw host and server readings."""
        t0 = perf_counter() + 0.2
        t_end = t0 + self.seconds
        slices = max(1, int(round(self.seconds / SLICE_S)))
        if self.trace:
            server.command(f"slices {int(t0 * 1e9)} {int(SLICE_S * 1e9)}")
        errors: list[BaseException] = []

        def guarded(target):
            def body():
                try:
                    target()
                except BaseException as exc:  # re-raised below
                    errors.append(exc)
            return body

        threads = [threading.Thread(target=guarded(work), daemon=True)
                   for work in self.workers(conns, t0, t_end)]
        # Inputs are all allocated; keep collector pauses out of the
        # generator's timing.
        gc.collect()
        gc.freeze()
        gc.disable()
        for thread in threads:
            thread.start()
        time.sleep(max(0.0, t0 - perf_counter()))
        steal_start = steal_s()
        client_start = os.times()
        cpu_marks = []
        for k in range(slices):
            time.sleep(max(0.0, t0 + k * self.seconds / slices
                           - perf_counter()))
            cpu_marks.append(process_cpu_s(server.pid))
        for thread in threads:
            thread.join()
        cpu_marks.append(process_cpu_s(server.pid))
        client_end = os.times()
        gc.enable()
        gc.unfreeze()
        if errors:
            raise errors[0]
        if self.trace:
            server.command("trace off")
        return {
            "t0": t0, "slices": slices,
            "cpu_marks": cpu_marks,
            "steal_s": steal_s() - steal_start,
            "client_cpu_s": (client_end.user - client_start.user
                             + client_end.system - client_start.system),
        }

    def slice_of(self, sample: Sample, phase: dict) -> int:
        width = self.seconds / phase["slices"]
        return min(int((sample.sent - phase["t0"]) // width),
                   phase["slices"] - 1)

    # -- the run -----------------------------------------------------------

    def run(self) -> dict:
        say(f"host {json.dumps(fingerprint(ROOT), sort_keys=True)}")
        say(f"workload {self.name} seed {self.seed} seconds {self.seconds} "
            f"trace {int(self.trace)}")
        start = perf_counter()
        self.prepare()
        say(f"inputs generated in {perf_counter() - start:.2f} s")
        setups = []
        server = None
        try:
            for attempt in range(1 if self.trace else SETUPS):
                self.connect_s.clear()
                started = perf_counter()
                server = ServerProcess(trace=self.trace)
                if self.trace:
                    server.command("trace on")
                conns = self.setup(server)
                setups.append(perf_counter() - started)
                if attempt < SETUPS - 1 and not self.trace:
                    for conn in conns:
                        conn.close()
                    server.stop()
                    server = None
            say("set-up s: " + " ".join(f"{s:.3f}" for s in setups))
            if self.trace:
                server.command("trace off")
            before = self.stats(conns[0])
            phase = self.run_phase(server, conns)
            after = self.stats(conns[0])
            spans = json.loads(server.command("spans")[0]) \
                if self.trace else []
            rss = peak_rss_mib(server.pid)
            check_start = perf_counter()
            self.check(conns[0])
            say(f"oracle checks took {perf_counter() - check_start:.2f} s")
            for conn in conns:
                conn.close()
        finally:
            if server is not None:
                server.stop()
        return self.report(setups, phase, before, after, spans, rss)

    # -- reporting ---------------------------------------------------------

    def report(self, setups, phase, before, after, spans, rss) -> dict:
        samples = self.samples
        completed = [s for s in samples if s.status]
        failures = [s for s in samples if not s.ok]
        attempted = len(samples) + self.extra_attempted
        failed = len(failures) + len(self.extra_failures)
        for s in failures[:5]:
            say(f"FAILED {s.kind} {s.plan!r:.120} status {s.status}: {s.why}")
        for why in self.extra_failures[:5]:
            say(f"FAILED {why}")
        windows = [k for k in range(phase["slices"])
                   if not self.trace or k % 2 == 0]
        untraced = [s for s in samples if self.slice_of(s, phase) in windows]
        lat = self.latencies(untraced)
        marks = phase["cpu_marks"]
        say(f"server cpu over the phase {marks[-1] - marks[0]:.3f} s, "
            f"{(marks[-1] - marks[0]) * 1000 / max(1, len(completed)):.4f} "
            "ms/req")
        e2e = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": rss,
            "server_cpu_ms_per_req":
                self.cpu_ms_per_req(phase, completed, windows),
            "get_p50_ms": percentile(lat["get"], 50),
            "op_p50_ms": percentile(lat["op"], 50),
        }
        say(f"requests {len(completed)} completed, {attempted} attempted, "
            f"{failed} failed, error_ratio {failed / max(1, attempted):.6f}")
        say("samples: " + ", ".join(f"{key} {len(values)}"
                                    for key, values in lat.items()))
        for name, unit in END_TO_END:
            say(f"{name:<24} {e2e[name]:12.4f} {unit}")
        late = [(s.sent - s.due) * 1000.0 for s in samples
                if s.kind in ("get", "reader")]
        noise = {
            "host.steal_s": phase["steal_s"],
            "gen.late_p99_ms": percentile(late, 99),
            "client.cpu_s": phase["client_cpu_s"],
            "client.connect_ms":
                percentile([c * 1000.0 for c in self.connect_s], 50),
        }
        say("noise " + json.dumps({k: round(v, 4)
                                   for k, v in noise.items()}))
        extras = self.extra_latencies(lat)
        for name, value in extras.items():
            say(f"{name:<24} {value:12.4f} ms")
        correct = not any(s.why and not s.why.startswith("transport")
                          for s in failures) \
            and not self.extra_failures
        if not self.trace:
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END}
        else:
            layer = self.per_layer(spans, phase, samples, before, after)
            layer.update(noise)
            layer.update(extras)
            layer["error_ratio"] = failed / max(1, attempted)
            metrics = {name: {"value": float(layer.get(name, 0.0)),
                              "unit": unit}
                       for name, unit in PER_LAYER}
            say("per-layer:")
            for name, unit in PER_LAYER:
                say(f"  {name:<30} {metrics[name]['value']:14.4f} {unit}")
        return {"correct": correct, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    def cpu_ms_per_req(self, phase: dict, completed: list[Sample],
                       windows: list[int]) -> float:
        """Median over *windows* of server CPU per request sent in it."""
        counts = [0] * phase["slices"]
        for sample in completed:
            counts[self.slice_of(sample, phase)] += 1
        marks = phase["cpu_marks"]
        ratios = [(marks[k + 1] - marks[k]) * 1000.0 / counts[k]
                  for k in windows if counts[k]]
        return statistics.median(ratios) if ratios else 0.0

    def extra_latencies(self, lat: dict) -> dict[str, float]:
        """Latencies reported beside the gated ones, ungated."""
        return {"get_p99_ms": percentile(lat["get"], 99)}

    def per_layer(self, spans, phase, samples, before, after) -> dict:
        slice_ns = int(self.seconds / phase["slices"] * 1e9)
        t0_ns = int(phase["t0"] * 1e9)

        def in_setup(start: int) -> bool:
            return start < t0_ns

        def traced_slice(start: int) -> bool:
            return start >= t0_ns and ((start - t0_ns) // slice_ns) % 2 == 1

        by_name = analyse(spans, traced_slice)
        say("span table (traced slices of the measured phase):")
        for line in table(by_name):
            say("  " + line)
        say("span table (set-up, traced):")
        for line in table(analyse(spans, in_setup)):
            say("  " + line)
        whole = analyse(spans, lambda start: in_setup(start)
                        or traced_slice(start))

        def med(name: str, scale: float, key: str = "durations") -> float:
            entry = by_name.get(name)
            return percentile(entry[key], 50) / scale if entry else 0.0

        def per_request(*names: str) -> list[float]:
            totals: dict[int, int] = {}
            for name in names:
                for rid, ns in by_name.get(name, {}).get(
                        "per_request", {}).items():
                    totals[rid] = totals.get(rid, 0) + ns
            return list(totals.values())

        layer: dict[str, float] = {}
        completed = [s for s in samples if s.status]
        traced = [s for s in completed if self.slice_of(s, phase) % 2 == 1]
        untraced = [s for s in completed
                    if self.slice_of(s, phase) % 2 == 0]
        slices = range(phase["slices"])
        cpu_us_on = 1e3 * self.cpu_ms_per_req(
            phase, completed, [k for k in slices if k % 2 == 1])
        cpu_us_off = 1e3 * self.cpu_ms_per_req(
            phase, completed, [k for k in slices if k % 2 == 0])
        handle_cpu = [note["cpu_ns"] for note in
                      by_name.get("app.handle", {}).get("notes", [])]
        if handle_cpu:
            # Means on both sides: the windowed median would not match
            # the heavy-tailed handle times of edit and olap.
            marks = phase["cpu_marks"]
            cpu_on_s = sum(marks[k + 1] - marks[k]
                           for k in slices if k % 2 == 1)
            layer["httpd.cpu_us_per_req"] = \
                cpu_on_s * 1e6 / max(1, len(traced)) \
                - statistics.fmean(handle_cpu) / 1e3
        layer["app.handle_us"] = med("app.handle", 1e3)
        layer["app.self_us"] = med("app.handle", 1e3, "selfs")
        layer["telemetry.bracket_us"] = percentile(
            per_request("telemetry.begin", "telemetry.finish"), 50) / 1e3
        layer["store.put_ms"] = med("store.put", 1e6)
        layer["store.parse_ms"] = med("store.parse", 1e6)
        layer["store.validate_ms"] = med("store.validate", 1e6)
        layer["store.to_model_ms"] = med("store.to_model", 1e6)
        layer["store.rejected"] = sum(1 for s in samples
                                      if s.status == 422)
        site_before, site_after = before["site_cache"], after["site_cache"]
        delta = {key: site_after[key] - site_before[key]
                 for key in ("hits", "rebuilds", "coalesced",
                             "incremental_fallback")}
        layer["cache.hits"] = delta["hits"]
        layer["cache.rebuilds"] = delta["rebuilds"]
        layer["cache.coalesced"] = delta["coalesced"]
        layer["cache.hit_ratio"] = delta["hits"] / max(
            1, delta["hits"] + delta["rebuilds"] + delta["coalesced"])
        layer["cache.build_ms"] = med("cache.build", 1e6)
        builds = by_name.get("cache.build", {}).get("per_request", {})
        entries = by_name.get("cache.entry", {}).get("per_request", {})
        layer["cache.wait_ms"] = sum(
            total - builds.get(rid, 0) for rid, total in entries.items()) \
            / 1e6
        layer["incremental.republish_ms"] = med("incremental.republish", 1e6)
        notes = by_name.get("incremental.republish", {}).get("notes", [])
        if notes:
            layer["incremental.pages_rebuilt"] = statistics.fmean(
                n["pages_rebuilt"] for n in notes)
            layer["incremental.pages_reused"] = statistics.fmean(
                n["pages_reused"] for n in notes)
        layer["incremental.fallbacks"] = delta["incremental_fallback"]
        layer["linkcheck.check_ms"] = med("linkcheck.check", 1e6)
        publishes = whole.get("publisher.publish", {}).get("durations", [])
        layer["publisher.publish_ms"] = percentile(publishes, 50) / 1e6
        layer["olap.parse_resolve_us"] = percentile(
            per_request("olap.parse", "olap.resolve"), 50) / 1e3
        agg_before = before["olap"]["aggregates"]
        agg_after = after["olap"]["aggregates"]
        agg = {key: agg_after[key] - agg_before[key]
               for key in ("hits", "executions", "coalesced")}
        layer["olap.hit_ratio"] = agg["hits"] / max(1, sum(agg.values()))
        layer["olap.executions"] = agg["executions"]
        layer["olap.coalesced"] = agg["coalesced"]
        layer["olap.engine_ms"] = med("olap.engine", 1e6)
        layer["olap.render_xml_ms"] = med("olap.render_xml", 1e6)
        layer["olap.render_json_ms"] = med("olap.render_json", 1e6)
        datagen = whole.get("olap.datagen", {}).get("durations", [])
        layer["olap.datagen_s"] = percentile(datagen, 50) / 1e9
        layer["olap.generations"] = after["olap"]["datasets"]["misses"]
        layer["trace.overhead_cpu_ms_per_req"] = \
            (cpu_us_on - cpu_us_off) / 1e3
        on = self.latencies([s for s in samples
                             if self.slice_of(s, phase) % 2 == 1])
        off = self.latencies([s for s in samples
                              if self.slice_of(s, phase) % 2 == 0])
        layer["trace.overhead_get_p50_ms"] = \
            percentile(on["get"], 50) - percentile(off["get"], 50)
        say(f"tracing overhead: server cpu {cpu_us_off:.1f} -> "
            f"{cpu_us_on:.1f} us/req, get p50 "
            f"{percentile(off['get'], 50):.3f} -> "
            f"{percentile(on['get'], 50):.3f} ms "
            f"({len(untraced)} untraced, {len(traced)} traced requests)")
        return layer


# -- browse ----------------------------------------------------------------

class Browse(Bench):
    """Open loop of page GETs over both connections at a fixed rate."""

    name = "browse"

    def prepare(self) -> None:
        _model, self.base_xml = inputs.base_model()
        self.multi, self.single = site_sha(self.base_xml)
        self.count = int(inputs.BROWSE_RATE * self.seconds)
        self.plan = inputs.browse_requests(self.seed, self.multi,
                                           self.single, self.count)
        self.rate = inputs.BROWSE_RATE

    def warm(self, conn) -> None:
        reply = conn.request("GET", page_path("index.html", "single"))
        if reply.status != 200:
            raise RuntimeError(f"single publish answered {reply.status}")

    def workers(self, conns, t0, t_end):
        # Request k is due at t0 + k / rate; the connections alternate.
        return [lambda i=i: self.open_loop(
                    conns[i], "get", self.plan[i::2], self.rate / 2,
                    t0 + i / self.rate, t_end)
                for i in (0, 1)]

    def expect(self, sample: Sample) -> None:
        get = sample.plan
        if not sample.status:
            return
        digest = (self.single if get.variant == "single"
                  else self.multi)[get.page]
        if get.if_none_match is not None:
            if sample.status != 304:
                sample.fail(f"revalidation answered {sample.status}")
            elif sample.headers.get("etag") != get.if_none_match:
                sample.fail("304 with another ETag")
            return
        if sample.status != 200:
            sample.fail(f"status {sample.status}")
        elif sample.sha != digest:
            sample.fail("body differs from the offline publish")
        elif sample.headers.get("etag") != f'"{sample.sha}"':
            sample.fail("ETag is not the sha256 of the body")

    def check(self, conn) -> None:
        for sample in self.samples:
            self.expect(sample)
        full_site_check(self, conn, self.multi, self.single)

    def latencies(self, samples):
        gets = [s for s in samples if s.kind == "get" and s.status]
        return {"get": [s.latency_ms for s in gets],
                "op": [s.latency_ms for s in gets if s.status == 200]}


def full_site_check(bench: Bench, conn, multi: dict, single: dict) -> None:
    """Fetch every page of both variants; compare with the oracle."""
    for variant, expected in (("multi", multi), ("single", single)):
        for page, digest in sorted(expected.items()):
            bench.extra_attempted += 1
            reply = conn.request("GET", page_path(page, variant))
            body_sha = sha(reply.body)
            if reply.status != 200 or body_sha != digest:
                bench.extra_failures.append(
                    f"final {variant}/{page}: status {reply.status}, "
                    f"bytes {'match' if body_sha == digest else 'differ'}")
            elif reply.headers.get("etag") != f'"{body_sha}"':
                bench.extra_failures.append(
                    f"final {variant}/{page}: ETag is not the body sha256")


# -- edit ------------------------------------------------------------------

class Edit(Bench):
    """Closed-loop editor plus an open-loop reader on the same model."""

    name = "edit"
    #: How long one edit may take to become visible before it fails.
    VISIBLE_LIMIT_S = 10.0
    #: PUTs prepared per measured second, several times what the editor
    #: gets through.
    STEPS_PER_SECOND = 20

    def prepare(self) -> None:
        model, self.base_xml = inputs.base_model()
        self.versions = inputs.edit_chain(self.seed, model, self.base_xml)
        self.steps = inputs.edit_steps(self.versions,
                                       self.STEPS_PER_SECOND * self.seconds)
        self.rate = inputs.READER_RATE
        self.reads = inputs.reader_requests(
            self.seed, self.versions, int(self.rate * self.seconds))
        #: (version, PUT sent, PUT answered) for every accepted PUT.
        self.timeline: list[tuple[int, float, float]] = []
        self.visible: list[tuple[float, Sample]] = []
        self.last_version = 0
        self.exhausted = False

    def workers(self, conns, t0, t_end):
        return [lambda: self.editor(conns[0], t0, t_end),
                lambda: self.open_loop(conns[1], "reader", self.reads,
                                       self.rate, t0, t_end)]

    def editor(self, conn, t0, t_end) -> None:
        time.sleep(max(0.0, t0 - perf_counter()))
        for step in self.steps:
            if perf_counter() >= t_end:
                return
            put = self.request(conn, "put", "PUT", f"/models/{MODEL_NAME}",
                               plan=step, body=step.body,
                               keep_body=step.rejected)
            if step.rejected:
                self.request(conn, "model", "GET", f"/models/{MODEL_NAME}",
                             plan=step)
                continue
            self.timeline.append((step.version, put.sent, put.done))
            self.last_version = step.version
            version = self.versions[step.version]
            pages = ["index.html", version.touched]
            while perf_counter() - put.sent < self.VISIBLE_LIMIT_S:
                got = [self.request(conn, "edit_get", "GET", page_path(p),
                                    plan=(step.version, p))
                       for p in pages]
                if all(s.sha == version.pages[p]
                       for s, p in zip(got, pages)):
                    self.visible.append((got[-1].done - put.sent, put))
                    break
            else:
                put.fail("edit not visible within the limit")
        self.exhausted = True


    def allowed_versions(self, sample: Sample) -> list[int]:
        """Versions a GET overlapping the editor's PUTs may observe."""
        allowed = []
        puts = [(0, float("-inf"), float("-inf"))] + self.timeline
        for i, (version, sent, _done) in enumerate(puts):
            next_done = puts[i + 1][2] if i + 1 < len(puts) \
                else float("inf")
            if sent <= sample.done and next_done >= sample.sent:
                allowed.append(version)
        return allowed

    def check(self, conn) -> None:
        for sample in self.samples:
            if not sample.status:
                continue
            if sample.kind == "put":
                step = sample.plan
                if step.rejected:
                    if not rejection_ok(sample.status, sample.body):
                        sample.fail(f"dangling keyref answered "
                                    f"{sample.status}, no instance path")
                elif sample.status != 200:
                    sample.fail(f"edit PUT answered {sample.status}")
                continue
            if sample.kind == "model":
                expected = sha(self.versions[sample.plan.version].xml)
                if sample.status != 200 or sample.sha != expected:
                    sample.fail("stored model changed by a rejected PUT")
                continue
            if sample.kind == "edit_get":
                version, page = sample.plan
                candidates = [version]
            else:
                page = sample.plan.page
                candidates = self.allowed_versions(sample)
            if sample.status != 200:
                sample.fail(f"status {sample.status}")
            elif sample.headers.get("etag") != f'"{sample.sha}"':
                sample.fail("ETag is not the sha256 of the body")
            elif sample.kind == "reader" and not any(
                    self.versions[v].pages.get(page) == sample.sha
                    for v in candidates):
                sample.fail(f"body matches none of versions {candidates}")
            elif sample.kind == "edit_get" and sample.sha not in {
                    self.versions[v].pages.get(page)
                    for v in ((version - 1) % len(self.versions), version)}:
                sample.fail("body matches neither the edit nor its parent")
        if self.exhausted:
            say(f"WARNING: all {len(self.steps)} edit steps ran before the "
                "phase ended; the editor idled")
        multi, single = site_sha(self.versions[self.last_version].xml)
        if multi != self.versions[self.last_version].pages:
            self.extra_failures.append(
                "offline publish from the stored bytes differs from the "
                "publish of the edited model")
        self.extra_attempted += 1
        reply = conn.request("GET", f"/models/{MODEL_NAME}")
        if sha(reply.body) != sha(self.versions[self.last_version].xml):
            self.extra_failures.append("final stored model differs")
        full_site_check(self, conn, multi, single)

    def latencies(self, samples):
        puts = [s for s in samples if s.kind == "put" and s.status
                and not s.plan.rejected]
        ids = {id(s) for s in puts}
        visible = [v * 1000.0 for v, put in self.visible if id(put) in ids]
        return {"get": [s.latency_ms for s in samples
                        if s.kind == "reader" and s.status],
                "op": visible,
                "put": [s.latency_ms for s in puts]}

    def extra_latencies(self, lat):
        return {**super().extra_latencies(lat),
                "put_p50_ms": percentile(lat["put"], 50),
                "visible_p50_ms": percentile(lat["op"], 50),
                "visible_p90_ms": percentile(lat["op"], 90)}


# -- olap ------------------------------------------------------------------

class Olap(Bench):
    """Two closed-loop analysts over two synthesized datasets."""

    name = "olap"

    def prepare(self) -> None:
        self.model, self.base_xml = inputs.base_model()
        self.schedules = inputs.olap_schedules(self.seed, self.model)
        self.warmups = inputs.warmup_specs(
            self.model, inputs.DATA_SEEDS)

    def warm(self, conn) -> None:
        for spec in self.warmups:
            reply = conn.request("GET", Query(spec, "json").path)
            if reply.status != 200:
                raise RuntimeError(f"warm-up query answered {reply.status}")

    def workers(self, conns, t0, t_end):
        def client(index: int):
            conn = conns[index]
            time.sleep(max(0.0, t0 - perf_counter()))
            for query in self.schedules[index]:
                if perf_counter() >= t_end:
                    return
                self.request(conn, "query", "GET", query.path, plan=query)
            raise RuntimeError("olap schedule ran out")
        return [lambda i=i: client(i) for i in (0, 1)]

    def check(self, conn) -> None:
        oracle = OlapOracle(self.base_xml)
        oracle.prefill({s.plan.spec for s in self.samples if s.status})
        for sample in self.samples:
            self.expect(sample, oracle)

    @staticmethod
    def expect(sample: Sample, oracle) -> None:
        if not sample.status:
            return
        query = sample.plan
        outcome = sample.headers.get("x-goldcase-olap")
        if sample.status != 200:
            sample.fail(f"status {sample.status}")
        elif outcome not in ("hit", "executed", "coalesced"):
            sample.fail(f"outcome {outcome!r}")
        elif sample.sha != oracle.expected_sha(query.spec, query.fmt):
            sample.fail("result differs from the offline service")
        elif sample.headers.get("etag") != f'"{sample.sha}"':
            sample.fail("ETag is not the sha256 of the body")

    def latencies(self, samples):
        done = [s for s in samples if s.status]
        return {"get": [s.latency_ms for s in done
                        if s.headers.get("x-goldcase-olap") == "hit"],
                "op": [s.latency_ms for s in done
                       if s.headers.get("x-goldcase-olap") != "hit"]}

    def extra_latencies(self, lat):
        return {**super().extra_latencies(lat),
                "hit_p50_ms": percentile(lat["get"], 50),
                "miss_p50_ms": percentile(lat["op"], 50),
                "miss_p95_ms": percentile(lat["op"], 95)}


BENCHES = {bench.name: bench for bench in (Browse, Edit, Olap)}
