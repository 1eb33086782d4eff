"""Serving benchmark: the request path, in one pinned process.

Run from the root of a checkout::

    python3 servebench/run.py --workload museum-browse --seed 1 --seconds 10 --trace 0

It builds the program's ``NavigationApp`` the way ``repro.tools serve``
does, pins itself to one CPU and sends the seeded request stream of the
chosen mix, one request in flight (a closed loop with one client).  The
stream is cut into slices; before every slice the reference kernel
(``refkernel.py``) runs on the same CPU, and the slice's request times
are scaled by ``NOMINAL_MS / kernel ms`` so that host speed swings
cancel.  Every response is checked against a client-side model outside
the timed intervals.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run (see ``spans.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it, ``record: {...}``, holds the full
record that ``compare.py`` reads from saved output.  See ``NOTES.md``
for the method.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import refkernel
import spans
import workloads
from workloads import CheckFailed, Op

HERE = Path(__file__).resolve().parent

_INTER_TAG = re.compile(rb">\s+<")
_TRAIL_NAV = re.compile(rb'<nav class="breadcrumbs">.*?</nav>', re.S)
#: What an empty trail slot leaves in a cached page: its indentation,
#: on a line of its own just before ``</body>``.
_EMPTY_SLOT = re.compile(rb"\n[ \t]+(?=\n[ \t]*</body>)")

#: Largest client-measured time of a traced in-process request not
#: covered by its root span, at the 99th percentile (raw ns).  The gap
#: is the timing wrapper's own cost, about 2 us at the median.
SPAN_GAP_P99_NS = 50_000

#: Cold boots per run (after one discarded warm-up boot), spread evenly
#: over the timed slices.  One boot's normalised time varies by 8-15%
#: (coefficient of variation); with the median of 25 boots, ``setup_s``
#: spreads 7-10% between runs (quartile distance over median), against
#: 12-15% with 7.
BOOTS = {0: 25, 1: 3}


def _die(message: str) -> int:
    print(f"servebench: {message}", file=sys.stderr)
    return 2


def _pin_cpu() -> int:
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cpu_ticks(cpu: int) -> tuple[int, int]:
    """(steal, total) jiffies of *cpu* from /proc/stat (zeros if absent)."""
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith(f"cpu{cpu} "):
                    fields = [int(v) for v in line.split()[1:]]
                    return (fields[7] if len(fields) > 7 else 0), sum(fields)
    except OSError:
        pass
    return 0, 0


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))
    return ordered[rank]


def _same_but_trail_layout(hit: bytes, bypass: bytes) -> bool:
    """True when *hit* is *bypass* with only the trail block laid out compactly.

    The program serializes the breadcrumb ``<nav>`` indented on a full
    (bypass) render but splices it compactly into a cached page, and an
    empty trail slot leaves its indentation behind.  Outside the trail
    block the two bodies must be byte-identical; inside it the bypass
    block, with the whitespace between its tags removed, must equal the
    hit's block byte for byte.
    """
    hit_nav = _TRAIL_NAV.search(hit)
    bypass_nav = _TRAIL_NAV.search(bypass)
    if hit_nav is None and bypass_nav is None:
        return _EMPTY_SLOT.sub(b"", hit, count=1) == bypass
    if hit_nav is None or bypass_nav is None:
        return False
    return (
        hit[: hit_nav.start()] == bypass[: bypass_nav.start()]
        and hit[hit_nav.end() :] == bypass[bypass_nav.end() :]
        and hit_nav.group() == _INTER_TAG.sub(b"><", bypass_nav.group())
    )


# -- transports ----------------------------------------------------------------


class InProcess:
    """``NavigationApp.respond`` called directly."""

    name = "in-process"

    def __init__(self, app):
        self._app = app

    def encode(self, environ):
        return environ

    def exchange(self, environ):
        """Send one request; returns ``(elapsed ns, response)``."""
        # Looked up per call, so a traced slice sees the timed ``respond``.
        respond = self._app.respond
        start = time.perf_counter_ns()
        response = respond(environ)
        return time.perf_counter_ns() - start, response

    def close(self) -> None:
        pass


class LoopbackHttp:
    """The ASGI front on loopback in this process, one keep-alive connection.

    Server and client share one event loop on the main thread; the loop
    runs only while a request is in flight, so the front's own executor
    hop is the only thread switch per request.
    """

    name = "asgi-http"

    def __init__(self, app):
        import asyncio

        from repro.navigation.asgi import AsgiHttpServer, AsgiNavigationApp

        self._loop = asyncio.new_event_loop()
        self._server = AsgiHttpServer(AsgiNavigationApp(app), "127.0.0.1", 0)
        self._loop.run_until_complete(self._server.start())
        self._reader, self._writer = self._loop.run_until_complete(
            asyncio.open_connection(*self._server.address)
        )

    def encode(self, environ) -> bytes:
        lines = [
            f"{environ['REQUEST_METHOD']} {environ['PATH_INFO']} HTTP/1.1",
            "Host: 127.0.0.1",
        ]
        for key, value in environ.items():
            if key.startswith("HTTP_"):
                lines.append(f"{key[5:].replace('_', '-').title()}: {value}")
        body = environ["wsgi.input"].getvalue() if "wsgi.input" in environ else b""
        if body:
            lines.append(f"Content-Length: {len(body)}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body

    def exchange(self, raw: bytes):
        """Send one request; returns ``(elapsed ns, response)``."""
        return self._loop.run_until_complete(self._exchange(raw))

    async def _exchange(self, raw: bytes):
        start = time.perf_counter_ns()
        self._writer.write(raw)
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head[:-4].decode("latin-1").split("\r\n")
        headers = []
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            value = value.strip()
            headers.append((name, value))
            if name.lower() == "content-length":
                length = int(value)
        body = await self._reader.readexactly(length)
        elapsed = time.perf_counter_ns() - start
        return elapsed, (lines[0].split(" ", 1)[1], headers, body)

    def close(self) -> None:
        async def shutdown() -> None:
            self._writer.close()
            await self._writer.wait_closed()
            await self._server.aclose()
            await self._loop.shutdown_default_executor()

        self._loop.run_until_complete(shutdown())
        self._loop.close()


# -- boots -----------------------------------------------------------------------


def boot(root: Path, mix: str) -> dict:
    """One cold boot in a fresh interpreter (``bootchild.py``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, str(HERE / "bootchild.py"), "--mix", mix],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"boot failed: {proc.stderr.strip()[-400:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    scale = refkernel.NOMINAL_MS / record["kernel_ms"]
    total_s = (
        record["import_ns"] + record["build_ns"] + record["first_response_ns"]
    ) / 1e9
    return {
        "kernel_ms": record["kernel_ms"],
        "raw_s": total_s,
        "setup_s": total_s * scale,
        "import_ms": record["import_ns"] / 1e6 * scale,
        "build_ms": record["build_ns"] / 1e6 * scale,
        "first_response_ms": record["first_response_ns"] / 1e6 * scale,
    }


# -- the run -----------------------------------------------------------------------


class Run:
    """One benchmark run: set-up, warm-up, timed slices, checks."""

    def __init__(
        self, root: Path, cpu: int, mix: str, seed: int, seconds: float, trace: bool
    ):
        self.root = root
        self.cpu = cpu
        self.mix = mix
        self.trace = trace
        self.clock = workloads.VirtualClock() if mix == "reweave-churn" else None
        self.server, self.app = workloads.build_app(mix, self.clock)
        if self.server.page_cache("visitor") is None:
            raise RuntimeError("page cache is off (REPRO_PAGE_CACHE?)")
        self.fixture = self.server.fixture
        self.pages = workloads.page_uris(self.fixture)
        self.stream = workloads.make_stream(mix, seed, seconds, self.pages)
        self.model = workloads.ClientModel(self.stream.stacks, self.clock)
        self.transport = (
            LoopbackHttp(self.app) if mix == "museum-http" else InProcess(self.app)
        )
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.timed_failed = 0
        self.timed_outcomes = {"hit": 0, "miss": 0}
        # Per timed request: raw ns, slice factor, traced flag.
        self.raw_ns = array("q")
        self.factor = array("d")
        self.traced = array("b")
        self.slices: list[dict] = []
        self.boots: list[dict] = []
        self.tracer = spans.Tracer() if trace else None
        self.base_ns: dict[int, int] = {}
        if self.tracer is not None:
            from repro.core import PageRenderer
            from repro.navigation.serving import build_node_map

            self.plain = PageRenderer(self.fixture)
            self.nodes = build_node_map(self.plain)
            self.tracer.prepare()

    # -- one operation -------------------------------------------------------------

    def _fail(self, message: str, *, timed: bool = False) -> None:
        self.failed += 1
        self.timed_failed += timed
        if len(self.failures) < 5:
            self.failures.append(message)

    def op(self, op: Op, *, timed: bool = False, rid: int = -1, traced: bool = False):
        """Send *op*; returns the raw request ns (only timed ones count)."""
        model = self.model
        if op.kind == "get":
            if self.clock is not None:
                self.clock.now += self.stream.tick
            outcome, crumbs = model.expect_get(op)
            pre_trail = list(model.trails[(op.sid, op.audience)])
        raw = self.transport.encode(workloads.environ_for(op))
        tracer = self.tracer
        if traced:
            tracer.rid = rid
            tracer.active = True
        start = time.perf_counter_ns()
        try:
            elapsed, response = self.transport.exchange(raw)
        except Exception as exc:  # a raising request is a failed operation
            elapsed = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.active = False
                tracer.stack.clear()
            self.attempted += 1
            self._fail(f"{op.kind} {op.audience}/{op.page}: {exc!r}", timed=timed)
            return elapsed
        if traced:
            tracer.active = False
        self.attempted += 1
        if traced and op.kind == "get":
            self._base_render(op, rid)
        try:
            if op.kind == "reconfigure":
                model.check_reconfigure(op, response)
                model.reconfigured(op.audience, op.structures)
                return elapsed
            title = model.check_page(op, response, outcome, crumbs)
            model.outcomes[outcome] += 1
            if timed:
                self.timed_outcomes[outcome] += 1
            model.record_visit(op, crumbs, title)
            if outcome == "hit":
                model.hits_seen += 1
                if model.hits_seen % workloads.BYPASS_SAMPLE == 0:
                    self._bypass_check(op, pre_trail, response[2])
        except CheckFailed as exc:
            self._fail(str(exc), timed=timed)
        return elapsed

    def _bypass_check(self, op: Op, pre_trail, hit_body: bytes) -> None:
        """Re-render a hit through the session's own renderer, byte for byte.

        The session's trail is first restored to what it was before the
        hit, so the bypass render shows the same crumbs and leaves the
        trail exactly as the hit left it.
        """
        restore = workloads.restore_environ(
            op.sid, op.audience, [list(entry) for entry in pre_trail]
        )
        self.attempted += 1
        _, (status, _, body) = self.transport.exchange(self.transport.encode(restore))
        if status != "200 OK" or json.loads(body).get("restored") != [op.sid]:
            raise CheckFailed(f"restore {op.sid}: {status} {body[:200]!r}")
        self.attempted += 1
        _, response = self.transport.exchange(
            self.transport.encode(workloads.environ_for(op, bypass=True))
        )
        names = {name.lower(): value for name, value in response[1]}
        if response[0] != "200 OK" or names.get("x-repro-cache") != "bypass":
            raise CheckFailed(f"bypass {op.audience}/{op.page}: {response[0]}")
        self.model.outcomes["bypass"] += 1
        bypass_body = response[2]
        if bypass_body == hit_body:
            self.model.bypass_identical += 1
            return
        if not _same_but_trail_layout(hit_body, bypass_body):
            raise CheckFailed(
                f"bypass render of {op.audience}/{op.page} differs from the hit"
            )
        self.model.bypass_trail_layout += 1

    def _base_render(self, op: Op, rid: int) -> None:
        """Time the base program alone: the same page on an unscoped renderer."""
        tracer = self.tracer
        render_id = tracer.name_id[spans.RENDER]
        start = tracer.mark()
        # Did the request render (a miss)?  Spans of rid sit at the tail.
        index = start - 1
        rendered = False
        while index >= 0 and tracer.s_rid[index] == rid:
            if tracer.s_name[index] == render_id:
                rendered = True
                break
            index -= 1
        if not rendered:
            return
        node = None if op.page == "index.html" else self.nodes[op.page]
        if node is None:
            call = tracer.timed(spans.BASE, lambda: self.plain.render_home())
        else:
            call = tracer.timed(spans.BASE, lambda: self.plain.render_node(node))
        counts = dict(tracer.counts)
        tracer.rid = -2
        tracer.active = True
        try:
            call()
        finally:
            tracer.active = False
            # The re-render's elements and QNames are not the request's.
            tracer.counts.clear()
            tracer.counts.update(counts)
        times = tracer.self_times(start, tracer.mark())
        self.base_ns[rid] = times[-2][spans.BASE][spans.BASE]
        tracer.truncate(start)

    # -- phases --------------------------------------------------------------------

    def execute(self) -> None:
        stream = self.stream
        for op in stream.setup:
            self.op(op)
        for op in stream.ops[: stream.warmup]:
            self.op(op)
        timed_ops = stream.ops[stream.warmup :]
        size = workloads.MIXES[self.mix]["slice"]
        chunks = [timed_ops[i : i + size] for i in range(0, len(timed_ops), size)]
        boots = BOOTS[int(self.trace)]
        boot_at = {round(j * len(chunks) / (boots - 1)) for j in range(boots)}
        boot(self.root, self.mix)  # warm-up: bytecode caches, page cache
        runtime = self.server.runtime
        epoch_before = runtime.weave_epoch
        steal0, total0 = _cpu_ticks(self.cpu)
        rid = 0
        for number, chunk in enumerate(chunks):
            if number in boot_at:
                self.boots.append(boot(self.root, self.mix))
            traced = self.tracer is not None and number % 2 == 0
            kernel_ms = refkernel.timed_kernel_ms()
            factor = refkernel.NOMINAL_MS / kernel_ms
            if traced:
                self.tracer.install()
            wall = time.perf_counter_ns()
            busy = 0
            for op in chunk:
                elapsed = self.op(op, timed=True, rid=rid, traced=traced)
                self.raw_ns.append(elapsed)
                self.factor.append(factor)
                self.traced.append(traced)
                busy += elapsed
                rid += 1
            wall = time.perf_counter_ns() - wall
            if traced:
                self.tracer.remove()
            self.slices.append(
                {"kernel_ms": kernel_ms, "n": len(chunk), "busy": busy, "wall": wall}
            )
        if len(chunks) in boot_at:
            self.boots.append(boot(self.root, self.mix))
        steal1, total1 = _cpu_ticks(self.cpu)
        self.steal_share = (steal1 - steal0) / max(1, total1 - total0)
        self.epoch_advance = runtime.weave_epoch - epoch_before
        self.rss_mb = _peak_rss_mb()
        from repro.aop import Deployment

        gc.collect()
        self.deployments_reachable = sum(
            1 for obj in gc.get_objects() if type(obj) is Deployment
        )
        self._check_server_stats()

    def _check_server_stats(self) -> None:
        """The server's own counters must agree with the client's model."""
        stats = self.app.stats()
        model = self.model
        sessions = stats["sessions"]
        if sessions["evicted_total"] != model.evicted:
            self._fail(
                f"server evicted {sessions['evicted_total']} sessions, "
                f"model {model.evicted}"
            )
        if sessions["active"] != len(model.trails):
            self._fail(
                f"server holds {sessions['active']} sessions, "
                f"model {len(model.trails)}"
            )
        hits = sum(a["cache"]["hits"] for a in stats["audiences"].values())
        if hits != model.outcomes["hit"]:
            self._fail(f"server counted {hits} hits, model {model.outcomes['hit']}")

    def close(self) -> None:
        self.transport.close()
        self.app.close()
        self.server.close()

    # -- results -------------------------------------------------------------------

    def _normalised(self, want_traced: bool) -> list[float]:
        return [
            raw * factor
            for raw, factor, traced in zip(self.raw_ns, self.factor, self.traced)
            if bool(traced) == want_traced
        ]

    def end_to_end(self) -> dict:
        times = self._normalised(False)
        raw = [float(v) for v in self.raw_ns]
        correct = len(times) - self.timed_failed
        p99 = _quantile(times, 0.99)
        p999 = _quantile(times, 0.999)
        return {
            "throughput_rps": correct / (sum(times) / 1e9),
            "latency_p50_ms": statistics.median(times) / 1e6,
            "setup_s": statistics.median(b["setup_s"] for b in self.boots),
            "rss_mb": self.rss_mb,
            "_info": {
                "latency_p99_ms": p99 / 1e6,
                "latency_samples": len(times),
                "samples_beyond_p99": sum(1 for t in times if t > p99),
                "latency_p99.9_ms": p999 / 1e6,
                "samples_beyond_p99.9": sum(1 for t in times if t > p999),
                "raw_throughput_rps": correct / (sum(raw) / 1e9),
                "raw_latency_p50_ms": statistics.median(raw) / 1e6,
                "raw_setup_s": statistics.median(b["raw_s"] for b in self.boots),
                "error_rate": self.failed / max(1, self.attempted),
            },
        }

    def per_layer(self) -> tuple[dict, dict]:
        """Per-layer metrics of the traced slices, and the span checks.

        ``spans_reconciled``: every traced request has a root ``respond``
        span, its spans nest, and its self times sum to the root span.
        ``spans_match_client``: the root span never outlasts the time the
        client measured around the same request, and in process the
        client's time exceeds it by at most :data:`SPAN_GAP_P99_NS` for
        99% of requests, so the tracer neither misses nor double-counts
        the request's time.
        """
        tracer = self.tracer
        reconciled = True
        try:
            times = tracer.self_times(0, tracer.mark())
        except ValueError as exc:
            self._fail(f"span tree: {exc}")
            times, reconciled = {}, False
        factor = self.factor
        sums: dict[str, float] = {}
        traced_ids = [rid for rid, flag in enumerate(self.traced) if flag]
        front_ns = 0.0
        gaps = []
        for rid in traced_ids:
            layers = times.get(rid, {})
            root = layers.get(spans.ROOT, {})
            root_total = root.pop("__root__", 0)
            if sum(root.values()) != root_total or root_total <= 0:
                reconciled = False
            gaps.append(self.raw_ns[rid] - root_total)
            render_self = root.pop(spans.RENDER, 0)
            base = self.base_ns.get(rid, 0)
            root["render.base"] = base
            root["aop.dispatch"] = render_self - base
            for layer, ns in root.items():
                sums[layer] = sums.get(layer, 0.0) + ns * factor[rid]
            environ = layers.get("asgi.build_environ", {})
            environ.pop("__root__", 0)
            for layer, ns in environ.items():
                sums[layer] = sums.get(layer, 0.0) + ns * factor[rid]
            if self.mix == "museum-http":
                front_ns += (self.raw_ns[rid] - root_total) * factor[rid]
        count = max(1, len(traced_ids))
        gaps.sort()
        gap_p99 = _quantile(gaps, 0.99) if gaps else 0
        checks = {
            "spans_reconciled": reconciled,
            "spans_match_client": bool(gaps)
            and gaps[0] >= 0
            and (self.mix == "museum-http" or gap_p99 <= SPAN_GAP_P99_NS),
            "span_gap_p50_us": statistics.median(gaps) / 1e3 if gaps else 0.0,
            "span_gap_p99_us": gap_p99 / 1e3,
        }

        def us(layer: str) -> float:
            return sums.get(layer, 0.0) / count / 1e3

        traced_times = self._normalised(True)
        plain_times = self._normalised(False)
        # Medians: the slices alternate, and on churn one eviction more or
        # less in a slice would swamp a mean.
        overhead = (
            statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        ) * 100.0
        hits = self.timed_outcomes["hit"]
        misses = self.timed_outcomes["miss"]
        timed = len(self.raw_ns)
        client = [
            (s["wall"] - s["busy"]) / s["n"] * refkernel.NOMINAL_MS / s["kernel_ms"]
            for s in self.slices
        ]
        layers = {
            "http.self_us": us(spans.ROOT),
            "session.fragment_us": us("session.fragment"),
            "session.trail_record_us": us("session.trail_record"),
            "cache.get_us": us("cache.get"),
            "cache.put_us": us("cache.put"),
            "cache.hit_ratio": hits / max(1, hits + misses),
            "cache.stale_dropped": tracer.counts["cache.stale_dropped"] / count,
            "render.base_us": us("render.base"),
            "aop.dispatch_us": us("aop.dispatch"),
            "core.anchors_us": us("core.anchors"),
            "core.relativize_us": us("core.relativize"),
            "xmlcore.build_us": us("xmlcore.build"),
            "xmlcore.serialize_us": us("xmlcore.serialize"),
            "xmlcore.elements": tracer.counts["xmlcore.elements"] / count,
            "xmlcore.qnames": tracer.counts["xmlcore.qnames"] / count,
            "serving.session_open_us": us("serving.session_open"),
            "serving.session_close_us": us("serving.session_close"),
            "aop.deploy_us": us("aop.deploy"),
            "aop.undeploy_us": us("aop.undeploy"),
            "serving.reconfigure_us": us("serving.reconfigure"),
            "serving.epoch_advance": self.epoch_advance / max(1, timed),
            "aop.deployments_reachable": self.deployments_reachable,
            "asgi.front_us": front_ns / count / 1e3,
            "asgi.build_environ_us": us("asgi.build_environ"),
            "boot.import_ms": statistics.median(b["import_ms"] for b in self.boots),
            "boot.build_ms": statistics.median(b["build_ms"] for b in self.boots),
            "boot.first_response_ms": statistics.median(
                b["first_response_ms"] for b in self.boots
            ),
            "host.ref_ms": statistics.median(s["kernel_ms"] for s in self.slices),
            "host.steal_share": self.steal_share,
            "client.us_per_req": statistics.median(client) / 1e3,
            "trace.overhead_pct": overhead,
        }
        return layers, checks

    def counts(self) -> dict:
        counts = self.model.counts()
        counts["serving.epoch_advance"] = self.epoch_advance
        counts["aop.deployments_reachable"] = self.deployments_reachable
        if self.tracer is not None:
            counts["xmlcore.elements"] = self.tracer.counts["xmlcore.elements"]
            counts["xmlcore.qnames"] = self.tracer.counts["xmlcore.qnames"]
        return counts


#: Units of the printed-only figures; every gated and per-layer metric
#: takes its unit from BENCHMARK.json.
INFO_UNITS = {
    "latency_p99_ms": "ms",
    "latency_samples": "count",
    "samples_beyond_p99": "count",
    "latency_p99.9_ms": "ms",
    "samples_beyond_p99.9": "count",
    "raw_throughput_rps": "1/s",
    "raw_latency_p50_ms": "ms",
    "raw_setup_s": "s",
    "error_rate": "ratio",
}


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "navigation" / "http.py").is_file():
        return _die(f"no program source under {root / 'src'}; run from a checkout")
    sys.path.insert(0, str(root / "src"))
    units = {**declared_units(), **INFO_UNITS}
    cpu = _pin_cpu()

    run = Run(root, cpu, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    finally:
        run.close()
    if run.tracer is not None and not run.tracer.check_removed():
        run._fail("a timing wrapper was left installed")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "interpreter": {
            "implementation": platform.python_implementation(),
            "version": platform.python_version(),
            "executable": Path(sys.executable).name,
        },
        "cpu": cpu,
        "transport": run.transport.name,
        "stream": run.stream.digest,
        "requests_timed": len(run.raw_ns),
        "slices": len(run.slices),
        "host_ref_ms": statistics.median(s["kernel_ms"] for s in run.slices),
        "boots": run.boots,
        "counts": run.counts(),
        "failures": run.failures,
    }
    correct = run.failed == 0
    if args.trace:
        metrics, checks = run.per_layer()
        record.update(checks)
        correct = (
            correct and checks["spans_reconciled"] and checks["spans_match_client"]
        )
    else:
        metrics = run.end_to_end()
        record["info"] = metrics.pop("_info")
    record["metrics"] = metrics
    print(
        f"servebench {args.workload} seed={args.seed} "
        f"python={record['interpreter']['version']} cpu={cpu} "
        f"requests={record['requests_timed']} slices={record['slices']} "
        f"host.ref_ms={record['host_ref_ms']:.4f} stream={run.stream.digest}"
    )
    for name, value in {**metrics, **record.get("info", {})}.items():
        print(f"  {name:28s} {value:14.4f} {units[name]}")
    for failure in run.failures:
        print(f"  FAILED: {failure}")
    print("record: " + json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
