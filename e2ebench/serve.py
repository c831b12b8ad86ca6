"""serve-paper: open-loop HTTP load on ``anyopt serve``.

Preparation (untimed) discovers the Table 1 model at the seed.  Set-up
compiles and writes the snapshot and starts the server in its own
process.  One asyncio thread then drives it open-loop over two
keep-alive connections at two fixed rates, ``light`` and
``heavy``, and afterwards walks a fixed rate ladder on a fresh server
to find the highest rate that meets the p99 limit.

The request mix: mostly 16-client point queries whose configurations
come half from a small hot set (lookup-memo hits) and half fresh
(memo misses that run the tournament), plus a minority of all-client
what-if answers (mostly JSON encoding).
"""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time

from repro import AnycastConfig
from repro.io.serialization import model_to_dict
from repro.serve import LookupEngine, compile_snapshot, load_snapshot, write_snapshot
from repro.serve.http import DEFAULT_LATENCY_THRESHOLD_MS
from repro.util.stats import percentile

import campaign
import loadgen
from common import HERE, OUT_DIR, Outcome, check_repeatable, digest, median
from spans import NullRecorder

#: The rates of the two timed windows (requests/s).  On this mix the
#: server spends 1.4-1.6 ms of CPU per request on a 2-core x86 VM, so it
#: saturates near 700/s (NOTES.md has the measurement): ``light``
#: keeps it ~15% busy, ``heavy`` ~60%.  Each window reports the busy
#: share it caused.
LIGHT_RPS = 100.0
HEAVY_RPS = 400.0
#: Share of ``--seconds`` given to each of the light and heavy
#: windows; the capacity ladder gets the rest.
WINDOW_SHARE = 0.25
#: The capacity ladder (requests/s), walked upwards until a step
#: misses the p99 limit or leaves a growing backlog.  The steps share
#: the ladder's time equally, so every one is reachable; they bracket
#: the saturation rate.
LADDER_RPS = (300, 400, 500, 600, 700, 800)
#: The server's own p99-latency objective: 99% of requests within it.
P99_LIMIT_MS = DEFAULT_LATENCY_THRESHOLD_MS
#: A step whose median latency rises by more than this from its first
#: half to its second has a growing backlog.  A step 10% over what the
#: server sustains rises by ~80 ms at the default length; noise at a
#: sustainable rate moves the median by a few ms.
BACKLOG_GROWTH_LIMIT_MS = P99_LIMIT_MS / 10
CONNECTIONS = 2
POINT_CLIENTS = 16
#: Sizes of the hot configurations, and the cycle fresh ones follow.
CONFIG_SIZES = (2, 3, 4, 6, 8, 10, 12, 15)
#: In process an all-client answer costs ~6 ms, a point query ~0.2 ms
#: (memo hit) or ~1 ms (miss).  At this share the all-client answers
#: carry ~60% of the in-process work and the point queries ~40%, so
#: both the encoder and the lookup move the latencies.
FULL_ANSWER_SHARE = 0.1
REQUEST_TIMEOUT_S = 5.0
#: A window whose generator woke up later than this at p99 measured
#: the generator, not the server: the run is invalid.  It is about
#: twice the in-process cost of the costliest request.
GENERATOR_LATE_LIMIT_MS = 12.5
#: Set-ups per run (each compiles, writes and starts a server).
SETUPS = 5


def prepare(seed):
    """The model served: campaign-paper's discover at the same seed."""
    return campaign.setup(seed, NullRecorder()).discover()


class Server:
    """One ``anyopt serve`` process on an ephemeral port."""

    def __init__(self, snapshot_path, tag, spans_path=None):
        self.info_path = os.path.join(OUT_DIR, f"server-{tag}.json")
        port_path = self.info_path + ".port"
        for path in (self.info_path, port_path):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, os.path.join(HERE, "server_proc.py"),
               "--snapshot", snapshot_path, "--info", self.info_path]
        if spans_path:
            cmd += ["--spans", spans_path]
        self.log = open(os.path.join(OUT_DIR, f"server-{tag}.log"), "wb")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=self.log)
        deadline = time.monotonic() + 60.0
        while not os.path.exists(port_path):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start; see {self.log.name}")
            time.sleep(0.002)
        with open(port_path) as fh:
            self.port = json.load(fh)["port"]

    def cpu_s(self):
        """User plus system CPU seconds the server has used."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmRSS for the server process")

    def stop(self):
        """Stop gracefully (SIGTERM drains) and wait; returns what the
        server reported at exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        try:
            with open(self.info_path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return {}


class Requests:
    """Seeded request bodies and their reference answers.

    The seed picks sites, clients and the order of requests; the mix
    itself is fixed, so every seed asks for the same kinds of work in
    the same proportions: configuration sizes cycle through
    ``CONFIG_SIZES`` and each window holds exact shares of hot point
    queries, fresh point queries and all-client answers.
    """

    def __init__(self, engine, seed):
        self.engine = engine
        self.seed = seed
        self.sites = list(engine.site_ids())
        self.clients = list(engine.client_ids())
        rnd = random.Random(f"serve-paper/hot/{seed}")
        self.hot = [tuple(rnd.sample(self.sites, size)) for size in CONFIG_SIZES]
        self._expected = {}

    def schedule(self, label, rate, duration):
        """Requests due every ``1/rate`` seconds: (offsets, bodies)."""
        rnd = random.Random(f"serve-paper/{label}/{self.seed}")
        n = max(1, int(rate * duration))
        n_full = round(n * FULL_ANSWER_SHARE)
        n_hot = (n - n_full) // 2
        kinds = ["full"] * n_full + ["hot"] * n_hot + ["fresh"] * (n - n_full - n_hot)
        rnd.shuffle(kinds)
        bodies = []
        for i, kind in enumerate(kinds):
            if kind == "full":
                doc = {"sites": list(self.hot[i % len(self.hot)])}
            else:
                if kind == "hot":
                    order = self.hot[i % len(self.hot)]
                else:
                    order = rnd.sample(self.sites, CONFIG_SIZES[i % len(CONFIG_SIZES)])
                doc = {"sites": list(order),
                       "clients": rnd.sample(self.clients, POINT_CLIENTS)}
            body = json.dumps(doc).encode()
            self.expected(body)
            bodies.append(body)
        return [i / rate for i in range(n)], bodies

    def expected(self, body):
        """The digest of what ``POST /predict`` must answer for
        ``body``, built as the server builds it, from an in-process
        engine over the same snapshot."""
        digest = self._expected.get(body)
        if digest is None:
            doc = json.loads(body)
            batch = self.engine.predict(
                AnycastConfig(site_order=tuple(doc["sites"])), doc.get("clients")
            )
            answer = batch.to_dict()
            answer["model_version"] = self.engine.version
            payload = json.dumps(answer).encode("utf-8")
            digest = self._expected[body] = hashlib.blake2b(
                payload, digest_size=16
            ).digest()
        return digest


def _stats(window):
    samples = window.samples
    latencies = [s.latency_s * 1000.0 for s in samples]
    # A refused or failed request misses any latency limit.
    limited = [
        ms if s.status == 200 else float("inf") for s, ms in zip(samples, latencies)
    ]
    half = len(latencies) // 2
    return {
        "n": len(samples),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(limited, 99),
        "late_p99_ms": percentile([s.late_s * 1000.0 for s in samples], 99),
        "failed": sum(1 for s in samples if s.status != 200),
        "drain_ms": window.drain_s * 1000.0,
        # How far the median latency rose from the first half of the
        # window to the second: a backlog that grows shows here.
        "growth_ms": (
            percentile(latencies[half:], 50) - percentile(latencies[:half], 50)
            if half else 0.0
        ),
    }


def _wrong_answers(window, bodies, requests):
    return sum(
        1 for s in window.samples
        if s.status == 200 and s.body_digest != requests.expected(bodies[s.index])
    )


def _ladder(snap_path, requests, budget_s):
    """Walk the rate ladder on a fresh server, ``budget_s`` shared
    among its steps; one dict per step."""
    steps = []
    step_s = budget_s / len(LADDER_RPS)
    server = Server(snap_path, "ladder")
    try:
        for rate in LADDER_RPS:
            offsets, bodies = requests.schedule(f"ladder-{rate}", rate, step_s)
            window = loadgen.run_window(
                server.port, offsets, bodies, CONNECTIONS, REQUEST_TIMEOUT_S
            )
            st = _stats(window)
            st["rate"] = rate
            st["wrong"] = _wrong_answers(window, bodies, requests)
            # Met: p99 within the limit (failures count as misses),
            # the generator kept up, and the backlog neither grew nor
            # outlasted the limit.
            st["ok"] = (
                st["p99_ms"] <= P99_LIMIT_MS
                and st["late_p99_ms"] <= GENERATOR_LATE_LIMIT_MS
                and st["growth_ms"] <= BACKLOG_GROWTH_LIMIT_MS
                and st["drain_ms"] <= P99_LIMIT_MS
            )
            steps.append(st)
            if not st["ok"]:
                break
    finally:
        server.stop()
    return steps


def run(seed, seconds, rec, prepared, fixed_work=False):
    model = prepared
    os.makedirs(OUT_DIR, exist_ok=True)
    snap_path = os.path.join(OUT_DIR, f"serve-paper-{seed}.snap")
    spans_path = os.path.join(OUT_DIR, "spans-serve-paper-server.npz")

    setup_times, server = [], None
    for _ in range(1 if fixed_work else SETUPS):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        with rec.span("serve.snapshot.compile"):
            snapshot = compile_snapshot(model)
        with rec.span("serve.snapshot.write"):
            write_snapshot(snapshot, snap_path)
        server = Server(snap_path, "main", spans_path if rec.enabled else None)
        setup_times.append(time.perf_counter() - start)

    try:
        requests = Requests(LookupEngine(load_snapshot(snap_path)), seed)
        duration = seconds * WINDOW_SHARE
        schedules = {
            "light": requests.schedule("light", LIGHT_RPS, duration),
            "heavy": requests.schedule("heavy", HEAVY_RPS, duration),
        }
        windows, busy = {}, {}
        for label, (offsets, bodies) in schedules.items():
            cpu_before = server.cpu_s()
            windows[label] = loadgen.run_window(
                server.port, offsets, bodies, CONNECTIONS, REQUEST_TIMEOUT_S
            )
            busy[label] = server.cpu_s() - cpu_before
        cpu_s = sum(busy.values())
        rss_mb = server.rss_mb()
    finally:
        info = server.stop()
    ladder = [] if fixed_work else _ladder(
        snap_path, requests, seconds * (1 - 2 * WINDOW_SHARE)
    )
    os.remove(snap_path)

    stats = {label: _stats(window) for label, window in windows.items()}
    samples = [s for window in windows.values() for s in window.samples]
    statuses = [s.status for s in samples]
    answered = [s for s in samples if s.status == 200]
    n = len(samples)
    failed = n - len(answered)
    capacity = max((step["rate"] for step in ladder if step["ok"]), default=0)
    report = {
        f"serve.{label}.{key}": (st[key], unit)
        for label, st in stats.items()
        for key, unit in (("p50_ms", "ms"), ("p99_ms", "ms"), ("n", "count"))
    }
    report.update({
        f"serve.{label}.busy": (cpu / duration, "ratio") for label, cpu in busy.items()
    })
    report.update({
        "serve.capacity_rps": (capacity, "1/s"),
        "serve.ladder": (" ".join(
            f"{s['rate']}:{'ok' if s['ok'] else 'miss'}/p99={s['p99_ms']:.1f}ms"
            f"/growth={s['growth_ms']:.1f}ms/drain={s['drain_ms']:.0f}ms"
            f"/late={s['late_p99_ms']:.1f}ms"
            for s in ladder) or "skipped", ""),
        "serve.p99_limit_ms": (P99_LIMIT_MS, "ms"),
        "serve.rss_mb": (rss_mb, "MB"),
        "serve.cpu_ms_per_req": (1000.0 * cpu_s / n, "ms"),
        "serve.spans_retained": (info.get("spans_retained", 0), "count"),
        "failed_frac": (failed / n, "ratio"),
    })

    outcome = Outcome(
        metrics={
            "setup_s": median(setup_times),
            "latency_ms": stats["heavy"]["p50_ms"],
            "rss_mb": rss_mb,
        },
        attempted=n,
        failed=failed,
        report=report,
        layers={
            "serve.http.requests": n,
            "serve.http.status.2xx": sum(1 for st in statuses if 200 <= st < 300),
            "serve.http.status.4xx": sum(
                1 for st in statuses if 400 <= st < 500 and st != 429
            ),
            "serve.http.status.429": statuses.count(429),
            "serve.http.status.5xx": sum(1 for st in statuses if st >= 500),
            "serve.http.cpu_ms_per_req": 1000.0 * cpu_s / n,
            "serve.http.bytes_per_resp": (
                sum(s.nbytes for s in answered) / len(answered) if answered else 0.0
            ),
            "serve.http.generator_late_ms": max(
                st["late_p99_ms"] for st in stats.values()
            ),
            "serve.http.spans_retained": info.get("spans_retained", 0),
        },
        overhead_basis=cpu_s / n,
        fingerprint=_answers_digest(windows),
        extra_spans=info.get("summary", {}),
    )

    check_repeatable(outcome, "model digest", f"seed {seed}", digest(model_to_dict(model)))
    outcome.check("the server exited cleanly and reported", bool(info), str(sorted(info)))
    wrong = sum(
        _wrong_answers(windows[label], bodies, requests)
        for label, (_, bodies) in schedules.items()
    ) + sum(step["wrong"] for step in ladder)
    outcome.check(
        "every 200 answer is byte-identical to the in-process reference engine",
        wrong == 0,
        f"{len(answered) + sum(s['n'] - s['failed'] for s in ladder)} answers, "
        f"{wrong} differ",
    )
    for label, st in stats.items():
        outcome.check(
            f"{label} window generator kept up (p99 wake-up lag <= "
            f"{GENERATOR_LATE_LIMIT_MS} ms)",
            st["late_p99_ms"] <= GENERATOR_LATE_LIMIT_MS,
            f"{st['late_p99_ms']:.3f} ms",
        )
    return outcome


def _answers_digest(windows):
    """Digest of every answer of the windows, in request order."""
    h = hashlib.blake2b(digest_size=16)
    for window in windows.values():
        for s in window.samples:
            h.update(s.body_digest or b"-")
    return h.hexdigest()
