"""Campaign benchmark: one named workload, one seed, every metric.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``perfbench/README.md``):

``portfolio-sweep``, ``many-small-games``, ``threshold-search``
    A campaign (or threshold search) generated from the seed, played in
    rounds.  Each round runs a 2-worker leg and a serial leg, each in a
    fresh process on an empty store, through ``repro.api``.
``serve-read``
    Set-up fills an empty store; each round starts a loopback
    ``repro serve --rate 0`` over it and drives one closed-loop client
    through a fixed request sequence.

Rounds start while one more still fits in ``--seconds`` (at least
:data:`MIN_ROUNDS`); metrics are medians over rounds.  Every round's
rows are checked (see :func:`check_rows`).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` runs the traced legs and reports the
per-layer metrics.  A human-readable table goes to stdout first; the
last stdout line is one JSON object.  The exit status is nonzero when
the row check fails.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything a run writes lives here (git-ignored).
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference")

GAME_WORKLOADS = ("portfolio-sweep", "many-small-games", "threshold-search")
WORKLOADS = GAME_WORKLOADS + ("serve-read",)

#: Fewest rounds a run makes, however short ``--seconds`` is.
MIN_ROUNDS = {"portfolio-sweep": 3, "many-small-games": 3,
              "threshold-search": 3, "serve-read": 2}
MIN_TRACED_ROUNDS = 1

#: Wall-clock cap on one leg process.
LEG_TIMEOUT_S = 120.0

#: How long serve-read polls a resubmitted campaign before giving up.
POLL_TIMEOUT_S = 60.0

#: Pool size of the pooled legs and of the serve-read fill.
POOL_WORKERS = 2

#: Row reasons counted as failed games.
FAILED_REASONS = ("forfeit:timeout", "forfeit:poison")

#: Shared-memory ball segments are named ``repro-balls-<pid>-<hex>``.
SHM_DIR = "/dev/shm"
SHM_SEGMENT = re.compile(r"^repro-balls-(\d+)-[0-9a-f]+$")

#: End-to-end metrics, reported by every workload (BENCHMARK.json).
#: ``ref`` is the time of ``workloads.reference_work`` measured around
#: the same timed phase: the gated times are in units of it.
END_TO_END_UNITS = {
    "setup_s": "s",
    "makespan_ref": "ref",
    "op_cost_ref": "ref",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics, reported by every workload's traced run.
PER_LAYER_UNITS = {
    **{f"{layer}.{stat}": unit
       for layer in ("adversaries", "models", "core", "oracles", "graphs", "verify")
       for stat, unit in (("self_s", "s"), ("calls", "count"))},
    "graphs.ball_hit_ratio": "ratio",
    "graphs.shm_hit_ratio": "ratio",
    "supervisor.self_s": "s",
    "executor.self_s": "s",
    "campaign.self_s": "s",
    "campaign.hash_calls": "count",
    "store.write_s": "s",
    "store.write_calls": "count",
    "store.rows_per_write": "count",
    "store.read_s": "s",
    "store.read_calls": "count",
    "worker_pool.spawn_s": "s",
    "worker_pool.ack_wait_s": "s",
    "worker_pool.ipc_s": "s",
    "worker_pool.lease_sweep_s": "s",
    "worker_pool.busy_ratio": "ratio",
    "worker_pool.worker_fsync_s": "s",
    "worker_pool.requeued": "count",
    "worker_pool.shm_segments_left": "count",
    "server.parse_s": "s",
    "server.encode_s": "s",
    "server.other_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run (not a row-check failure)."""


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(share * len(ordered))) - 1]


class Rounds:
    """When to start another round: always until ``minimum`` rounds are
    done, then only while one more median-length round still fits in
    ``seconds`` (counted from the run's start), so a run lasts about
    ``seconds`` whatever the host's speed."""

    def __init__(self, minimum: int, seconds: float, started: float) -> None:
        self.minimum = minimum
        self.seconds = seconds
        self.started = started
        self.durations: List[float] = []
        self._begun = started

    def more(self) -> bool:
        now = time.monotonic()
        if len(self.durations) < self.minimum:
            self._begun = now
            return True
        if now - self.started + median(self.durations) > self.seconds:
            return False
        self._begun = now
        return True

    def done(self) -> None:
        """Mark the end of the round ``more`` last allowed."""
        self.durations.append(time.monotonic() - self._begun)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


class Run:
    """One benchmark run's scratch directory, child environment, and
    bookkeeping of the processes it started."""

    def __init__(self, workload: str, seed: int) -> None:
        self.started = time.monotonic()
        self.workload = workload
        self.seed = seed
        self.dir = os.path.join(WORK, f"run-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
        self.env.pop("REPRO_WORKERS", None)
        tmp = os.path.join(WORK, "tmp")
        # Forkserver sockets live under TMPDIR; AF_UNIX paths are capped
        # near 108 bytes, so keep the default when the checkout is deep.
        if len(tmp) < 64:
            os.makedirs(tmp, exist_ok=True)
            self.env["TMPDIR"] = tmp
        self.legs = 0
        self.pids: List[int] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def leg(
        self,
        spec: Dict[str, Any],
        workers: int,
        *,
        store: Optional[str] = None,
        trace: bool = False,
        timers: bool = False,
        spans: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Run one leg (``leg.py``) in a fresh process; returns its report."""
        self.legs += 1
        tag = f"leg{self.legs}"
        job = {
            "spec": spec,
            "workers": workers,
            "trace": trace,
            "timers": timers,
            "spans": spans,
            "warmup": workloads.warmup(),
            "store": store or self.path(f"{tag}-store"),
            "warm_store": self.path(f"{tag}-warm"),
            "result": self.path(f"{tag}.json"),
        }
        job_path = self.path(f"{tag}.job.json")
        job["spawned_at"] = time.monotonic()
        with open(job_path, "w", encoding="utf-8") as handle:
            json.dump(job, handle)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "leg.py"), job_path],
            cwd=self.dir, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.pids.append(proc.pid)
        try:
            _, err = proc.communicate(timeout=LEG_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{tag} timed out after {LEG_TIMEOUT_S:.0f}s")
        if proc.returncode != 0:
            raise BenchError(
                f"{tag} exited {proc.returncode}:\n{err.decode(errors='replace')}"
            )
        with open(job["result"], encoding="utf-8") as handle:
            return json.load(handle)

    def shm_segments_left(self) -> int:
        """Count, then unlink, the shared ball segments this run's
        processes created and left behind."""
        try:
            names = os.listdir(SHM_DIR)
        except OSError:
            return 0
        ours = set(self.pids)
        left = 0
        for name in names:
            match = SHM_SEGMENT.match(name)
            if match and int(match.group(1)) in ours:
                left += 1
                try:
                    os.unlink(os.path.join(SHM_DIR, name))
                except OSError:
                    pass
        return left

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Row check
# ----------------------------------------------------------------------


def outcomes(rows: Dict[str, Dict[str, Any]]) -> Dict[str, List[Any]]:
    """The outcome of every game, keyed by game payload."""
    return {
        key: [row["won"], row["reason"], row["forfeit"]]
        for key, row in sorted(rows.items())
    }


def leg_failures(leg: Dict[str, Any]) -> int:
    """Campaign errors, missing rows, and timed-out or quarantined
    games of one leg."""
    bad = sum(1 for row in leg["rows"].values() if row["reason"] in FAILED_REASONS)
    return leg["errors"] + leg["missing"] + bad


class Check:
    """Collects row-check findings; ``ok`` when there are none."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def expect(self, condition: bool, message: str) -> None:
        if not condition and message not in self.problems:
            self.problems.append(message)

    def count_leg(self, leg: Dict[str, Any]) -> None:
        self.attempted += leg["total"]
        failures = leg_failures(leg)
        self.failed += failures
        self.expect(failures == 0, "a leg had failed games (errors, timeouts, "
                    "quarantined or missing rows)")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE, f"{workload}.json")


def reference_of(leg: Dict[str, Any]) -> Dict[str, Any]:
    ref: Dict[str, Any] = {"seed": workloads.DEFAULT_SEED, "outcomes": outcomes(leg["rows"])}
    if "thresholds" in leg:
        ref["thresholds"] = leg["thresholds"]
    return ref


def write_reference_file(path: str, reference: Dict[str, Any]) -> None:
    """Write a reference as JSON with one game outcome per line."""
    lines = [f'"seed": {reference["seed"]}']
    if "thresholds" in reference:
        lines.append(f'"thresholds": {json.dumps(reference["thresholds"])}')
    lines.append('"outcomes": {\n' + ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value)}"
        for key, value in sorted(reference["outcomes"].items())
    ) + "\n}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


def check_rows(
    workload: str, seed: int, legs: List[Dict[str, Any]], check: Check,
    write_reference: bool = False,
) -> None:
    """Every leg must produce the same rows (pooled, serial, traced, in
    every round); the default seed's outcomes must match the committed
    reference; and ``portfolio-sweep`` must be a clean sweep."""
    first = legs[0]
    for leg in legs[1:]:
        check.expect(leg["rows"] == first["rows"],
                     "legs disagree: pooled and serial rows differ")
        check.expect(leg.get("thresholds") == first.get("thresholds"),
                     "legs disagree: threshold results differ")
    if workload == "portfolio-sweep":
        check.expect(
            all(row["won"] and not row["forfeit"] for row in first["rows"].values()),
            "portfolio-sweep is not a clean sweep",
        )
    if seed != workloads.DEFAULT_SEED:
        return
    path = reference_path(workload)
    if write_reference:
        write_reference_file(path, reference_of(first))
    try:
        with open(path, encoding="utf-8") as handle:
            reference = json.load(handle)
    except (OSError, ValueError):
        check.expect(False, f"no readable reference at {os.path.relpath(path, ROOT)}")
        return
    check.expect(reference == reference_of(first),
                 "default-seed outcomes differ from the committed reference")


# ----------------------------------------------------------------------
# Game workloads
# ----------------------------------------------------------------------


def games_per_s(leg: Dict[str, Any]) -> float:
    return leg["played"] / leg["makespan_s"]




def run_game_workload(run: Run, seconds: float, trace: bool, check: Check,
                      write_reference: bool) -> Tuple[Dict[str, float], List[str]]:
    spec = workloads.GENERATORS[run.workload](run.seed)
    rounds: List[Dict[str, Dict[str, Any]]] = []
    schedule = Rounds(MIN_TRACED_ROUNDS if trace else MIN_ROUNDS[run.workload],
                      seconds, run.started)
    while schedule.more():
        if trace:
            legs = {
                "serial": run.leg(spec, 1),
                "traced": run.leg(spec, 1, trace=True, spans=os.path.join(
                    WORK, f"spans-{run.workload}.jsonl")),
                "pooled": run.leg(spec, POOL_WORKERS, trace=True, timers=True),
            }
        else:
            # Alternate which leg goes first, so neither always runs on
            # a host the other has just warmed or heated.
            order = ("pooled", "serial") if len(rounds) % 2 == 0 else ("serial", "pooled")
            legs = {
                name: run.leg(spec, POOL_WORKERS if name == "pooled" else 1)
                for name in order
            }
        rounds.append(legs)
        schedule.done()
    every_leg = [leg for legs in rounds for leg in legs.values()]
    for leg in every_leg:
        check.count_leg(leg)
    check_rows(run.workload, run.seed, every_leg, check, write_reference)
    shm_left = run.shm_segments_left()
    check.expect(shm_left == 0, f"{shm_left} shared ball segments left behind")
    if trace:
        return game_layer_metrics(rounds, shm_left), []
    return game_end_to_end(rounds, check)


def table(lines: List[Tuple[str, float, str, int]]) -> List[str]:
    """Report lines: name, value, unit, and sample count."""
    return [f"{name:<22}{value:>14.4f}  {unit:<8}n={count}"
            for name, value, unit, count in lines]


def game_end_to_end(rounds, check: Check) -> Tuple[Dict[str, float], List[str]]:
    pooled = [legs["pooled"] for legs in rounds]
    serial = [legs["serial"] for legs in rounds]
    n = len(rounds)
    # One reference time for the whole run: the median of every leg's
    # two reference measurements, so no single noisy one moves it.
    ref_s = median([t for leg in pooled + serial for t in leg["ref_s"]])
    metrics = {
        "setup_s": median([leg["setup_s"] for leg in pooled]),
        "makespan_ref": median([leg["makespan_s"] for leg in pooled]) / ref_s,
        "op_cost_ref": median([leg["makespan_s"] / leg["played"] for leg in serial]) / ref_s,
        "peak_rss_mb": median([leg["rss_mb"] for leg in serial]),
    }
    lines = [
        ("setup_s", metrics["setup_s"], "s", n),
        ("makespan_ref", metrics["makespan_ref"], "ref", n),
        ("op_cost_ref", metrics["op_cost_ref"], "ref", n),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MiB", n),
        ("games_per_s", median([games_per_s(leg) for leg in pooled]), "games/s", n),
        ("makespan_s", median([leg["makespan_s"] for leg in pooled]), "s", n),
        ("serial_games_per_s", median([games_per_s(leg) for leg in serial]), "games/s", n),
        ("serial_makespan_s", median([leg["makespan_s"] for leg in serial]), "s", n),
        ("ref_s", ref_s, "s", 4 * n),
        ("failed_share", check.failed / max(check.attempted, 1), "ratio", check.attempted),
        ("games_per_round", pooled[0]["played"], "games", n),
    ]
    report = table(lines)
    for kind, legs in (("pooled", pooled), ("serial", serial)):
        report.append(f"{kind} makespans (s): "
                      + " ".join(f"{leg['makespan_s']:.3f}" for leg in legs))
    return metrics, report


def _span(totals, name: str, stat: str) -> float:
    return totals.get(name, {}).get(stat, 0.0)


def game_layer_metrics(rounds, shm_left: int) -> Dict[str, float]:
    import spans

    per_round: List[Dict[str, float]] = []
    for legs in rounds:
        totals = legs["traced"]["span_totals"]
        layers = spans.layer_totals(totals)
        m: Dict[str, float] = {}
        for layer in ("adversaries", "models", "core", "oracles", "graphs", "verify"):
            m[f"{layer}.self_s"] = layers[layer]["self_s"]
            m[f"{layer}.calls"] = layers[layer]["calls"]
        balls = legs["traced"]["ball_counters"]
        lookups = balls["ball_cache_hits"] + balls["ball_cache_misses"]
        m["graphs.ball_hit_ratio"] = balls["ball_cache_hits"] / lookups if lookups else 0.0
        pooled = legs["pooled"]
        counters = pooled["counters"]
        misses = counters.get("ball_cache_misses", 0)
        m["graphs.shm_hit_ratio"] = (
            counters.get("ball_cache_shm_hits", 0) / misses if misses else 0.0
        )
        for layer in ("supervisor", "executor", "campaign"):
            m[f"{layer}.self_s"] = layers[layer]["self_s"]
        m["campaign.hash_calls"] = _span(totals, "campaign:hash_of", "calls")
        writes = _span(totals, "store:ResultStore.add_many", "calls")
        m["store.write_s"] = _span(totals, "store:ResultStore.add_many", "self_s")
        m["store.write_calls"] = writes
        m["store.rows_per_write"] = legs["traced"]["rows_written"] / writes if writes else 0.0
        m["store.read_s"] = (_span(totals, "store:ResultStore.rows", "self_s")
                             + _span(totals, "store:ResultStore.index", "self_s"))
        m["store.read_calls"] = _span(totals, "store:ResultStore.rows", "calls")
        phases = pooled["phases"]
        pool_wall = _span(pooled["span_totals"], "worker_pool:SupervisedWorkerPool.run", "total_s")
        m["worker_pool.spawn_s"] = pooled["warm_phases"].get("pool-spawn", 0.0)
        m["worker_pool.ack_wait_s"] = phases.get("ack-wait", 0.0)
        m["worker_pool.ipc_s"] = (phases.get("pipe-send", 0.0) + phases.get("ack-drain", 0.0)
                                  + phases.get("worker:pipe-send", 0.0))
        m["worker_pool.lease_sweep_s"] = phases.get("lease-sweep", 0.0)
        m["worker_pool.busy_ratio"] = (
            phases.get("worker:compute", 0.0) / (POOL_WORKERS * pool_wall) if pool_wall else 0.0
        )
        m["worker_pool.worker_fsync_s"] = phases.get("worker:store-fsync", 0.0)
        m["worker_pool.requeued"] = counters.get("campaign_games_requeued", 0)
        m["trace.coverage"] = spans.game_coverage(totals) or 0.0
        m["trace.overhead"] = (legs["traced"]["makespan_s"] / legs["serial"]["makespan_s"]) - 1.0
        per_round.append(m)
    metrics = {name: median([m[name] for m in per_round]) for name in per_round[0]}
    metrics["worker_pool.shm_segments_left"] = shm_left
    for name in ("server.parse_s", "server.encode_s", "server.other_s"):
        metrics[name] = 0.0
    return metrics


# ----------------------------------------------------------------------
# serve-read
# ----------------------------------------------------------------------


class Server:
    """A loopback ``repro serve --rate 0`` (or the traced launcher)."""

    def __init__(self, run: Run, store: str, spans: Optional[str]) -> None:
        if spans is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", "--store", store,
                    "--port", "0", "--rate", "0"]
        else:
            argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                    "--store", store, "--spans", spans]
        self.proc = subprocess.Popen(
            argv, cwd=run.dir, env=run.env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        run.pids.append(self.proc.pid)
        self.rss_mb = 0.0
        self.port = self._await_listening()

    def _await_listening(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        buffered = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = re.search(rb"listening on http://[^:]+:(\d+)", buffered)
                if match:
                    return int(match.group(1))
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise BenchError("server did not start listening")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then reap, keeping the peak RSS."""
        if self.proc.returncode is not None:
            return
        try:
            self.proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 20.0
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rss_mb = usage.ru_maxrss / 1024.0
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.02)
        self.proc.stdout.close()


class Client:
    """One closed-loop HTTP client: each request waits for the last."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.requests = 0
        self.failed = 0
        self.latency_s = 0.0

    def call(self, method: str, path: str, body: Any = None) -> Tuple[int, Any, float]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        started = time.perf_counter()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            status, data = 0, b"null"
        finally:
            conn.close()
        latency = time.perf_counter() - started
        self.latency_s += latency
        self.requests += 1
        if not 200 <= status < 300:
            self.failed += 1
        try:
            return status, json.loads(data), latency
        except ValueError:
            return status, None, latency


def serve_cycle(port: int, fill: Dict[str, Any], check: Check) -> Dict[str, Any]:
    """The fixed request sequence: resubmit the stored campaign, poll it
    to ``done``, page every row (limit 100), look up every row by hash."""
    client = Client(port)
    campaign = fill["campaign_id"]
    started = time.perf_counter()
    status, handle, _ = client.call("POST", "/v1/campaigns", fill["submit"])
    check.expect(status in (200, 202), f"resubmit returned HTTP {status}")
    deadline = time.monotonic() + POLL_TIMEOUT_S
    while (status in (200, 202) and handle and time.monotonic() < deadline
           and handle.get("state") not in ("done", "failed")):
        status, handle, _ = client.call("GET", f"/v1/campaigns/{campaign}")
    check.expect(bool(handle) and handle.get("state") == "done"
                 and handle.get("played") == 0,
                 "the resubmitted campaign did not finish with zero games replayed")
    rows: List[Dict[str, Any]] = []
    page_latency: List[float] = []
    offset: Optional[int] = 0
    while offset is not None:
        status, page, latency = client.call(
            "GET", f"/v1/campaigns/{campaign}/rows?offset={offset}&limit=100")
        page_latency.append(latency)
        if status != 200 or not page:
            break
        rows.extend(page["rows"])
        offset = page["next_offset"]
    resubmit_s = time.perf_counter() - started
    paged = {key: {k: v for k, v in row.items() if k != "spec_hash"}
             for key, row in zip(fill["order"], rows)}
    check.expect(len(rows) == len(fill["order"]) and paged == fill["rows"],
                 "paged rows differ from the rows the fill played")
    result_latency: List[float] = []
    for row in rows:
        status, served, latency = client.call("GET", f"/v1/results/{row['spec_hash']}")
        result_latency.append(latency)
        check.expect(status != 200 or served == row,
                     "a result lookup differs from its paged row")
    elapsed = time.perf_counter() - started
    return {
        "resubmit_s": resubmit_s,
        "elapsed_s": elapsed,
        "requests": client.requests,
        "failed": client.failed,
        "latency_s": client.latency_s,
        "req_per_s": client.requests / elapsed,
        "result_latency": result_latency,
        "page_latency": page_latency,
    }


def run_serve_read(run: Run, seconds: float, trace: bool, check: Check,
                   write_reference: bool) -> Tuple[Dict[str, float], List[str]]:
    spec = workloads.GENERATORS[run.workload](run.seed)
    store = run.path("serve-store")
    # Set-up shared by every round: fill an empty store by playing the
    # campaign with a 2-worker pool.  Each round then starts a fresh
    # server over it, so a round's set-up is the fill plus its server's
    # start-up.
    begun = time.monotonic()
    fill = run.leg(spec, POOL_WORKERS, store=store)
    fill_s = time.monotonic() - begun
    check.count_leg(fill)
    rounds: List[Dict[str, Any]] = []
    schedule = Rounds(MIN_TRACED_ROUNDS if trace else MIN_ROUNDS[run.workload],
                      seconds, run.started)
    while schedule.more():
        spans_path = os.path.join(WORK, "spans-serve-read.jsonl") if trace else None
        begun = time.monotonic()
        server = Server(run, store, spans_path)
        setup_s = fill_s + time.monotonic() - begun
        try:
            before_ref = workloads.reference_work()
            cycle = serve_cycle(server.port, fill, check)
            ref_s = [before_ref, workloads.reference_work()]
        finally:
            server.stop()
        cycle.update(setup_s=setup_s, rss_mb=server.rss_mb, ref_s=ref_s)
        if trace:
            with open(spans_path + ".totals.json", encoding="utf-8") as handle:
                cycle["span_totals"] = json.load(handle)
            plain = Server(run, store, None)
            try:
                cycle["untraced"] = serve_cycle(plain.port, fill, check)
            finally:
                plain.stop()
        rounds.append(cycle)
        schedule.done()
        for sequence in (cycle, cycle.get("untraced")):
            if sequence is not None:
                check.attempted += sequence["requests"]
                check.failed += sequence["failed"]
                check.expect(sequence["failed"] == 0, "the server answered non-2xx")
    check_rows(run.workload, run.seed, [fill], check, write_reference)
    shm_left = run.shm_segments_left()
    check.expect(shm_left == 0, f"{shm_left} shared ball segments left behind")
    if trace:
        return serve_layer_metrics(rounds, shm_left), []
    n = len(rounds)
    lookups = [x for c in rounds for x in c["result_latency"]]
    pages = [x for c in rounds for x in c["page_latency"]]
    ref_s = median([t for c in rounds for t in c["ref_s"]])
    metrics = {
        "setup_s": median([c["setup_s"] for c in rounds]),
        "makespan_ref": median([c["resubmit_s"] for c in rounds]) / ref_s,
        "op_cost_ref": median([c["elapsed_s"] / c["requests"] for c in rounds]) / ref_s,
        "peak_rss_mb": median([c["rss_mb"] for c in rounds]),
    }
    lines = [
        ("setup_s", metrics["setup_s"], "s", n),
        ("makespan_ref", metrics["makespan_ref"], "ref", n),
        ("op_cost_ref", metrics["op_cost_ref"], "ref", n),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MiB", n),
        ("req_per_s", median([c["req_per_s"] for c in rounds]), "req/s", n),
        ("result_p50_ms", 1000 * percentile(lookups, 0.5), "ms", len(lookups)),
        ("result_p99_ms", 1000 * percentile(lookups, 0.99), "ms", len(lookups)),
        ("rows_page_p50_ms", 1000 * percentile(pages, 0.5), "ms", len(pages)),
        ("resubmit_s", median([c["resubmit_s"] for c in rounds]), "s", n),
        ("ref_s", ref_s, "s", 2 * n),
        ("failed_share", check.failed / max(check.attempted, 1), "ratio", check.attempted),
        ("rows_served", len(fill["rows"]), "rows", n),
    ]
    return metrics, table(lines)


def serve_layer_metrics(rounds, shm_left: int) -> Dict[str, float]:
    import spans

    per_round = []
    for cycle in rounds:
        totals = cycle["span_totals"]
        layers = spans.layer_totals(totals)
        # Client-observed latency of every request, against the time the
        # server process spent inside named spans.
        latency = cycle["latency_s"]
        inside = sum(entry["self_s"] for entry in totals.values())
        m = {
            "server.parse_s": _span(totals, "server:read_request", "self_s"),
            "server.encode_s": (_span(totals, "server:json_response", "self_s")
                                + _span(totals, "server:Response.encode", "self_s")),
            "server.other_s": max(0.0, latency - inside),
            "campaign.self_s": layers["campaign"]["self_s"],
            "campaign.hash_calls": _span(totals, "campaign:hash_of", "calls"),
            "store.read_s": (_span(totals, "store:ResultStore.rows", "self_s")
                             + _span(totals, "store:ResultStore.index", "self_s")),
            "store.read_calls": _span(totals, "store:ResultStore.rows", "calls"),
            "trace.coverage": min(1.0, inside / latency),
            "trace.overhead": cycle["elapsed_s"] / cycle["untraced"]["elapsed_s"] - 1.0,
        }
        per_round.append(m)
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in per_round[0]:
        metrics[name] = median([m[name] for m in per_round])
    metrics["worker_pool.shm_segments_left"] = shm_left
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="run length: rounds start while one more fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference/<workload>.json from this run "
                        "(default seed only)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    check = Check()
    try:
        runner = run_serve_read if args.workload == "serve-read" else run_game_workload
        metrics, lines = runner(run, args.seconds, bool(args.trace), check,
                                args.write_reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(line)
    if args.trace:
        for name, unit in units.items():
            print(f"{name:<32}{metrics[name]:>14.6f}  {unit}")
    print("row check: " + ("ok" if check.ok else "FAILED: " + "; ".join(check.problems)))
    result = {
        "correct": check.ok,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if check.ok else 1


if __name__ == "__main__":
    sys.exit(main())
