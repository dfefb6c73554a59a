"""Supervised campaign worker pool: chunked leases, crash recovery,
quarantine, and warm workers.

The PR-5 campaign scheduler fanned games out over bare ``ctx.Process``
workers sharing one task queue.  That survives the failures *games*
survive (victim crashes become forfeit rows inside the worker) but not
the failures *processes* suffer: a SIGKILLed, OOM'd, or natively hung
worker silently lost its in-flight game, and the parent's drain loop
only noticed once **every** worker was dead.  This module replaces the
fan-out with a supervised pool:

* **Chunked leases** — the parent dispatches a *batch* of games to one
  worker per lease and records a :class:`Lease` (the chunk's items,
  pid, a monotonic deadline summed over the chunk's ``GamePolicy``
  timeouts × a grace factor).  Chunk size adapts: it starts at
  ``ceil(pending / (2 × workers))`` (capped by ``max_chunk``) and
  halves toward 1 as the queue drains, so work-stealing stays balanced
  at the tail while the bulk of the campaign pays one IPC round-trip
  and one fsync per *chunk* instead of per game.  The worker heartbeats
  each game as it starts, plays the whole chunk through
  :func:`play_chunk` (every row in one batched store append), and
  sends **one** ack carrying all rows.  The serial scheduler plays its
  chunks through the same function, without the pipe.
* **Crash recovery at chunk granularity, blame at game granularity** —
  dead workers (``Process.is_alive()``/``exitcode``) and expired leases
  are reaped, a replacement spawned (while the restart budget lasts),
  and every *unacknowledged* game of the lost chunk requeued.  The
  per-game heartbeat marks which game was in progress, so only that
  game is blamed for the loss: ``poison_threshold`` losses quarantine
  *it* — written to the :class:`~repro.analysis.store.ResultStore` as a
  structured forfeit row (``reason="forfeit:poison"``) — while its
  chunk-mates are requeued untainted.
* **Warm forkserver workers** — the pool runs on a ``forkserver``
  context (``REPRO_POOL_START`` overrides) with the simulator/graph
  modules preloaded, and healthy workers are *parked* in a module-level
  :class:`WarmWorkerPool` at shutdown instead of being retired.  The
  next campaign in the same process adopts them with a ``configure``
  message, so ``pool-spawn`` is paid once per process, not per
  campaign.  Workers share no computed balls: each keeps its own
  in-process :class:`~repro.graphs.traversal.BallCache` pool.
* **Isolated channels** — each worker talks to the parent over its own
  duplex pipe; a torn write poisons only the dead worker's channel.
* **Graceful degradation** — when the restart budget is exhausted the
  pool stops, hands the un-played remainder back to the scheduler, and
  the scheduler finishes **in-process serially** instead of raising.

Observability: the drain runs inside a ``worker-pool`` span, and its
phases (``ack-wait`` is the parent blocked on worker pipes,
``ack-drain`` the actual recv+fold cost) are spans too.  Worker
lifecycle transitions are events (``pool-start``, ``worker-spawned``,
``worker-adopted``, ``dispatch``, ``worker-died``, ``game-requeued``,
``game-error``, ``pool-finished``), so they reach the flight ring and,
when the run is traced, the trace; lease expiry, quarantine and
degradation are ``fault`` events recorded by the flight dump they
trigger.  The counters ``campaign_worker_restarts`` /
``campaign_lease_expirations`` / ``campaign_games_requeued`` /
``campaign_games_quarantined`` / ``campaign_pool_degradations`` /
``campaign_warm_adoptions`` fold through the ordinary registry, next to
heartbeats (one per game start) and the rate-limited ``live.json``
status.

Chaos: workers consult an optional
:class:`~repro.robustness.chaos.ChaosPolicy` (normally passed via the
``REPRO_CHAOS`` environment) before each game of a chunk — kill-self,
stall, corrupt-result-row, slow-start.  The parent never applies chaos,
so the degraded serial path always completes.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import signal
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.analysis.executor import GameSpec
from repro.analysis.store import (
    HASH_FIELD,
    QUARANTINE_CAUSE,
    QUARANTINE_REASON,
    ResultStore,
)
from repro.observability.export import write_live_status
from repro.observability.flightrec import dump_on_fault
from repro.observability.metrics import get_registry, scoped_registry
from repro.observability.trace import (
    WORKER_SCOPE,
    event,
    phase_attribution,
    set_phase_scope,
    span,
)
from repro.robustness.chaos import ChaosPolicy, inject_corrupt_row

#: One work item as the scheduler hands it over: (content hash, spec).
WorkItem = Tuple[str, GameSpec]

#: One dispatched chunk entry: (content hash, spec, attempt number).
ChunkItem = Tuple[str, GameSpec, int]

#: One game as :func:`play_chunk` reports it: (content hash, ``"done"``
#: or ``"error"``, the durable row or the error text).
GameReport = Tuple[str, str, Any]

#: Upper bound on the adaptive chunk size (games per lease).
DEFAULT_MAX_CHUNK = 32

#: Environment knob selecting the pool's multiprocessing start method
#: (default ``forkserver``; ``fork`` restores the PR-5 behavior).
POOL_START_ENV_VAR = "REPRO_POOL_START"

#: Modules the forkserver preloads so every worker fork starts with the
#: simulator, registry, and graph traversal already imported.
FORKSERVER_PRELOAD = (
    "repro.analysis.campaign",
    "repro.registry",
    "repro.graphs.traversal",
)


def _main_module_forkable() -> bool:
    """Whether forkserver children can re-prepare the caller's main
    module.

    Forkserver workers run the spawn-style main-module fixup: a main
    imported by name (``python -m``, pytest's importable scripts) or a
    real file re-imports fine, but a pseudo-path like ``<stdin>`` (a
    heredoc script) makes every worker die at boot trying to re-run it.
    Those callers get the plain ``fork`` method instead.
    """
    main_module = sys.modules.get("__main__")
    if main_module is None:  # pragma: no cover - embedded interpreters
        return False
    spec = getattr(main_module, "__spec__", None)
    if getattr(spec, "name", None) is not None:
        return True
    main_path = getattr(main_module, "__file__", None)
    if main_path is None:
        # No spec and no file (a REPL): children skip main fixup.
        return True
    return os.path.isfile(main_path)

_pool_ctxs: Dict[str, Any] = {}


def pool_start_context():
    """The pool's multiprocessing context (cached per start method).

    ``forkserver`` by default: one server process imports the heavy
    modules once (``set_forkserver_preload``) and every worker is a
    cheap fork of *it*, so repeated campaigns stop paying interpreter
    plus import start-up per worker.  ``REPRO_POOL_START`` selects
    ``fork``/``spawn`` instead (the SIGKILL process-tree test uses
    ``fork`` where workers must be direct children, and in-process
    registry mutations only reach fork workers) and is re-read on every
    call so tests can switch methods mid-process.
    """
    default = "forkserver" if _main_module_forkable() else "fork"
    requested = os.environ.get(POOL_START_ENV_VAR, default)
    cached = _pool_ctxs.get(requested)
    if cached is not None:
        return cached
    try:
        ctx = multiprocessing.get_context(requested)
    except ValueError:  # pragma: no cover - platform without the method
        ctx = multiprocessing.get_context()
    if requested == "forkserver":
        try:
            ctx.set_forkserver_preload(list(FORKSERVER_PRELOAD))
        except Exception:  # pragma: no cover - server already running
            pass
    _pool_ctxs[requested] = ctx
    return ctx


def chunk_target(pending: int, workers: int, max_chunk: int = DEFAULT_MAX_CHUNK) -> int:
    """The adaptive chunk size for one dispatch.

    ``ceil(pending / (2 × workers))`` capped by ``max_chunk``: with a
    full queue every worker gets a substantial batch (and a second one
    is always left to steal), and as the queue drains the target halves
    toward 1, so the tail of a campaign degenerates to the PR-5
    game-at-a-time protocol and no worker sits idle behind a hoarder.
    The serial scheduler sizes its write batches with ``workers=1``.
    """
    if pending <= 0:
        return 1
    return max(1, min(max_chunk, -(-pending // (2 * max(1, workers)))))


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive, other user
        return True
    return True


class WarmWorkerPool:
    """Parked worker processes kept alive between campaigns.

    A parked worker sits blocked on its pipe; adopting it costs one
    ``configure`` message instead of a process spawn.  Only healthy,
    lease-free workers are ever parked, and adoption re-checks
    liveness, so a worker that died while parked is silently discarded.
    """

    def __init__(self) -> None:
        self._parked: List[Tuple[Any, Any]] = []

    def __len__(self) -> int:
        return len(self._parked)

    def acquire(self) -> Optional[Tuple[Any, Any]]:
        """A live (process, conn) pair, or None when none survive."""
        while self._parked:
            process, conn = self._parked.pop()
            if process.is_alive():
                return process, conn
            self._discard(process, conn)
        return None

    def park(self, process, conn) -> bool:
        """Shelve a healthy worker for the next campaign."""
        if not process.is_alive():
            self._discard(process, conn)
            return False
        self._parked.append((process, conn))
        return True

    def shutdown(self) -> None:
        """Retire every parked worker (sentinel, join, kill stragglers)."""
        parked, self._parked = self._parked, []
        for process, conn in parked:
            try:
                conn.send(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 5.0
        for process, conn in parked:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - straggler
                process.kill()
                process.join()
            try:
                conn.close()
            except (OSError, ValueError):  # pragma: no cover
                pass

    @staticmethod
    def _discard(process, conn) -> None:
        try:
            process.join(timeout=0)
        except (OSError, ValueError):  # pragma: no cover
            pass
        try:
            conn.close()
        except (OSError, ValueError):  # pragma: no cover
            pass


#: The process-wide warm pool every SupervisedWorkerPool shares.
WARM_POOL = WarmWorkerPool()
atexit.register(WARM_POOL.shutdown)


def warm_pool_size() -> int:
    """How many parked workers the next campaign can adopt."""
    return len(WARM_POOL)


def shutdown_warm_pool() -> None:
    """Retire every parked worker now (tests and embedders call this to
    return the process to a cold state)."""
    WARM_POOL.shutdown()


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to (re)configure itself for a campaign.

    Shipped at spawn and again on adoption from the warm pool, so a
    parked worker always serves the *current* campaign's store and
    chaos policy.
    """

    store_root: str
    retries: int
    backoff: float
    chaos: Optional[ChaosPolicy]


@dataclass
class Lease:
    """One dispatched chunk of games, tracked until acknowledged.

    ``deadline`` is a monotonic-clock instant derived from the *sum* of
    the chunk's wall-clock timeouts × the pool's grace factor (plus a
    constant slack); ``None`` when any policy in the chunk has no
    timeout, in which case only worker death — not expiry — can end the
    lease.  ``current`` tracks the most recent per-game heartbeat: the
    game to *blame* when the worker is lost mid-chunk.
    """

    items: List[ChunkItem]
    pid: Optional[int]
    started: float
    deadline: Optional[float]
    current: Optional[str] = None

    @property
    def blamed(self) -> ChunkItem:
        """The chunk item in progress when the lease was lost (the
        heartbeated game, else the first item)."""
        for item in self.items:
            if item[0] == self.current:
                return item
        return self.items[0]


@dataclass
class _Worker:
    """Parent-side handle on one worker process and its duplex pipe.

    ``broken`` is set when the parent fails to send to or receive from
    the pipe — a torn write from a mid-ack SIGKILL, an EOF, anything —
    and is treated exactly like process death by the health sweep.
    """

    index: int
    process: Any
    conn: Any
    lease: Optional[Lease] = None
    broken: bool = False
    #: Monotonic instant of the last message (heartbeat or ack) the
    #: parent read from this worker; spawn time until then.
    last_seen: float = 0.0
    #: Games this worker has acknowledged as done.
    games: int = 0


@dataclass
class PoolOutcome:
    """What one pool drain produced.

    ``leftover`` is non-empty exactly when the pool degraded: the
    restart budget ran out and these games must be finished in-process
    by the caller.  ``quarantined`` digests also appear in ``rows`` (as
    their structured forfeit rows), so callers count them as covered.
    """

    rows: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    errors: List[Dict[str, Any]] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    leftover: List[WorkItem] = field(default_factory=list)
    restarts: int = 0
    lease_expirations: int = 0
    requeues: int = 0
    degraded: bool = False


def quarantine_row(digest: str, spec: GameSpec, losses: int) -> Dict[str, Any]:
    """The structured forfeit row a poison game is stored under.

    Shaped like an ordinary tournament row (so tables, status, and
    dedupe treat it uniformly) plus ``cause="poison"`` — the marker
    :meth:`ResultStore.quarantined` and ``campaign status`` key on.
    """
    return {
        HASH_FIELD: digest,
        "adversary": spec.adversary,
        "victim": spec.victim,
        "locality": spec.locality,
        "won": True,
        "reason": QUARANTINE_REASON,
        "forfeit": True,
        "detail": (
            f"game killed or hung {losses} worker processes; "
            "quarantined by the supervised pool"
        ),
        "error_type": "PoisonGame",
        "failed_at_step": None,
        "n": None,
        "cause": QUARANTINE_CAUSE,
    }


def _error_entry(digest: str, spec: GameSpec, detail: str) -> Dict[str, Any]:
    return {
        HASH_FIELD: digest,
        "adversary": spec.adversary,
        "victim": spec.victim,
        "locality": spec.locality,
        "error": detail,
    }


# ----------------------------------------------------------------------
# The chunk loop: one per worker lease, one per serial write batch
# ----------------------------------------------------------------------
def play_chunk(
    items: Sequence[ChunkItem],
    store: ResultStore,
    retries: int,
    backoff: float,
    registry,
    before_game: Callable[[str, int], bool],
) -> List[GameReport]:
    """Play one chunk of games and write their rows under one fsync.

    This is the loop both schedulers run: a pool worker once per leased
    chunk, the serial scheduler once per write batch.  Each game plays
    through ``_play_with_retry`` and folds its metric snapshot into
    ``registry``.  ``before_game(digest, attempt)`` runs first: a
    worker heartbeats and serves its chaos draw there, the serial
    scheduler publishes ``live.json``.  It returns whether the game's
    row is stored; a row it holds back (chaos ``corrupt``) is left for
    the caller to report, unless the game failed.

    Returns ``(digest, "done", row)`` for every row the one
    :meth:`ResultStore.add_many` made durable, and ``(digest, "error",
    text)`` for every game whose exception outlived its retries (the
    exception's ``Type: message`` line) or whose write failed.

    A SIGKILL loses at most this chunk, whose rows are not yet written.
    An exception that escapes the loop (Ctrl-C included) first writes
    the rows already played, so it loses at most the game in flight.
    """
    from repro.analysis.campaign import _play_with_retry, _store_row

    reports: List[GameReport] = []
    played: List[Tuple[str, Dict[str, Any]]] = []
    try:
        for digest, spec, attempt in items:
            keep = before_game(digest, attempt)
            try:
                # "compute" in the serial scheduler, "worker:compute" in
                # a pool worker (the scope _pool_worker sets).
                with span("compute"):
                    outcome = _play_with_retry(spec, retries, backoff)
            except Exception as exc:
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                reports.append((digest, "error", detail))
                continue
            if outcome.metrics:
                registry.merge(outcome.metrics)
            if keep:
                played.append((digest, _store_row(outcome, digest)))
    except BaseException:
        # A failed write must not mask the exception; those rows replay.
        with contextlib.suppress(OSError):
            store.add_many([row for _, row in played])
        raise
    try:
        store.add_many([row for _, row in played])
    except OSError as exc:
        # Disk trouble fails the whole batch: none of these rows is
        # durable, so none may be reported done; the next run replays.
        reports.extend(
            (digest, "error", f"result store write failed: {exc}")
            for digest, _ in played
        )
    else:
        reports.extend((digest, "done", row) for digest, row in played)
    return reports


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------
class _WorkerState:
    """The worker loop's mutable campaign configuration."""

    __slots__ = ("store", "retries", "backoff", "chaos", "parent_pid")

    def __init__(self, parent_pid: int) -> None:
        self.store: Optional[ResultStore] = None
        self.retries = 1
        self.backoff = 0.0
        self.chaos: Optional[ChaosPolicy] = None
        self.parent_pid = parent_pid


def _worker_apply_config(
    config: WorkerConfig, state: _WorkerState, index: int
) -> None:
    state.store = ResultStore(config.store_root)
    state.retries = config.retries
    state.backoff = config.backoff
    state.chaos = config.chaos
    # Applied at boot *and* on warm adoption: a chaos slow start models
    # a slow worker bring-up, and adoption is this campaign's bring-up.
    if config.chaos is not None:
        config.chaos.apply_slow_start(index)


class _ParentGone(Exception):
    """The pool process is unreachable: the worker should exit."""


def _serve_chunk(
    conn, items: List[ChunkItem], state: _WorkerState, worker_registry,
    games_served: int,
) -> Optional[int]:
    """Play one leased chunk through :func:`play_chunk` and ack it;
    returns the new served count, or None when the parent is
    unreachable (the worker should exit).

    Every game is heartbeated *before* its chaos action or compute, so
    even a game that kills this worker instantly leaves a liveness mark
    — that mark is what lets the parent blame the right game of the
    chunk.  The single chunk ack follows the chunk's one fsync, so a
    kill — of the worker or the parent — never loses an acknowledged
    game, and a kill mid-chunk loses only unacknowledged (hence
    requeued) ones.
    """
    chaos = state.chaos

    def before_game(digest: str, attempt: int) -> bool:
        try:
            conn.send(
                ("heartbeat", digest, {"pid": os.getpid(), "games": games_served}, None)
            )
        except OSError:  # pragma: no cover - parent gone
            raise _ParentGone from None
        action = None if chaos is None else chaos.action_for(digest, attempt)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "stall":
            # The parent's lease expiry is expected to SIGKILL us long
            # before this loop finishes; bail out if the parent itself
            # dies so a stalled worker never outlives it as an orphan.
            deadline = time.monotonic() + chaos.stall_seconds
            while time.monotonic() < deadline:
                if not pid_alive(state.parent_pid):
                    raise _ParentGone
                time.sleep(0.2)
        return action != "corrupt"

    try:
        reports = play_chunk(
            items, state.store, state.retries, state.backoff,
            worker_registry, before_game,
        )
    except _ParentGone:
        return None
    games_served += sum(1 for _, status, _ in reports if status == "done")
    reported = {digest for digest, _, _ in reports}
    for digest, _, _ in items:
        if digest in reported:
            continue
        # Chaos "corrupt" held this row back: tear this worker's shard
        # the way a kill mid-write would, and report a store failure.
        try:
            inject_corrupt_row(state.store.root, os.getpid())
        except OSError as exc:
            reports.append(
                (digest, "error", f"result store write failed: {exc}")
            )
    metrics = worker_registry.snapshot()
    worker_registry.reset()
    try:
        with span("pipe-send"):
            conn.send(("chunk-done", None, reports, metrics))
    except OSError:  # pragma: no cover - parent gone
        return None
    return games_served


def _pool_worker(index: int, conn, config: WorkerConfig, parent_pid: int) -> None:
    """Worker loop: serve one leased chunk per pipe round-trip until the
    ``None`` sentinel.

    Pipe sends are synchronous (no feeder thread): once ``conn.send``
    returns, the ack is in the kernel buffer and survives this
    process's death.  Parent-death detection cannot rely on pipe EOF
    alone (inherited duplicate fds keep pipes open) nor on ``getppid``
    (under forkserver the worker's parent is the *server*, not the
    pool), so the worker probes the pool pid's liveness directly while
    idle and while stalled.
    """
    # Scope every phase this process records under "worker:" so merged
    # parent snapshots keep worker-side time apart from parent-side
    # time.  The fresh scoped registry matters under fork: the child
    # inherits a *copy* of the parent's counters, and shipping that copy
    # back would double every pre-fork count.
    set_phase_scope(WORKER_SCOPE)
    state = _WorkerState(parent_pid)
    _worker_apply_config(config, state, index)
    games_served = 0
    with scoped_registry() as worker_registry:
        while True:
            try:
                with span("pipe-recv"):
                    while not conn.poll(1.0):
                        if not pid_alive(state.parent_pid):
                            return
                    item = conn.recv()
            except (EOFError, OSError):  # parent gone
                return
            if item is None:
                try:
                    conn.send(("exit", index, None, None))
                except OSError:  # pragma: no cover - parent gone
                    pass
                return
            kind = item[0]
            if kind == "configure":
                # Warm adoption: the park-wait interval belongs to no
                # campaign, so drop anything the registry accrued since
                # the last chunk ack (the worker:pipe-recv of the wait).
                worker_registry.reset()
                _worker_apply_config(item[1], state, index)
                continue
            if kind == "chunk":
                served = _serve_chunk(
                    conn, item[1], state, worker_registry, games_served
                )
                if served is None:
                    return
                games_served = served


class SupervisedWorkerPool:
    """Drain campaign work through leased, supervised worker processes.

    Parameters
    ----------
    store:
        The :class:`ResultStore` workers write rows into and the parent
        writes quarantine rows into.
    workers:
        Worker process count (the pool spawns at most ``len(work)``).
    retries, backoff:
        Per-game in-worker retry budget and base backoff, as in
        :class:`~repro.analysis.campaign.CampaignScheduler`.
    max_worker_restarts:
        Total worker respawns across the drain before the pool degrades
        to the caller's serial path.  ``None`` means ``max(8, 2 ×
        workers)``.
    poison_threshold:
        Worker losses (deaths + lease expirations) one game may cause
        before it is quarantined.
    lease_grace, lease_slack:
        A chunk's lease expires ``sum(timeouts) × lease_grace +
        lease_slack`` seconds after dispatch (no expiry when any spec
        in the chunk has no timeout).
    heartbeat:
        The drain loop's poll interval — how often worker health and
        lease deadlines are checked while no results arrive.
    chaos:
        Fault-injection policy shipped to workers; defaults to
        :meth:`ChaosPolicy.from_env` (i.e. the ``REPRO_CHAOS``
        environment), which resolves to None in ordinary runs.
    chunk_size:
        Games per lease.  ``None`` (default) adapts via
        :func:`chunk_target`; an explicit integer pins it — ``1`` is
        the degenerate mode equivalent to the PR-5 per-game protocol,
        which CI uses to prove chunking is semantics-preserving.
    max_chunk:
        Upper bound on the adaptive chunk size.
    live_interval:
        How often (seconds) the drain loop republishes ``live.json``
        under the store root for ``repro campaign watch``; ``None``
        disables live telemetry entirely.
    live_extra:
        Extra fields merged into every live status record (the
        scheduler passes campaign-level context such as the dedupe
        count, which the pool cannot know).
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int,
        retries: int = 1,
        backoff: float = 0.05,
        max_worker_restarts: Optional[int] = None,
        poison_threshold: int = 3,
        lease_grace: float = 3.0,
        lease_slack: float = 1.0,
        heartbeat: float = 0.1,
        chaos: Optional[ChaosPolicy] = None,
        chunk_size: Optional[int] = None,
        max_chunk: int = DEFAULT_MAX_CHUNK,
        live_interval: Optional[float] = 1.0,
        live_extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {poison_threshold}"
            )
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.store = store
        self.workers = workers
        self.retries = retries
        self.backoff = backoff
        self.max_worker_restarts = (
            max_worker_restarts
            if max_worker_restarts is not None
            else max(8, 2 * workers)
        )
        self.poison_threshold = poison_threshold
        self.lease_grace = lease_grace
        self.lease_slack = lease_slack
        self.heartbeat = heartbeat
        self.chaos = chaos if chaos is not None else ChaosPolicy.from_env()
        self.chunk_size = chunk_size
        self.max_chunk = max_chunk
        self.live_interval = live_interval
        self.live_extra = dict(live_extra) if live_extra else {}
        self._last_live = 0.0
        self._max_queue_depth = 0
        self._max_in_flight = 0

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def run(self, work: List[WorkItem]) -> PoolOutcome:
        """Play every work item; returns the :class:`PoolOutcome`.

        Never raises on worker failure: lost games are requeued or
        quarantined, and a exhausted restart budget surfaces as
        ``leftover`` work for the caller's serial path.
        """
        ctx = pool_start_context()
        self._specs = dict(work)
        registry = get_registry()
        outcome = PoolOutcome()
        pending: Deque[WorkItem] = deque(work)
        attempts: Dict[str, int] = {}
        losses: Dict[str, int] = {}
        pool_size = min(self.workers, len(work))
        total = len(work)
        event("pool-start", workers=pool_size, games=total)
        fleet: List[_Worker] = [
            self._spawn(ctx, index) for index in range(pool_size)
        ]

        with span("worker-pool", workers=pool_size) as drain:
            while True:
                for worker in fleet:
                    if worker.lease is None:
                        self._dispatch(worker, pending, outcome.rows, attempts)
                busy = any(worker.lease is not None for worker in fleet)
                remaining = any(d not in outcome.rows for d, _ in pending)
                if not busy and not remaining:
                    break
                if not fleet:
                    # Every worker slot is gone and the budget with it.
                    self._degrade(outcome, pending, fleet, registry)
                    break
                self._drain_one(fleet, outcome, registry)
                if not self._sweep_health(
                    ctx, fleet, pending, outcome, attempts, losses, registry,
                ):
                    self._degrade(outcome, pending, fleet, registry)
                    break
                with span("lease-sweep"):
                    self._publish_live(
                        fleet, pending, outcome, total, registry, done=False,
                    )
            with span("lease-sweep"):
                self._shutdown(fleet)
                registry.set("campaign_queue_depth", self._max_queue_depth)
                registry.set("campaign_in_flight", self._max_in_flight)
                self._publish_live(
                    fleet, pending, outcome, total, registry, done=True
                )
            event(
                "pool-finished",
                games=len(outcome.rows),
                errors=len(outcome.errors),
                restarts=outcome.restarts,
                degraded=outcome.degraded,
            )
            drain.note(
                restarts=outcome.restarts,
                lease_expirations=outcome.lease_expirations,
                requeues=outcome.requeues,
                quarantined=len(outcome.quarantined),
                degraded=outcome.degraded,
            )
        return outcome

    def _publish_live(
        self,
        fleet: List[_Worker],
        pending: Deque[WorkItem],
        outcome: PoolOutcome,
        total: int,
        registry,
        done: bool,
    ) -> None:
        """Track queue gauges and (rate-limited) rewrite ``live.json``.

        Telemetry, not bookkeeping: any failure here is swallowed by
        :func:`write_live_status` rather than surfacing in the drain.
        """
        queue_depth = sum(1 for d, _ in pending if d not in outcome.rows)
        in_flight = sum(
            len(w.lease.items) for w in fleet if w.lease is not None
        )
        if queue_depth > self._max_queue_depth:
            self._max_queue_depth = queue_depth
        if in_flight > self._max_in_flight:
            self._max_in_flight = in_flight
        if self.live_interval is None:
            return
        now = time.monotonic()
        if not done and now - self._last_live < self.live_interval:
            return
        self._last_live = now
        status: Dict[str, Any] = dict(self.live_extra)
        status.update(
            {
                "done": done,
                "monotonic": now,
                "games_total": total,
                "games_played": len(outcome.rows),
                "games_errors": len(outcome.errors),
                "games_quarantined": len(outcome.quarantined),
                "games_requeued": outcome.requeues,
                "worker_restarts": outcome.restarts,
                "queue_depth": queue_depth,
                "in_flight": in_flight,
                "chunk_size": (
                    "adaptive" if self.chunk_size is None else self.chunk_size
                ),
                "workers": [
                    {
                        "index": w.index,
                        "pid": w.process.pid,
                        "state": (
                            "broken"
                            if w.broken
                            else ("busy" if w.lease is not None else "idle")
                        ),
                        "last_seen": w.last_seen,
                        "games": w.games,
                    }
                    for w in fleet
                ],
                "phases": phase_attribution(registry.snapshot()),
            }
        )
        write_live_status(self.store.root, status)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _worker_config(self) -> WorkerConfig:
        return WorkerConfig(
            store_root=self.store.root,
            retries=self.retries,
            backoff=self.backoff,
            chaos=self.chaos,
        )

    def _spawn(self, ctx, index: int) -> _Worker:
        config = self._worker_config()
        adopted = self._adopt_warm(index, config)
        if adopted is not None:
            return adopted
        with span("pool-spawn"):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_pool_worker,
                args=(index, child_conn, config, os.getpid()),
                daemon=True,
            )
            process.start()
            # Drop the parent's copy of the child end so a dead worker
            # reads as EOF instead of a silent hang.
            child_conn.close()
        event("worker-spawned", worker=index, pid=process.pid)
        return _Worker(
            index=index,
            process=process,
            conn=parent_conn,
            last_seen=time.monotonic(),
        )

    def _adopt_warm(self, index: int, config: WorkerConfig) -> Optional[_Worker]:
        """Reuse a parked worker: one configure message, no spawn."""
        while True:
            pair = WARM_POOL.acquire()
            if pair is None:
                return None
            process, conn = pair
            try:
                with span("pipe-send"):
                    conn.send(("configure", config))
            except OSError:
                WarmWorkerPool._discard(process, conn)
                continue
            get_registry().inc("campaign_warm_adoptions")
            event("worker-adopted", worker=index, pid=process.pid)
            return _Worker(
                index=index,
                process=process,
                conn=conn,
                last_seen=time.monotonic(),
            )

    def _chunk_target(self, pending: Deque[WorkItem]) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return chunk_target(len(pending), self.workers, self.max_chunk)

    def _dispatch(
        self,
        worker: _Worker,
        pending: Deque[WorkItem],
        rows: Dict[str, Dict[str, Any]],
        attempts: Dict[str, int],
    ) -> None:
        chunk: List[ChunkItem] = []
        target = self._chunk_target(pending)
        while pending and len(chunk) < target:
            digest, spec = pending.popleft()
            if digest in rows:
                continue  # answered while waiting (stale-done race)
            attempt = attempts.get(digest, 0) + 1
            attempts[digest] = attempt
            chunk.append((digest, spec, attempt))
        if not chunk:
            return
        now = time.monotonic()
        # The deadline budgets the whole chunk: the worker runs its
        # games back to back, so expiry must allow every timeout.
        budget: Optional[float] = 0.0
        for _, spec, _ in chunk:
            timeout = spec.policy.timeout
            if timeout is None:
                budget = None
                break
            budget += timeout
        deadline = (
            None
            if budget is None
            else now + budget * self.lease_grace + self.lease_slack
        )
        worker.lease = Lease(
            items=chunk,
            pid=worker.process.pid,
            started=now,
            deadline=deadline,
        )
        event(
            "dispatch",
            worker=worker.index,
            digest=chunk[0][0],
            attempt=chunk[0][2],
            games=len(chunk),
        )
        try:
            with span("pipe-send"):
                worker.conn.send(("chunk", chunk))
        except OSError:
            # Worker already dead: undo the dispatch (keeping the
            # attempt numbering aligned with actual plays) and let
            # the health sweep reap it.
            worker.lease = None
            worker.broken = True
            for digest, spec, attempt in reversed(chunk):
                attempts[digest] = attempt - 1
                pending.appendleft((digest, spec))

    def _drain_one(
        self, fleet: List[_Worker], outcome: PoolOutcome, registry
    ) -> None:
        by_conn = {
            worker.conn: worker
            for worker in fleet
            if worker.conn is not None and not worker.broken
        }
        # ack-wait is the parent *blocked* on worker pipes (healthy
        # overlap with worker compute); ack-drain is the recv and
        # bookkeeping that is real IPC cost.
        if not by_conn:
            with span("ack-wait"):
                time.sleep(self.heartbeat)
            return
        with span("ack-wait"):
            ready = _connection_wait(list(by_conn), timeout=self.heartbeat)
        for conn in ready:
            worker = by_conn[conn]
            with span("ack-drain"):
                try:
                    message = conn.recv()
                except Exception:
                    # EOF (dead worker) or a torn/garbled ack: only this
                    # worker's channel is poisoned.  The sweep reaps it.
                    worker.broken = True
                    continue
                self._handle_message(worker, message, outcome, registry)

    def _handle_message(
        self, worker: _Worker, message, outcome: PoolOutcome, registry
    ) -> None:
        try:
            kind, digest, payload, metrics = message
        except (TypeError, ValueError):  # pragma: no cover - malformed
            worker.broken = True
            return
        worker.last_seen = time.monotonic()
        if kind == "exit":
            return
        if kind == "heartbeat":
            # Liveness plus blame: mark which game of the chunk is in
            # progress — the lease stays open until the chunk ack.
            registry.inc("campaign_worker_heartbeats")
            if worker.lease is not None:
                worker.lease.current = digest
            return
        if kind == "chunk-done":
            worker.lease = None
            for entry_digest, status, detail in payload:
                if status == "error":
                    outcome.errors.append(
                        _error_entry(
                            entry_digest, self._specs[entry_digest], detail
                        )
                    )
                    event(
                        "game-error", worker=worker.index, digest=entry_digest
                    )
                    continue
                worker.games += 1
                if entry_digest not in outcome.rows:
                    outcome.rows[entry_digest] = detail
            if metrics:
                registry.merge(metrics)
            return
        worker.broken = True  # unknown message kind

    def _salvage(
        self, worker: _Worker, outcome: PoolOutcome, registry
    ) -> None:
        """Recover intact acks buffered in a dead worker's pipe.

        A worker may finish a chunk (fsync + ack) and then die before
        the drain reads the ack; the bytes survive in the kernel
        buffer, so read until EOF or the first tear rather than
        discarding them.
        """
        if worker.conn is None:
            return
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                message = worker.conn.recv()
            except Exception:
                return
            self._handle_message(worker, message, outcome, registry)

    def _sweep_health(
        self,
        ctx,
        fleet: List[_Worker],
        pending: Deque[WorkItem],
        outcome: PoolOutcome,
        attempts: Dict[str, int],
        losses: Dict[str, int],
        registry,
    ) -> bool:
        """Reap dead workers and expired leases; respawn replacements.

        Returns False when a replacement is needed but the restart
        budget is exhausted — the signal to degrade.
        """
        now = time.monotonic()
        for worker in list(fleet):
            # The respawn below runs outside the lease-sweep timing so
            # its cost lands in the pool-spawn phase, not twice.
            with span("lease-sweep"):
                dead = worker.broken or not worker.process.is_alive()
                expired = (
                    not dead
                    and worker.lease is not None
                    and worker.lease.deadline is not None
                    and now > worker.lease.deadline
                )
                if not dead and not expired:
                    continue
                if expired:
                    blamed_digest, _, blamed_attempt = worker.lease.blamed
                    outcome.lease_expirations += 1
                    registry.inc("campaign_lease_expirations")
                    dump_on_fault(
                        self.store.root,
                        "lease-expired",
                        worker=worker.index,
                        pid=worker.process.pid,
                        digest=blamed_digest,
                        attempt=blamed_attempt,
                        games=len(worker.lease.items),
                    )
                worker.process.kill()
                worker.process.join()
                event(
                    "worker-died",
                    worker=worker.index,
                    pid=worker.process.pid,
                    exitcode=worker.process.exitcode,
                    cause="lease-expired" if expired else "worker-death",
                )
                self._salvage(worker, outcome, registry)
                self._close_conn(worker.conn)
                fleet.remove(worker)
            # Loss accounting may fsync a quarantine row — that time
            # belongs to store-fsync, a sibling top-level phase, so it
            # must not run nested inside the lease-sweep timing.
            if worker.lease is not None:
                self._account_loss(
                    worker.lease, pending, outcome, losses, registry
                )
            with span("lease-sweep"):
                if outcome.restarts >= self.max_worker_restarts:
                    return False
                outcome.restarts += 1
                registry.inc("campaign_worker_restarts")
            fleet.append(self._spawn(ctx, worker.index))
        return True

    def _account_loss(
        self,
        lease: Lease,
        pending: Deque[WorkItem],
        outcome: PoolOutcome,
        losses: Dict[str, int],
        registry,
    ) -> None:
        """Requeue the lost chunk's unacknowledged games; blame one.

        The chunk ack is all-or-nothing, so acknowledged games are
        already in ``rows`` (salvage reads buffered acks first) and
        everything else requeues.  Only the *blamed* game — the one the
        worker heartbeated last, i.e. the one in progress when the
        worker was lost — accrues a poison loss; its chunk-mates were
        bystanders.  At ``poison_threshold`` losses the blamed game is
        quarantined (structured forfeit row) instead of requeued.
        """
        unacked = [item for item in lease.items if item[0] not in outcome.rows]
        if not unacked:
            return
        blamed_digest, blamed_spec, blamed_attempt = lease.blamed
        if blamed_digest in outcome.rows:
            # The heartbeated game was acked just before death; someone
            # must own the loss — charge the first unacked item.
            blamed_digest, blamed_spec, blamed_attempt = unacked[0]
        losses[blamed_digest] = losses.get(blamed_digest, 0) + 1
        if losses[blamed_digest] >= self.poison_threshold:
            # The store write self-times as store-fsync; the flight dump
            # and bookkeeping around it count as lease-sweep, kept in
            # separate blocks so the two top-level phases never nest.
            row = quarantine_row(
                blamed_digest, blamed_spec, losses[blamed_digest]
            )
            self.store.add(row)
            with span("lease-sweep"):
                outcome.rows[blamed_digest] = row
                outcome.quarantined.append(blamed_digest)
                registry.inc("campaign_games_quarantined")
                dump_on_fault(
                    self.store.root,
                    "game-quarantined",
                    digest=blamed_digest,
                    adversary=blamed_spec.adversary,
                    victim=blamed_spec.victim,
                    locality=blamed_spec.locality,
                    losses=losses[blamed_digest],
                )
            unacked = [
                item for item in unacked if item[0] != blamed_digest
            ]
        with span("lease-sweep"):
            for digest, spec, attempt in unacked:
                pending.append((digest, spec))
                outcome.requeues += 1
                registry.inc("campaign_games_requeued")
                event(
                    "game-requeued",
                    digest=digest,
                    attempt=attempt,
                    losses=losses.get(digest, 0),
                )

    # ------------------------------------------------------------------
    # Degradation and shutdown
    # ------------------------------------------------------------------
    def _degrade(
        self,
        outcome: PoolOutcome,
        pending: Deque[WorkItem],
        fleet: List[_Worker],
        registry,
    ) -> None:
        """Restart budget exhausted: stop the pool, hand work back."""
        outcome.degraded = True
        leftover: List[WorkItem] = []
        seen = set()
        for worker in fleet:
            worker.process.kill()
            worker.process.join()
            self._salvage(worker, outcome, registry)
            self._close_conn(worker.conn)
            if worker.lease is not None:
                for digest, spec, _ in worker.lease.items:
                    if digest not in outcome.rows and digest not in seen:
                        leftover.append((digest, spec))
                        seen.add(digest)
                worker.lease = None
        fleet.clear()
        for digest, spec in pending:
            if digest not in outcome.rows and digest not in seen:
                leftover.append((digest, spec))
                seen.add(digest)
        pending.clear()
        outcome.leftover = leftover
        registry.inc("campaign_pool_degradations")
        dump_on_fault(
            self.store.root,
            "pool-degraded",
            remaining=len(leftover),
            restarts=outcome.restarts,
            budget=self.max_worker_restarts,
        )

    def _shutdown(self, fleet: List[_Worker]) -> None:
        """Retire the surviving workers.

        Healthy, lease-free workers are *parked* in the warm pool for
        the next campaign to adopt; everything else gets the
        sentinel/join/kill treatment.
        """
        cold: List[_Worker] = []
        for worker in fleet:
            healthy = (
                worker.process.is_alive()
                and not worker.broken
                and worker.lease is None
            )
            if healthy:
                WARM_POOL.park(worker.process, worker.conn)
                continue
            cold.append(worker)
        for worker in cold:
            if worker.process.is_alive() and not worker.broken:
                try:
                    worker.conn.send(None)
                except (OSError, ValueError):  # pragma: no cover - closed
                    pass
        deadline = time.monotonic() + 5.0
        for worker in cold:
            remaining = max(0.0, deadline - time.monotonic())
            worker.process.join(timeout=remaining)
            if worker.process.is_alive():  # pragma: no cover - straggler
                worker.process.kill()
                worker.process.join()
            self._close_conn(worker.conn)
        fleet.clear()

    @staticmethod
    def _close_conn(conn) -> None:
        try:
            conn.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
