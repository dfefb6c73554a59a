"""Coloring-as-a-service: the asyncio HTTP server over the campaign
engine.

One process, one event loop, one content-addressed
:class:`~repro.analysis.store.ResultStore` — and one writer.  Every
submission is funnelled through a single executor task that runs
campaigns one at a time on a one-thread pool, so the serving tier
never has two schedulers contending for the same store (the store
tolerates concurrent *processes*, but serializing in-process writers
keeps run-ledger entries and live telemetry attributable to one
campaign at a time).

The dedupe story is layered:

* **Single-flight (in-memory):** a submission's campaign id is the
  content hash of its spec payload — :meth:`SubmitRequest.campaign_id`
  — so two concurrent POSTs of the same work coalesce onto one queued
  job; the second caller gets the same handle back (HTTP 200 instead
  of 202).
* **Store dedupe (on disk):** even a resubmission after the server was
  SIGKILLed replays nothing — the campaign engine serves every covered
  game from the store and the run-ledger entry shows ``played=0``.

Endpoints (all JSON, bodies defined in :mod:`repro.api`):

* ``POST /v1/campaigns`` — submit a :class:`~repro.api.SubmitRequest`
  payload; 202 + :class:`~repro.api.CampaignHandle` (200 when
  coalesced onto an in-flight job).
* ``GET /v1/campaigns/{id}`` — handle with progress, quarantine count,
  and the finished run's wall-clock/phase table.  Campaigns known only
  from a store manifest (an earlier server life, an offline CLI run)
  report ``state="stored"``.
* ``GET /v1/campaigns/{id}/rows?offset=&limit=`` — paginated
  :class:`~repro.api.RowPage` in the campaign's deterministic order.
* ``GET /v1/campaigns/{id}/events`` — SSE: lifecycle events plus
  ``progress`` events fed from the scheduler's ``live.json``
  telemetry.
* ``GET /v1/results/{spec_hash}`` — point lookup of one game row.
* ``GET /metrics`` — Prometheus text exposition of the process
  registry.
* ``GET /healthz`` — liveness + drain state.

Rate limiting is per client (``X-Client-Id`` header, else peer
address) via token buckets; ``/healthz`` and ``/metrics`` are exempt
so probes and scrapes never starve.  SIGTERM starts a graceful drain:
new submissions get 503 ``draining``, queued jobs fail fast, the
in-flight campaign gets ``drain_grace`` seconds to finish, then the
process exits (reads keep working throughout, and everything the
drain abandons resumes from the store on the next life).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import re
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.campaign import (
    CampaignError,
    CampaignSpec,
    ReproError,
    SpecVersionError,
    campaign_from_dict,
    covered_rows,
    replay_threshold,
)
from repro.analysis.store import QUARANTINE_CAUSE, ResultStore
from repro.api import (
    CampaignHandle,
    RowPage,
    SubmitRequest,
    run_submission,
)
from repro.observability.export import read_live_status, to_prometheus
from repro.observability.metrics import get_registry
from repro.server import sse
from repro.server.ratelimit import RateLimiter
from repro.server.routes import (
    HttpError,
    Request,
    Response,
    Router,
    json_response,
    read_request,
)

#: Campaign ids and spec hashes are SHA-256 hex; anything else 404s
#: before touching the filesystem (ids appear in manifest paths).
_HASH_RE = re.compile(r"^[0-9a-f]{64}$")

#: How often the live.json watcher polls while a job runs.
LIVE_POLL_SECONDS = 0.25

#: Events kept per job for SSE replay to late subscribers.
EVENT_HISTORY = 256

#: Idle SSE streams get a comment keepalive this often.
SSE_KEEPALIVE_SECONDS = 15.0

#: Per-request read/parse deadline.
REQUEST_TIMEOUT_SECONDS = 30.0

#: Rows-per-page ceiling (clients may ask for less, never more).
MAX_PAGE_LIMIT = 500

#: Sentinel queued to SSE subscribers when their job's stream closes.
_CLOSE = None


@dataclass
class CampaignJob:
    """One submission's in-memory life: queued → running → done/failed.

    The job object is also the SSE hub — ``events`` is the replayable
    history (capped at :data:`EVENT_HISTORY`), ``subscribers`` the live
    queues.  Store-derived progress is *not* cached here; handles are
    rebuilt from the store on every status read so they are honest
    under concurrent writers.  The finished run's ``wall_seconds`` and
    ``phases`` are kept: they come from its run-ledger entry, read once
    when the run returns, and a ledger entry never changes.
    """

    id: str
    request: SubmitRequest
    state: str = "queued"
    detail: str = ""
    outcome: Any = None
    results: Any = None
    wall_seconds: Optional[float] = None
    phases: Optional[Dict[str, float]] = None
    seq: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)
    subscribers: List["asyncio.Queue[Any]"] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed")


class ColoringServer:
    """The serving tier: routes, rate limits, the single-writer
    executor, and SSE fan-out, all over one shared store."""

    def __init__(
        self,
        store_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        rate: float = 20.0,
        burst: int = 40,
        drain_grace: float = 10.0,
        trace_path=None,
    ) -> None:
        self.store = ResultStore(store_dir)
        self.host = host
        self.port = port
        self.drain_grace = drain_grace
        self.trace_path = None if trace_path is None else os.fspath(trace_path)
        self.limiter = RateLimiter(rate=rate, burst=burst)
        self.registry = get_registry()
        self.draining = False
        self._jobs: Dict[str, CampaignJob] = {}
        # The queue and the stopped-event are created in start(): on
        # older pythons asyncio primitives bind their loop at creation,
        # and the server object is built before asyncio.run() starts it.
        self._queue: Optional["asyncio.Queue[Optional[str]]"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor_task: Optional[asyncio.Task] = None
        self._runner = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="campaign-exec"
        )
        self._stopped: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        self.router = Router()
        self.router.add("POST", "/v1/campaigns", self._handle_submit)
        self.router.add("GET", "/v1/campaigns/{id}", self._handle_status)
        self.router.add("GET", "/v1/campaigns/{id}/rows", self._handle_rows)
        self.router.add(
            "GET", "/v1/campaigns/{id}/events", self._handle_events
        )
        self.router.add("GET", "/v1/results/{spec_hash}", self._handle_result)
        self.router.add("GET", "/metrics", self._handle_metrics)
        self.router.add("GET", "/healthz", self._handle_healthz)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the executor task.  ``self.port``
        is the *actual* bound port afterwards (pass ``port=0`` for an
        ephemeral one — the CLI prints it for scripts to parse)."""
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stopped = asyncio.Event()
        self._executor_task = self._loop.create_task(self._executor_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self, install_signal_handlers: bool = True) -> None:
        """Serve until drained (SIGTERM/SIGINT trigger the drain)."""
        await self.start()
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self.request_drain)
        print(
            f"repro-server listening on http://{self.host}:{self.port} "
            f"(store: {self.store.root})",
            flush=True,
        )
        await self._stopped.wait()

    def request_drain(self) -> None:
        """Begin graceful shutdown (idempotent; signal-handler safe)."""
        if self.draining:
            return
        self.draining = True
        self.registry.inc("server_drains")
        self._drain_task = self._loop.create_task(self._drain())

    async def _drain(self) -> None:
        # Fail everything still queued — resubmission after restart
        # costs nothing thanks to store dedupe.
        while True:
            try:
                job_id = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job_id is None:
                continue
            job = self._jobs.get(job_id)
            if job is not None and job.state == "queued":
                job.state = "failed"
                job.detail = "server draining"
                self._publish(job, "failed", {
                    "id": job.id, "detail": job.detail,
                })
                self._close_subscribers(job)
        self._queue.put_nowait(None)  # executor-loop stop sentinel
        if self._executor_task is not None:
            try:
                await asyncio.wait_for(
                    asyncio.shield(self._executor_task), self.drain_grace
                )
            except asyncio.TimeoutError:
                self._executor_task.cancel()
                await asyncio.gather(
                    self._executor_task, return_exceptions=True
                )
        for job in self._jobs.values():
            self._close_subscribers(job)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._runner.shutdown(wait=False, cancel_futures=True)
        self._stopped.set()

    async def stop(self) -> None:
        """Drain and wait (the programmatic / test shutdown path)."""
        self.request_drain()
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # The single-writer executor
    # ------------------------------------------------------------------
    async def _executor_loop(self) -> None:
        while True:
            job_id = await self._queue.get()
            if job_id is None:
                return
            job = self._jobs.get(job_id)
            if job is None or job.state != "queued":
                continue
            if self.draining:
                job.state = "failed"
                job.detail = "server draining"
                self._publish(job, "failed", {
                    "id": job.id, "detail": job.detail,
                })
                self._close_subscribers(job)
                continue
            await self._run_one(job)

    async def _run_one(self, job: CampaignJob) -> None:
        job.state = "running"
        self._publish(job, "running", {"id": job.id, "name": job.request.spec.name})
        watcher = self._loop.create_task(self._watch_live(job))
        started = time.monotonic()
        error: Optional[BaseException] = None
        try:
            results, outcome, run = await self._loop.run_in_executor(
                self._runner, self._run_job, job
            )
        except Exception as exc:  # noqa: BLE001 - job failure, not server
            error = exc
        watcher.cancel()
        await asyncio.gather(watcher, return_exceptions=True)
        # The watcher polls; a fast campaign can finish between polls.
        # Publish the final telemetry snapshot explicitly — before the
        # terminal event — so every SSE stream sees at least one
        # progress event, then the done/failed marker last.
        status = await self._loop.run_in_executor(
            None, read_live_status, self.store.root
        )
        if status:
            self._publish_progress(job, status)
        if error is not None:
            job.state = "failed"
            job.detail = f"{type(error).__name__}: {error}"
            self.registry.inc("server_jobs_failed")
            self._publish(job, "failed", {
                "id": job.id, "detail": job.detail,
            })
        else:
            job.results = results
            job.outcome = outcome
            job.wall_seconds = time.monotonic() - started
            if run is not None:
                # The run ledger keeps the authoritative wall-clock and
                # phase table for the finished run.
                job.phases = run.get("phases")
                if run.get("wall_seconds") is not None:
                    job.wall_seconds = run["wall_seconds"]
            job.state = "done"
            self.registry.inc("server_jobs_done")
            self._publish(job, "done", {
                "id": job.id,
                "total": outcome.total,
                "played": outcome.played,
                "deduped": outcome.deduped,
                "errors": len(outcome.errors),
            })
        self._close_subscribers(job)

    def _run_job(
        self, job: CampaignJob
    ) -> Tuple[Any, Any, Optional[Dict[str, Any]]]:
        """Runs on the one-thread pool: the blocking campaign itself,
        then one read of the run ledger for the run's own entry — the
        newest one with this campaign id (names are not unique across
        specs).  Returns ``(results, outcome, entry or None)``."""
        options: Dict[str, Any] = {}
        if self.trace_path is not None:
            options["trace_path"] = self.trace_path
        results, outcome = run_submission(
            job.request, self.store.root, **options
        )
        for run in reversed(self.store.runs()):
            if run.get("campaign_id") == job.id:
                return results, outcome, run
        return results, outcome, None

    async def _watch_live(self, job: CampaignJob) -> None:
        """Poll the scheduler's ``live.json`` while the job runs and
        fan snapshots out as SSE ``progress`` events."""
        last_stamp: Any = None
        while True:
            await asyncio.sleep(LIVE_POLL_SECONDS)
            status = await self._loop.run_in_executor(
                None, read_live_status, self.store.root
            )
            if not status:
                continue
            stamp = status.get("monotonic", status.get("written_at"))
            if stamp == last_stamp:
                continue
            last_stamp = stamp
            self._publish_progress(job, status)

    def _publish_progress(
        self, job: CampaignJob, status: Dict[str, Any]
    ) -> None:
        self._publish(job, "progress", {
            key: status[key]
            for key in (
                "campaign", "kind", "done", "games_total",
                "games_played", "games_deduped", "games_errors",
                "queue_depth", "in_flight", "workers",
            )
            if key in status
        })

    # ------------------------------------------------------------------
    # SSE fan-out
    # ------------------------------------------------------------------
    def _publish(
        self, job: CampaignJob, event: str, data: Dict[str, Any]
    ) -> None:
        job.seq += 1
        record = {"seq": job.seq, "event": event, "data": data}
        job.events.append(record)
        if len(job.events) > EVENT_HISTORY:
            del job.events[: len(job.events) - EVENT_HISTORY]
        for queue in list(job.subscribers):
            queue.put_nowait(record)

    def _close_subscribers(self, job: CampaignJob) -> None:
        for queue in list(job.subscribers):
            queue.put_nowait(_CLOSE)

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        response: Optional[Response] = None
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), REQUEST_TIMEOUT_SECONDS
                )
                if request is None:
                    return
                peer = writer.get_extra_info("peername")
                request.peer = peer[0] if isinstance(peer, tuple) else str(peer)
                response = await self._dispatch(request, writer)
            except HttpError as exc:
                response = exc.to_response()
            except asyncio.TimeoutError:
                response = HttpError(
                    408, "bad-request", "request read timed out"
                ).to_response()
            except (ConnectionResetError, BrokenPipeError):
                return
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                self.registry.inc("server_internal_errors")
                response = HttpError(
                    500, "internal", f"{type(exc).__name__}: {exc}"
                ).to_response()
            if response is not None:
                writer.write(response.encode())
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> Optional[Response]:
        self.registry.inc("server_requests")
        handler, params = self.router.resolve(request.method, request.path)
        if request.path not in ("/healthz", "/metrics"):
            if not self.limiter.allow(request.client_key()):
                self.registry.inc("server_rate_limited")
                raise HttpError(
                    429, "rate-limited",
                    "per-client request budget exhausted; slow down",
                    detail={"retry_after": self.limiter.retry_after()},
                    headers={
                        "Retry-After": str(
                            max(1, int(self.limiter.retry_after()))
                        )
                    },
                )
        return await handler(request, params, writer)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_submit(
        self,
        request: Request,
        params: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> Response:
        payload = request.json()
        try:
            submit = SubmitRequest.from_payload(payload)
        except SpecVersionError as exc:
            raise HttpError(400, "unsupported-version", str(exc)) from exc
        except CampaignError as exc:
            raise HttpError(400, "bad-spec", str(exc)) from exc
        except ReproError as exc:
            raise HttpError(400, "bad-spec", str(exc)) from exc
        if self.draining:
            raise HttpError(
                503, "draining", "server is draining; resubmit elsewhere"
            )
        job, created = self._submit(submit)
        handle = await self._build_handle(job.id)
        return json_response(202 if created else 200, handle.to_payload())

    def _submit(self, submit: SubmitRequest) -> Tuple[CampaignJob, bool]:
        """Single-flight admission: identical in-flight work coalesces."""
        job_id = submit.campaign_id()
        job = self._jobs.get(job_id)
        if job is not None and not job.finished:
            self.registry.inc("server_submissions_coalesced")
            return job, False
        job = CampaignJob(id=job_id, request=submit)
        self._jobs[job_id] = job
        self.registry.inc("server_submissions")
        self._publish(job, "queued", {
            "id": job.id, "name": submit.spec.name, "kind": submit.kind,
        })
        self._queue.put_nowait(job_id)
        return job, True

    async def _handle_status(
        self,
        request: Request,
        params: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> Response:
        handle = await self._build_handle(self._checked_id(params["id"]))
        if handle is None:
            raise HttpError(
                404, "not-found", f"no campaign {params['id']!r} here"
            )
        return json_response(200, handle.to_payload())

    async def _handle_rows(
        self,
        request: Request,
        params: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> Response:
        offset = self._query_int(request, "offset", 0, minimum=0)
        limit = self._query_int(request, "limit", 100, minimum=1)
        limit = min(limit, MAX_PAGE_LIMIT)
        job_id = self._checked_id(params["id"])
        page = await self._loop.run_in_executor(
            None, self._build_page, job_id, offset, limit
        )
        if page is None:
            raise HttpError(
                404, "not-found", f"no campaign {params['id']!r} here"
            )
        return json_response(200, page.to_payload())

    async def _handle_events(
        self,
        request: Request,
        params: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> Optional[Response]:
        job = self._jobs.get(self._checked_id(params["id"]))
        if job is None:
            raise HttpError(
                404, "not-found",
                f"no live campaign {params['id']!r} (events exist only "
                f"for jobs submitted to this server process)",
            )
        self.registry.inc("server_sse_streams")
        queue: "asyncio.Queue[Any]" = asyncio.Queue()
        job.subscribers.append(queue)  # subscribe *before* replay
        try:
            writer.write(sse.response_head())
            seen = 0
            for record in list(job.events):
                writer.write(sse.format_event(
                    record["event"], record["data"], record["seq"]
                ))
                seen = record["seq"]
            await writer.drain()
            while True:
                if job.finished and queue.empty():
                    break
                try:
                    record = await asyncio.wait_for(
                        queue.get(), SSE_KEEPALIVE_SECONDS
                    )
                except asyncio.TimeoutError:
                    writer.write(sse.format_comment())
                    await writer.drain()
                    continue
                if record is _CLOSE:
                    break
                if record["seq"] <= seen:
                    continue  # already replayed from history
                writer.write(sse.format_event(
                    record["event"], record["data"], record["seq"]
                ))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to clean but the queue
        finally:
            if queue in job.subscribers:
                job.subscribers.remove(queue)
        return None

    async def _handle_result(
        self,
        request: Request,
        params: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> Response:
        digest = self._checked_id(params["spec_hash"])
        row = await self._loop.run_in_executor(
            None, lambda: self.store.index().get(digest)
        )
        if row is None:
            raise HttpError(
                404, "not-found", f"no result for spec hash {digest!r}"
            )
        return json_response(200, row)

    async def _handle_metrics(
        self,
        request: Request,
        params: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> Response:
        text = to_prometheus(self.registry.snapshot())
        return Response(
            status=200,
            body=text.encode("utf-8"),
            content_type="text/plain; version=0.0.4",
        )

    async def _handle_healthz(
        self,
        request: Request,
        params: Dict[str, str],
        writer: asyncio.StreamWriter,
    ) -> Response:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return json_response(200, {
            "ok": True,
            "draining": self.draining,
            "jobs": states,
            "store": self.store.root,
        })

    # ------------------------------------------------------------------
    # Handle / page construction (blocking parts run on the default
    # executor so the event loop never waits on a store scan)
    # ------------------------------------------------------------------
    @staticmethod
    def _checked_id(value: str) -> str:
        if not _HASH_RE.match(value):
            raise HttpError(
                404, "not-found",
                f"{value!r} is not a campaign id (ids are 64-char "
                f"SHA-256 hex)",
            )
        return value

    @staticmethod
    def _query_int(
        request: Request, key: str, default: int, minimum: int
    ) -> int:
        raw = request.query.get(key)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError as exc:
            raise HttpError(
                400, "bad-request", f"query parameter {key!r} must be an "
                f"integer, got {raw!r}"
            ) from exc
        if value < minimum:
            raise HttpError(
                400, "bad-request", f"query parameter {key!r} must be "
                f">= {minimum}, got {value}"
            )
        return value

    def _spec_for(self, job_id: str):
        """The campaign spec behind an id: a live job's, else the store
        manifest's (campaigns from earlier lives), else None.

        A live job's spec is the same object on every request, so its
        :attr:`~repro.analysis.campaign.CampaignSpec.digests` are
        computed once per job; a manifest is re-parsed, and so
        re-hashed, on every request."""
        job = self._jobs.get(job_id)
        if job is not None:
            return job.request.spec
        path = os.path.join(self.store.root, f"manifest-{job_id}.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        try:
            return campaign_from_dict(payload)
        except ReproError:
            return None

    async def _build_handle(self, job_id: str) -> Optional[CampaignHandle]:
        return await self._loop.run_in_executor(
            None, self._build_handle_sync, job_id
        )

    def _build_handle_sync(self, job_id: str) -> Optional[CampaignHandle]:
        spec = self._spec_for(job_id)
        if spec is None:
            return None
        index = self.store.index()
        rows = covered_rows(spec, index)
        quarantined = sum(
            1 for row in rows if row.get("cause") == QUARANTINE_CAUSE
        )
        if isinstance(spec, CampaignSpec):
            kind = "sweep"
            done = len(rows)
            total = len(spec.digests)
            detail = ""
        else:
            kind = "threshold"
            results, done = replay_threshold(spec, index)
            total = None
            converged = sum(1 for result in results if result.converged)
            detail = f"{converged}/{len(results)} combos converged"
        job = self._jobs.get(job_id)
        state = "stored" if job is None else job.state
        played = deduped = None
        errors = 0
        wall_seconds = None
        phases = None
        if job is not None:
            if job.detail:
                detail = job.detail
            if job.outcome is not None:
                played = job.outcome.played
                deduped = job.outcome.deduped
                errors = len(job.outcome.errors)
                wall_seconds = job.wall_seconds
                phases = job.phases
        return CampaignHandle(
            id=job_id,
            name=spec.name,
            kind=kind,
            state=state,
            done=done,
            total=total,
            played=played,
            deduped=deduped,
            errors=errors,
            quarantined=quarantined,
            detail=detail,
            wall_seconds=wall_seconds,
            phases=phases,
        )

    def _build_page(
        self, job_id: str, offset: int, limit: int
    ) -> Optional[RowPage]:
        spec = self._spec_for(job_id)
        if spec is None:
            return None
        rows = covered_rows(spec, self.store.index())
        return RowPage(
            campaign_id=job_id,
            offset=offset,
            limit=limit,
            total=len(rows),
            rows=tuple(rows[offset:offset + limit]),
        )


async def serve(
    store_dir,
    host: str = "127.0.0.1",
    port: int = 0,
    **options: Any,
) -> None:
    """Convenience wrapper: build a :class:`ColoringServer` and serve
    until drained (what ``repro serve`` runs)."""
    server = ColoringServer(store_dir, host, port, **options)
    await server.run()
