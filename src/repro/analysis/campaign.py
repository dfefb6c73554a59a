"""Campaign engine: declarative experiment campaigns over a sharded
work-queue scheduler with content-addressed, resumable progress.

This is the repo's one execution engine: every game — the pre-baked
tournament included — is played through it.  A *campaign* is a
declarative spec — adversaries (with instance-size parameters),
victims, locality ranges, step policies — loadable from JSON/TOML or
built in code, expanded deterministically into
:class:`~repro.analysis.executor.GameSpec` work items and drained by a
pool of worker processes pulling from a shared queue (work-stealing: a
worker takes the next pending game the moment it finishes its last one,
so stragglers never idle the rest of the pool, unlike a static
pre-partition).

Progress is kill-safe and machine-shardable because every finished game
lands in a :class:`~repro.analysis.store.ResultStore` keyed by the
game's content hash (:func:`~repro.analysis.store.spec_hash`):

* kill the run anywhere and re-run it — only the missing games play;
* run overlapping campaigns into one store — shared games play once;
* point two machines at two stores and merge by copying row shards.

Two campaign kinds ship:

* :class:`CampaignSpec` — a grid sweep (the tournament is the pre-baked
  special case, see :meth:`CampaignSpec.tournament`), and
* :class:`ThresholdSearchSpec` — an *adaptive* workload that
  binary-searches, per (adversary, victim), the smallest locality at
  which the victim survives (None if the adversary wins through the top
  of the range — the paper's prediction), issuing probes in waves
  through the same scheduler/store so a killed search resumes without
  replaying a single probe.

Failure handling is layered.  *Game*-level failures run inside the
existing :class:`~repro.robustness.supervisor.SupervisedGame` boundary,
so victim crashes/timeouts surface as forfeit *rows*, not errors.
Exceptions that escape the boundary (harness/adversary bugs, transient
OS failures) are retried with capped, fully-jittered exponential
backoff (``retries``); a game that still fails is reported in
:attr:`CampaignOutcome.errors` and — deliberately — *not* stored, so
the next run retries it.  *Process*-level failures (a SIGKILLed, OOM'd,
or natively hung worker) are recovered by the supervised worker pool
(:mod:`repro.analysis.worker_pool`): the lost in-flight game is
requeued, a replacement worker is respawned under a restart budget,
games that repeatedly kill workers are quarantined as structured
``forfeit:poison`` rows, and an exhausted budget degrades the run to
in-process serial execution instead of raising.

Observability: the run is wrapped in a ``campaign`` trace span and
counts ``campaign_games_played`` / ``campaign_games_deduped`` /
``campaign_game_retries`` / ``campaign_game_errors`` (plus the pool's
``campaign_worker_restarts`` / ``campaign_lease_expirations`` /
``campaign_games_requeued`` / ``campaign_games_quarantined`` /
``campaign_pool_degradations``) in the metrics registry.  Every game's
metric snapshot (:class:`~repro.analysis.executor.WorkerResult`) is
folded into the caller's registry on both the serial and the pooled
path, so the totals do not depend on the worker count.
"""

from __future__ import annotations

import json
import os
import random
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.executor import GameSpec, WorkerResult, play_spec
from repro.analysis.store import (
    HASH_FIELD,
    QUARANTINE_CAUSE,
    ResultStore,
    spec_hash,
)
from repro.analysis.tables import render_table
from repro.analysis.worker_pool import (
    SupervisedWorkerPool,
    WorkItem,
    _error_entry,
)
from repro.observability.export import write_live_status
from repro.observability.flightrec import dump_on_fault
from repro.observability.metrics import get_registry
from repro.observability.timers import (
    attribution_coverage,
    phase_attribution,
    phase_delta,
    phase_timer,
    set_phase_timers,
)
from repro.observability.trace import (
    TRACER,
    JsonlTraceRecorder,
    merge_trace_shards,
)
from repro.registry import (
    DEFAULT_ADVERSARIES,
    DEFAULT_VICTIMS,
    FAULTY_VICTIM_NAMES,
    FIXED_VICTIM,
    adversary_is_fixed,
    get_adversary,
    get_victim,
)
from repro.robustness.chaos import ChaosPolicy
from repro.robustness.errors import ReproError
from repro.robustness.supervisor import GamePolicy

# Phase-attribution handles (repro.observability.timers).  "compute" is
# the serial scheduler's play time; the pool workers record theirs as
# "worker:compute" and the parent's wait shows up as "ack-drain".
_T_SPEC_EXPAND = phase_timer("spec-expand")
_T_COMPUTE = phase_timer("compute")


class CampaignError(ReproError):
    """A campaign-level failure (bad spec file, malformed manifest).

    Worker-process failures are *not* campaign errors any more: the
    supervised pool (:mod:`repro.analysis.worker_pool`) requeues,
    quarantines, or degrades to serial execution instead of raising.
    """


class SpecVersionError(CampaignError):
    """The spec declares a schema version this build does not speak.

    Kept distinct from plain :class:`CampaignError` so callers can map
    it to a precise machine-readable error (the HTTP server's
    ``unsupported-version`` :class:`~repro.api.ErrorBody` code); the CLI
    treats both as usage errors (exit 2).
    """


#: The campaign spec schema version this build reads and writes.
#: Versionless spec files are accepted as version 1 with a warning;
#: any other version is rejected with :class:`SpecVersionError`.
SPEC_VERSION = 1


def check_spec_version(payload: Mapping[str, Any]) -> None:
    """Validate ``payload``'s declared schema version.

    * no ``version`` field — accepted as version :data:`SPEC_VERSION`,
      with a :class:`FutureWarning` nudging the spec author to declare
      it (a future version 2 would otherwise silently misparse);
    * ``version: 1`` — accepted silently;
    * anything else — :class:`SpecVersionError`.
    """
    if "version" not in payload:
        warnings.warn(
            f"campaign spec declares no 'version' field; assuming "
            f'version {SPEC_VERSION} (add "version": {SPEC_VERSION} '
            f"to the spec to silence this warning)",
            FutureWarning,
            stacklevel=3,
        )
        return
    version = payload["version"]
    if version != SPEC_VERSION:
        raise SpecVersionError(
            f"unsupported campaign spec version {version!r}; this build "
            f"speaks version {SPEC_VERSION}"
        )


# ----------------------------------------------------------------------
# Spec payloads and hashing
# ----------------------------------------------------------------------

Params = Tuple[Tuple[str, Any], ...]


def freeze_params(params: Optional[Mapping[str, Any]]) -> Params:
    """A mapping as the sorted, hashable tuple form ``GameSpec.params``
    carries across process boundaries."""
    if not params:
        return ()
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class AdversaryRef:
    """One adversary dimension entry: a registry name plus factory
    parameters (instance-size knobs like ``k``/``side``/``length``).

    Spec files write either a bare string (``"theorem1-grid"``) or an
    object (``{"name": "theorem3-gadget(2k-2)", "params": {"k": 4}}``).
    """

    name: str
    params: Params = ()

    @classmethod
    def of(cls, config: Union[str, Mapping[str, Any], "AdversaryRef"]) -> "AdversaryRef":
        if isinstance(config, AdversaryRef):
            return config
        if isinstance(config, str):
            return cls(name=config)
        if isinstance(config, Mapping):
            extra = set(config) - {"name", "params"}
            if "name" not in config or extra:
                raise CampaignError(
                    f"adversary entries take 'name' and optional 'params', "
                    f"got {dict(config)!r}"
                )
            return cls(
                name=config["name"],
                params=freeze_params(config.get("params")),
            )
        raise CampaignError(f"bad adversary entry {config!r}")

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}[{inner}]"

    def to_config(self) -> Union[str, Dict[str, Any]]:
        if not self.params:
            return self.name
        return {"name": self.name, "params": dict(self.params)}


def payload_of(spec: GameSpec) -> Dict[str, Any]:
    """The canonical content-hash payload of one game.

    Includes everything that determines the game's outcome — adversary
    name + params, victim, locality, step budget — and excludes run
    plumbing (wall-clock timeout, worker count, trace path);
    see :mod:`repro.analysis.store` for the rationale.
    """
    return {
        "adversary": spec.adversary,
        "params": dict(spec.params),
        "victim": spec.victim,
        "locality": spec.locality,
        "step_budget": spec.policy.step_budget,
    }


def hash_of(spec: GameSpec) -> str:
    """The content address of one game spec."""
    return spec_hash(payload_of(spec))


def _expand_localities(value: Any) -> Tuple[int, ...]:
    """A locality dimension: a list of ints, or a range object
    ``{"start": a, "stop": b[, "step": s]}`` (stop inclusive)."""
    if isinstance(value, Mapping):
        extra = set(value) - {"start", "stop", "step"}
        if extra or "start" not in value or "stop" not in value:
            raise CampaignError(
                f"locality ranges take start/stop[/step], got {dict(value)!r}"
            )
        step = int(value.get("step", 1))
        if step < 1:
            raise CampaignError(f"locality range step must be >= 1, got {step}")
        return tuple(range(int(value["start"]), int(value["stop"]) + 1, step))
    if isinstance(value, int):
        return (value,)
    try:
        return tuple(int(item) for item in value)
    except (TypeError, ValueError):
        raise CampaignError(f"bad locality dimension {value!r}") from None


def _resolve_victims(
    victims: Optional[Sequence[str]], include_faulty: bool
) -> Tuple[str, ...]:
    names = tuple(victims) if victims is not None else DEFAULT_VICTIMS
    if include_faulty:
        names = names + tuple(
            name for name in FAULTY_VICTIM_NAMES if name not in names
        )
    return names


def _resolve_adversaries(
    adversaries: Optional[Sequence[Any]],
) -> Tuple[AdversaryRef, ...]:
    entries = (
        adversaries if adversaries is not None else DEFAULT_ADVERSARIES
    )
    return tuple(AdversaryRef.of(entry) for entry in entries)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative grid-sweep campaign.

    Dimensions expand in deterministic order — locality-major, then
    adversary (registration order of the default lineup), then victim —
    so the same spec always yields the same game list and the same
    content hashes.
    """

    name: str = "campaign"
    adversaries: Tuple[AdversaryRef, ...] = ()
    victims: Tuple[str, ...] = ()
    localities: Tuple[int, ...] = (1,)
    step_budget: Optional[int] = None
    timeout: Optional[float] = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "adversaries", _resolve_adversaries(self.adversaries or None)
        )
        object.__setattr__(
            self, "victims", tuple(self.victims) or DEFAULT_VICTIMS
        )
        object.__setattr__(
            self, "localities", _expand_localities(self.localities)
        )

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        check_spec_version(payload)
        known = {
            "version", "kind", "name", "adversaries", "victims",
            "localities", "include_faulty", "step_budget", "timeout",
        }
        extra = set(payload) - known
        if extra:
            raise CampaignError(
                f"unknown campaign spec fields {sorted(extra)}; "
                f"known fields: {sorted(known)}"
            )
        return cls(
            name=str(payload.get("name", "campaign")),
            adversaries=_resolve_adversaries(payload.get("adversaries")),
            victims=_resolve_victims(
                payload.get("victims"), bool(payload.get("include_faulty"))
            ),
            localities=_expand_localities(payload.get("localities", [1])),
            step_budget=payload.get("step_budget"),
            timeout=payload.get("timeout", 30.0),
        )

    @classmethod
    def tournament(
        cls, locality: int = 1, include_faulty: bool = False
    ) -> "CampaignSpec":
        """The pre-baked tournament: the default portfolios at one
        locality (what ``repro tournament`` and
        :func:`repro.api.run_tournament` submit)."""
        return cls(
            name=f"tournament(T={locality})",
            adversaries=_resolve_adversaries(None),
            victims=_resolve_victims(None, include_faulty),
            localities=(locality,),
        )

    def to_payload(self) -> Dict[str, Any]:
        """The manifest payload (JSON-able, canonical)."""
        return {
            "version": SPEC_VERSION,
            "kind": "sweep",
            "name": self.name,
            "adversaries": [ref.to_config() for ref in self.adversaries],
            "victims": list(self.victims),
            "localities": list(self.localities),
            "step_budget": self.step_budget,
            "timeout": self.timeout,
        }

    def policy(self) -> GamePolicy:
        return GamePolicy(step_budget=self.step_budget, timeout=self.timeout)

    # -- expansion ------------------------------------------------------
    def expand(self, trace_path: Optional[str] = None) -> List[GameSpec]:
        """The campaign's full work list, in deterministic order."""
        policy = self.policy()
        specs: List[GameSpec] = []
        for locality in self.localities:
            for ref in self.adversaries:
                if adversary_is_fixed(ref.name):
                    victims: Tuple[str, ...] = (FIXED_VICTIM,)
                else:
                    victims = self.victims
                for victim in victims:
                    specs.append(
                        GameSpec(
                            adversary=ref.name,
                            victim=victim,
                            locality=locality,
                            policy=policy,
                            trace_path=trace_path,
                            params=ref.params,
                        )
                    )
        return specs

    @cached_property
    def digests(self) -> Tuple[str, ...]:
        """The content address of every expanded game, in expansion
        order: ``tuple(hash_of(g) for g in self.expand())``.

        Computed on first access and kept on this spec object.  That is
        sound because the spec is frozen and a game's address is a pure
        function of its payload — the trace path is not part of it, so
        ``expand(trace_path=...)`` yields the same addresses, and
        :func:`dataclasses.replace` builds a new spec with its own.
        Only addresses are kept, never rows: every reader still looks
        them up in the store, so rows that land later show up.
        """
        return tuple(hash_of(game) for game in self.expand())

    def validate(self) -> None:
        """Resolve every name now, so bad specs fail before any game."""
        for ref in self.adversaries:
            get_adversary(ref.name)
        for victim in self.victims:
            get_victim(victim)


@dataclass(frozen=True)
class ThresholdSearchSpec:
    """An adaptive campaign: per (adversary, victim), binary-search the
    smallest locality in ``[low, high]`` at which the victim survives.

    ``None`` thresholds mean the adversary won at every probed locality
    up to ``high`` — for the paper's adversaries that is the expected
    outcome at any feasible range, and the table records how far the
    lower bound was verified.
    """

    name: str = "threshold-search"
    adversaries: Tuple[AdversaryRef, ...] = ()
    victims: Tuple[str, ...] = ()
    low: int = 0
    high: int = 4
    step_budget: Optional[int] = None
    timeout: Optional[float] = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "adversaries", _resolve_adversaries(self.adversaries or None)
        )
        object.__setattr__(
            self, "victims", tuple(self.victims) or DEFAULT_VICTIMS
        )
        if self.low < 0 or self.high < self.low:
            raise CampaignError(
                f"need 0 <= low <= high, got [{self.low}, {self.high}]"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ThresholdSearchSpec":
        check_spec_version(payload)
        known = {
            "version", "kind", "name", "adversaries", "victims", "low",
            "high", "include_faulty", "step_budget", "timeout",
        }
        extra = set(payload) - known
        if extra:
            raise CampaignError(
                f"unknown threshold spec fields {sorted(extra)}; "
                f"known fields: {sorted(known)}"
            )
        return cls(
            name=str(payload.get("name", "threshold-search")),
            adversaries=_resolve_adversaries(payload.get("adversaries")),
            victims=_resolve_victims(
                payload.get("victims"), bool(payload.get("include_faulty"))
            ),
            low=int(payload.get("low", 0)),
            high=int(payload.get("high", 4)),
            step_budget=payload.get("step_budget"),
            timeout=payload.get("timeout", 30.0),
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "kind": "threshold",
            "name": self.name,
            "adversaries": [ref.to_config() for ref in self.adversaries],
            "victims": list(self.victims),
            "low": self.low,
            "high": self.high,
            "step_budget": self.step_budget,
            "timeout": self.timeout,
        }

    def policy(self) -> GamePolicy:
        return GamePolicy(step_budget=self.step_budget, timeout=self.timeout)

    def combos(self) -> List[Tuple[AdversaryRef, str]]:
        """The (adversary, victim) pairs searched, in deterministic
        order; fixed-victim adversaries contribute one pair."""
        out: List[Tuple[AdversaryRef, str]] = []
        for ref in self.adversaries:
            if adversary_is_fixed(ref.name):
                out.append((ref, FIXED_VICTIM))
            else:
                out.extend((ref, victim) for victim in self.victims)
        return out

    def game(self, ref: AdversaryRef, victim: str, locality: int) -> GameSpec:
        return GameSpec(
            adversary=ref.name,
            victim=victim,
            locality=locality,
            policy=self.policy(),
            params=ref.params,
        )

    def validate(self) -> None:
        for ref in self.adversaries:
            get_adversary(ref.name)
        for victim in self.victims:
            get_victim(victim)


AnyCampaign = Union[CampaignSpec, ThresholdSearchSpec]


def campaign_from_dict(payload: Mapping[str, Any]) -> AnyCampaign:
    """Build a campaign from a spec payload; ``kind`` selects the class
    (``"sweep"`` — the default — or ``"threshold"``).

    The payload's schema ``version`` is validated here *and* in the
    per-class ``from_dict`` (callers reach either entry point): missing
    versions are accepted as v1 with a warning, unknown versions raise
    :class:`SpecVersionError`.
    """
    check_spec_version(payload)
    # Normalize so the per-class from_dict does not warn a second time
    # for the same versionless payload.
    payload = dict(payload)
    payload.setdefault("version", SPEC_VERSION)
    kind = payload.get("kind", "sweep")
    if kind == "sweep":
        return CampaignSpec.from_dict(payload)
    if kind == "threshold":
        return ThresholdSearchSpec.from_dict(payload)
    raise CampaignError(
        f"unknown campaign kind {kind!r}; choose from ['sweep', 'threshold']"
    )


def load_campaign(path) -> AnyCampaign:
    """Load a campaign spec from a ``.json`` or ``.toml`` file."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise CampaignError(f"no campaign spec at {path!r}")
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py<3.11 fallback
            raise CampaignError(
                "TOML campaign specs need Python 3.11+ (tomllib); "
                "use JSON instead"
            ) from None
        with open(path, "rb") as handle:
            payload = tomllib.load(handle)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise CampaignError(f"bad JSON in {path!r}: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise CampaignError(f"campaign spec {path!r} must be an object")
    return campaign_from_dict(payload)


# ----------------------------------------------------------------------
# The sharded work-queue scheduler
# ----------------------------------------------------------------------


#: Ceiling on one backoff sleep, so deep retry chains never stall a
#: worker for minutes.
BACKOFF_CAP_SECONDS = 2.0


def _backoff_delay(
    attempt: int,
    base: float,
    cap: float = BACKOFF_CAP_SECONDS,
    rng: Optional[random.Random] = None,
) -> float:
    """The sleep before retry ``attempt`` (1-based): **full jitter** over
    the capped exponential window.

    ``uniform(0, min(cap, base × 2^(attempt-1)))`` — the AWS full-jitter
    scheme: workers that fail simultaneously (a shared transient, a
    thundering requeue after a pool respawn) spread their retries over
    the whole window instead of stampeding in lockstep, and the cap
    bounds the worst-case stall however deep the retry chain gets.
    """
    window = min(cap, base * (2 ** (attempt - 1)))
    if window <= 0:
        return 0.0
    draw = rng.uniform if rng is not None else random.uniform
    return draw(0.0, window)


def _play_with_retry(spec: GameSpec, retries: int, backoff: float) -> WorkerResult:
    """``play_spec`` with capped, fully-jittered exponential-backoff
    retries for exceptions that escape the supervisor boundary (victim
    failures never do — they come back as forfeit rows)."""
    attempt = 0
    while True:
        try:
            return play_spec(spec)
        except Exception:
            attempt += 1
            if attempt > retries:
                raise
            get_registry().inc("campaign_game_retries")
            time.sleep(_backoff_delay(attempt, backoff))


def _store_row(outcome: WorkerResult, digest: str) -> Dict[str, Any]:
    row = asdict(outcome.row)
    row[HASH_FIELD] = digest
    return row


class CampaignScheduler:
    """Drain game specs through the store-deduped work queue.

    Parameters
    ----------
    store:
        The :class:`ResultStore` consulted before dispatch (games whose
        hash is present are *deduped* — served from disk, never
        replayed) and written by the workers.
    workers:
        Worker process count; 1 plays inline with no pool, the identical
        code path otherwise.
    retries, backoff:
        Per-game retry budget and base backoff (seconds) for exceptions
        escaping the supervisor (the actual sleeps are capped and fully
        jittered; see :func:`_backoff_delay`).
    max_worker_restarts, poison_threshold, lease_grace:
        Supervision knobs forwarded to
        :class:`~repro.analysis.worker_pool.SupervisedWorkerPool`: the
        pool-wide worker respawn budget (None = the pool default), how
        many workers one game may kill or hang before it is quarantined,
        and the lease-deadline multiplier over the spec's timeout.
    chunk_size:
        Games per worker lease (forwarded to the pool); None adapts —
        large chunks while the queue is deep, halving toward 1 at the
        tail.  ``1`` pins the degenerate per-game protocol.
    chaos:
        Optional :class:`~repro.robustness.chaos.ChaosPolicy` shipped to
        workers (defaults to the ``REPRO_CHAOS`` environment; the
        parent process never applies chaos).
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 1,
        retries: int = 1,
        backoff: float = 0.05,
        max_worker_restarts: Optional[int] = None,
        poison_threshold: int = 3,
        lease_grace: float = 3.0,
        chaos: Optional["ChaosPolicy"] = None,
        chunk_size: Optional[int] = None,
        live_extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.workers = workers
        self.retries = retries
        self.backoff = backoff
        self.max_worker_restarts = max_worker_restarts
        self.poison_threshold = poison_threshold
        self.lease_grace = lease_grace
        self.chaos = chaos
        self.chunk_size = chunk_size
        self.live_extra = dict(live_extra) if live_extra else {}
        self._last_deduped = 0

    def run(
        self,
        items: Sequence[WorkItem],
        max_games: Optional[int] = None,
    ) -> Tuple[Dict[str, Dict[str, Any]], int, List[Dict[str, Any]]]:
        """Play every ``(content hash, spec)`` item not already
        stored; returns ``(played_rows_by_hash, deduped_count, errors)``.

        The caller supplies each game's address (a sweep's come from
        :attr:`CampaignSpec.digests`), so the scheduler hashes nothing.
        ``max_games`` caps the number of games *played* this call (not
        the deduped ones) — budgeted incremental runs; the store picks
        up where the budget stopped on the next call.
        """
        index = self.store.index()
        registry = get_registry()
        work: List[WorkItem] = []
        seen: set = set()
        deduped = 0
        with _T_SPEC_EXPAND:
            for digest, spec in items:
                if digest in index:
                    deduped += 1
                    continue
                if digest in seen:
                    continue
                seen.add(digest)
                work.append((digest, spec))
            if max_games is not None:
                work = work[:max_games]
        registry.inc("campaign_games_deduped", deduped)
        self._last_deduped = deduped
        if not work:
            return {}, deduped, []

        if self.workers == 1:
            rows, errors = self._run_serial(work)
        else:
            rows, errors = self._run_pool(work)
        registry.inc("campaign_games_played", len(rows))
        registry.inc("campaign_game_errors", len(errors))
        return rows, deduped, errors

    #: Seconds between serial-path ``live.json`` rewrites; mirrors the
    #: supervised pool's ``live_interval`` so ``campaign watch`` and the
    #: server's SSE progress stream work identically at ``workers=1``.
    LIVE_INTERVAL = 1.0

    def _run_serial(
        self, work: List[Tuple[str, GameSpec]]
    ) -> Tuple[Dict[str, Dict[str, Any]], List[Dict[str, Any]]]:
        rows: Dict[str, Dict[str, Any]] = {}
        errors: List[Dict[str, Any]] = []
        registry = get_registry()
        total = len(work)
        last_live = 0.0
        for digest, spec in work:
            try:
                with _T_COMPUTE:
                    outcome = _play_with_retry(spec, self.retries, self.backoff)
            except Exception as exc:
                errors.append(_error_entry(digest, spec, repr(exc)))
            else:
                # The game played under its own scoped registry; fold its
                # snapshot in, as the pool does with every chunk ack.
                registry.merge(outcome.metrics)
                row = _store_row(outcome, digest)
                self.store.add(row)
                rows[digest] = row
            now = time.monotonic()
            if now - last_live >= self.LIVE_INTERVAL:
                last_live = now
                self._publish_serial_live(len(rows), total, len(errors), False)
        self._publish_serial_live(len(rows), total, len(errors), True)
        return rows, errors

    def _publish_serial_live(
        self, played: int, total: int, errors: int, done: bool
    ) -> None:
        """Telemetry for the serial path: same ``live.json`` channel the
        supervised pool publishes, minus the per-worker fleet rows.
        Failures are swallowed inside :func:`write_live_status`."""
        status: Dict[str, Any] = dict(self.live_extra)
        status.setdefault("games_deduped", self._last_deduped)
        status.update(
            {
                "done": done,
                "monotonic": time.monotonic(),
                "games_total": total,
                "games_played": played,
                "games_errors": errors,
                "queue_depth": max(total - played - errors, 0),
                "in_flight": 0 if done else 1,
                "workers": [],
            }
        )
        write_live_status(self.store.root, status)

    def _run_pool(
        self, work: List[Tuple[str, GameSpec]]
    ) -> Tuple[Dict[str, Dict[str, Any]], List[Dict[str, Any]]]:
        """Drain ``work`` through the supervised worker pool.

        Dead workers and expired leases are recovered inside the pool
        (requeue, respawn, quarantine); the only pool failure that
        reaches this level is an exhausted restart budget, and that
        *degrades* — the remaining queue finishes in-process serially —
        rather than raising.
        """
        live_extra = dict(self.live_extra)
        live_extra.setdefault("games_deduped", self._last_deduped)
        pool = SupervisedWorkerPool(
            store=self.store,
            workers=self.workers,
            retries=self.retries,
            backoff=self.backoff,
            max_worker_restarts=self.max_worker_restarts,
            poison_threshold=self.poison_threshold,
            lease_grace=self.lease_grace,
            chaos=self.chaos,
            chunk_size=self.chunk_size,
            live_extra=live_extra,
        )
        outcome = pool.run(work)
        rows, errors = outcome.rows, outcome.errors
        if outcome.leftover:
            TRACER.event(
                "campaign-degraded",
                remaining=len(outcome.leftover),
                restarts=outcome.restarts,
            )
            serial_rows, serial_errors = self._run_serial(outcome.leftover)
            rows.update(serial_rows)
            errors.extend(serial_errors)
        return rows, errors


# ----------------------------------------------------------------------
# Campaign drivers
# ----------------------------------------------------------------------


@dataclass
class CampaignOutcome:
    """What one campaign run did and found.

    ``rows`` maps content hash → row for every game the campaign covers
    that is now in the store (played this run *or* deduped from earlier
    runs); ``played``/``deduped`` count this run's split, which is what
    ``campaign status`` surfaces to demonstrate zero replay.
    """

    name: str
    total: int
    played: int
    deduped: int
    rows: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    errors: List[Dict[str, Any]] = field(default_factory=list)


def _finish_trace(trace_path) -> None:
    if trace_path is None:
        return
    merge_trace_shards(trace_path)
    recorder = JsonlTraceRecorder(trace_path)
    recorder.write(
        {"type": "metrics", "snapshot": get_registry().snapshot()}
    )
    recorder.close()


def run_campaign(
    campaign: CampaignSpec,
    store_dir,
    *,
    workers: Optional[int] = None,
    max_games: Optional[int] = None,
    retries: int = 1,
    trace_path=None,
    max_worker_restarts: Optional[int] = None,
    poison_threshold: int = 3,
    chunk_size: Optional[int] = None,
    timers: Optional[bool] = None,
) -> CampaignOutcome:
    """Run (or resume — the same thing) a grid-sweep campaign.

    Every expanded game already present in ``store_dir`` is deduped;
    the rest are drained through the work-queue scheduler.  Returns the
    outcome with every covered row that is now on disk.

    ``timers`` toggles phase-attribution timing for this run (restored
    afterwards); ``None`` leaves the process-wide setting alone.  The
    run-ledger entry records the measured wall-clock, the per-phase
    split, and the share of wall-clock the top-level phases account for
    (``campaign status`` renders the table).
    """
    campaign.validate()
    store = ResultStore(store_dir)
    campaign_id = store.record_manifest(campaign.to_payload())
    previous_timers = None if timers is None else set_phase_timers(timers)
    registry = get_registry()
    phases_before = phase_attribution(registry.snapshot())
    started = time.perf_counter()
    try:
        with _T_SPEC_EXPAND:
            specs = campaign.expand(trace_path=(
                None if trace_path is None else os.fspath(trace_path)
            ))
            digests = campaign.digests
        scheduler = CampaignScheduler(
            store,
            workers=1 if workers is None else workers,
            retries=retries,
            max_worker_restarts=max_worker_restarts,
            poison_threshold=poison_threshold,
            chunk_size=chunk_size,
            live_extra={"campaign": campaign.name, "kind": "sweep"},
        )
        with TRACER.span(
            "campaign", name=campaign.name, campaign_kind="sweep"
        ) as span:
            try:
                played, deduped, errors = scheduler.run(
                    list(zip(digests, specs)), max_games=max_games
                )
            except BaseException as exc:
                # An exception escaping the scheduler is exactly the
                # post-mortem the flight recorder exists for.
                dump_on_fault(
                    store.root,
                    "scheduler-exception",
                    campaign=campaign.name,
                    error_type=type(exc).__name__,
                )
                raise
            span.note(
                total=len(specs),
                played=len(played),
                deduped=deduped,
                errors=len(errors),
            )
        _finish_trace(trace_path)
        index = store.index()
        rows = {
            digest: index[digest] for digest in digests if digest in index
        }
        wall = time.perf_counter() - started
        phases = phase_delta(
            phases_before, phase_attribution(registry.snapshot())
        )
        outcome = CampaignOutcome(
            name=campaign.name,
            total=len(specs),
            played=len(played),
            deduped=deduped,
            rows=rows,
            errors=errors,
        )
        store.record_run(
            _run_summary(
                outcome,
                campaign_id,
                kind="sweep",
                max_games=max_games,
                wall_seconds=wall,
                phases=phases,
            )
        )
        return outcome
    finally:
        if previous_timers is not None:
            set_phase_timers(previous_timers)


def _run_summary(
    outcome: CampaignOutcome,
    campaign_id: str,
    kind: str,
    max_games: Optional[int],
    wall_seconds: Optional[float] = None,
    phases: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    # ``campaign`` is the spec's name, which two different specs may
    # share; ``campaign_id`` (the manifest hash) identifies the spec.
    summary = {
        "campaign": outcome.name,
        "campaign_id": campaign_id,
        "kind": kind,
        "total": outcome.total,
        "played": outcome.played,
        "deduped": outcome.deduped,
        "errors": len(outcome.errors),
        "max_games": max_games,
    }
    if wall_seconds is not None:
        summary["wall_seconds"] = round(wall_seconds, 6)
        if phases:
            summary["phases"] = {
                name: round(seconds, 6)
                for name, seconds in sorted(phases.items())
            }
            coverage = attribution_coverage(phases, wall_seconds)
            if coverage is not None:
                summary["phase_coverage"] = round(coverage, 4)
    return summary


# ----------------------------------------------------------------------
# Adaptive threshold search
# ----------------------------------------------------------------------


class _Bisection:
    """Incremental form of
    :func:`repro.analysis.experiments.threshold_locality`: the driver
    asks for the next probe, feeds back whether the victim survived, and
    the invariant (survive at T ⇒ survive at T' > T) pins the smallest
    surviving locality in O(log(high-low)) probes."""

    __slots__ = ("lo", "hi", "phase", "done", "threshold")

    def __init__(self, low: int, high: int) -> None:
        self.lo = low
        self.hi = high
        self.phase = "check-high"
        self.done = False
        self.threshold: Optional[int] = None

    def next_probe(self) -> Optional[int]:
        if self.done:
            return None
        if self.phase == "check-high":
            return self.hi
        return (self.lo + self.hi) // 2

    def feed(self, locality: int, survives: bool) -> None:
        if self.phase == "check-high":
            if not survives:
                self.done = True
                self.threshold = None
                return
            self.phase = "bisect"
            if self.lo >= self.hi:
                self.done = True
                self.threshold = self.lo
            return
        if survives:
            self.hi = locality
        else:
            self.lo = locality + 1
        if self.lo >= self.hi:
            self.done = True
            self.threshold = self.lo


@dataclass
class ThresholdResult:
    """One combo's search outcome.

    ``threshold`` is the smallest locality in ``[low, high]`` where the
    victim survived, or None when the adversary won through ``high``
    (recorded in the table as ``>high`` — the lower bound held over the
    whole range).  ``n`` is the adversary's instance size at the
    decisive probe, when the adversary reports one.
    """

    adversary: str
    victim: str
    low: int
    high: int
    threshold: Optional[int]
    probes: int
    converged: bool = True
    n: Optional[int] = None


def run_threshold_search(
    spec: ThresholdSearchSpec,
    store_dir,
    *,
    workers: Optional[int] = None,
    max_games: Optional[int] = None,
    retries: int = 1,
    trace_path=None,
    max_worker_restarts: Optional[int] = None,
    poison_threshold: int = 3,
    chunk_size: Optional[int] = None,
    timers: Optional[bool] = None,
) -> Tuple[List[ThresholdResult], CampaignOutcome]:
    """Run (or resume) the adaptive threshold-search campaign.

    Probes are issued in waves — one pending probe per unconverged
    (adversary, victim) combo — through the same scheduler/store as grid
    sweeps, so probes dedupe against any earlier run (including grid
    sweeps that happened to cover the same games) and a killed search
    resumes by replaying *zero* games: bisection is deterministic, so
    the resumed run re-derives the same probe sequence and finds every
    already-answered probe in the store.

    ``timers`` works as in :func:`run_campaign`: phase attribution for
    this run, recorded in the run-ledger entry.
    """
    spec.validate()
    store = ResultStore(store_dir)
    campaign_id = store.record_manifest(spec.to_payload())
    previous_timers = None if timers is None else set_phase_timers(timers)
    registry = get_registry()
    phases_before = phase_attribution(registry.snapshot())
    started = time.perf_counter()
    scheduler = CampaignScheduler(
        store,
        workers=1 if workers is None else workers,
        retries=retries,
        max_worker_restarts=max_worker_restarts,
        poison_threshold=poison_threshold,
        chunk_size=chunk_size,
        live_extra={"campaign": spec.name, "kind": "threshold"},
    )
    trace_path = None if trace_path is None else os.fspath(trace_path)

    combos = spec.combos()
    states = {combo: _Bisection(spec.low, spec.high) for combo in combos}
    probes = {combo: 0 for combo in combos}
    # Instance sizes each combo's own probe rows report (adversaries
    # may share a name and differ only in params).
    sizes: Dict[Tuple[AdversaryRef, str], List[int]] = {
        combo: [] for combo in combos
    }
    played_total = 0
    deduped_total = 0
    errors: List[Dict[str, Any]] = []
    budget = max_games
    rows: Dict[str, Dict[str, Any]] = {}

    try:
        with TRACER.span(
            "campaign", name=spec.name, campaign_kind="threshold"
        ) as span:
            while True:
                with _T_SPEC_EXPAND:
                    wave: List[
                        Tuple[Tuple[AdversaryRef, str], int, WorkItem]
                    ] = []
                    for combo, state in states.items():
                        if state.done:
                            continue
                        locality = state.next_probe()
                        ref, victim = combo
                        game = replace(
                            spec.game(ref, victim, locality),
                            trace_path=trace_path,
                        )
                        wave.append((combo, locality, (hash_of(game), game)))
                if not wave or budget == 0:
                    break
                try:
                    played, deduped, wave_errors = scheduler.run(
                        [item for _, _, item in wave], max_games=budget
                    )
                except BaseException as exc:
                    dump_on_fault(
                        store.root,
                        "scheduler-exception",
                        campaign=spec.name,
                        error_type=type(exc).__name__,
                    )
                    raise
                if budget is not None:
                    budget -= len(played)
                played_total += len(played)
                deduped_total += deduped
                errors.extend(wave_errors)
                index = store.index()
                progressed = False
                for combo, locality, (digest, _game) in wave:
                    row = index.get(digest)
                    if row is None:
                        continue  # budget-capped or errored; retry next run
                    rows[digest] = row
                    probes[combo] += 1
                    if row.get("n") is not None:
                        sizes[combo].append(row["n"])
                    states[combo].feed(locality, survives=not row["won"])
                    progressed = True
                if not progressed:
                    break  # every remaining probe failed or out of budget
            span.note(
                combos=len(combos),
                played=played_total,
                deduped=deduped_total,
                errors=len(errors),
            )
        _finish_trace(trace_path)

        results = [
            ThresholdResult(
                adversary=ref.label(),
                victim=victim,
                low=spec.low,
                high=spec.high,
                threshold=states[(ref, victim)].threshold,
                probes=probes[(ref, victim)],
                converged=states[(ref, victim)].done,
                n=max(sizes[(ref, victim)], default=None),
            )
            for ref, victim in combos
        ]
        wall = time.perf_counter() - started
        phases = phase_delta(
            phases_before, phase_attribution(registry.snapshot())
        )
        outcome = CampaignOutcome(
            name=spec.name,
            total=sum(probes.values()),
            played=played_total,
            deduped=deduped_total,
            rows=rows,
            errors=errors,
        )
        store.record_run(
            _run_summary(
                outcome,
                campaign_id,
                kind="threshold",
                max_games=max_games,
                wall_seconds=wall,
                phases=phases,
            )
        )
        return results, outcome
    finally:
        if previous_timers is not None:
            set_phase_timers(previous_timers)


def threshold_table(results: Sequence[ThresholdResult]) -> str:
    """The EXPERIMENTS.md-ready table of threshold-search outcomes."""
    def cell(result: ThresholdResult) -> str:
        if not result.converged:
            return "?"
        if result.threshold is None:
            return f">{result.high}"
        return str(result.threshold)

    return render_table(
        ["adversary", "victim", "n", "range", "threshold T", "probes"],
        [
            [
                result.adversary,
                result.victim,
                result.n if result.n is not None else "-",
                f"[{result.low}, {result.high}]",
                cell(result),
                result.probes,
            ]
            for result in results
        ],
    )


# ----------------------------------------------------------------------
# Status (read-only progress report)
# ----------------------------------------------------------------------


@dataclass
class CampaignStatus:
    """Read-only progress of one manifest against a store.

    ``quarantined`` counts covered games answered by a poison-game
    quarantine row (``cause="poison"``) rather than an actual play —
    they count as *done* (resume will not replay them) but deserve the
    operator's eye.
    """

    name: str
    kind: str
    done: int
    total: Optional[int]  # None for adaptive campaigns (open-ended)
    detail: str = ""
    quarantined: int = 0


def campaign_status(store_dir) -> Tuple[List[CampaignStatus], List[Dict[str, Any]]]:
    """Progress of every campaign recorded in a store, plus the run
    ledger (whose played/deduped split is the zero-replay evidence)."""
    store = ResultStore(store_dir)
    index = store.index()
    statuses: List[CampaignStatus] = []
    for payload in store.manifests():
        try:
            campaign = campaign_from_dict(payload)
        except (CampaignError, ReproError) as exc:
            statuses.append(
                CampaignStatus(
                    name=str(payload.get("name", "?")),
                    kind=str(payload.get("kind", "?")),
                    done=0,
                    total=None,
                    detail=f"unreadable manifest: {exc}",
                )
            )
            continue
        if isinstance(campaign, CampaignSpec):
            covered = covered_rows(campaign, index)
            statuses.append(
                CampaignStatus(
                    name=campaign.name,
                    kind="sweep",
                    done=len(covered),
                    total=len(campaign.digests),
                    quarantined=sum(
                        1
                        for row in covered
                        if row.get("cause") == QUARANTINE_CAUSE
                    ),
                )
            )
        else:
            results, answered = _replay_threshold(campaign, index)
            converged = sum(1 for result in results if result.converged)
            statuses.append(
                CampaignStatus(
                    name=campaign.name,
                    kind="threshold",
                    done=answered,
                    total=None,
                    detail=(
                        f"{converged}/{len(results)} combos converged"
                    ),
                )
            )
    return statuses, store.runs()


def covered_rows(
    campaign: AnyCampaign, index: Mapping[str, Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """The store rows a campaign covers, in the campaign's own
    deterministic order — expansion order for sweeps, probe order for
    threshold searches.

    This is the server's pagination backbone (`GET
    /v1/campaigns/{id}/rows`): the order is a pure function of the spec,
    so two requests against the same store snapshot paginate
    identically, and a resumed store yields byte-identical pages.
    """
    if isinstance(campaign, CampaignSpec):
        return [
            index[digest] for digest in campaign.digests if digest in index
        ]
    rows: List[Dict[str, Any]] = []
    for ref, victim in campaign.combos():
        state = _Bisection(campaign.low, campaign.high)
        while not state.done:
            locality = state.next_probe()
            row = index.get(hash_of(campaign.game(ref, victim, locality)))
            if row is None:
                break
            rows.append(row)
            state.feed(locality, survives=not row["won"])
    return rows


def replay_threshold(
    spec: ThresholdSearchSpec, index: Mapping[str, Mapping[str, Any]]
) -> Tuple[List[ThresholdResult], int]:
    """Public alias of :func:`_replay_threshold` for status surfaces
    (the CLI's ``campaign status`` and the server's campaign handles)."""
    return _replay_threshold(spec, index)


def _replay_threshold(
    spec: ThresholdSearchSpec, index: Mapping[str, Mapping[str, Any]]
) -> Tuple[List[ThresholdResult], int]:
    """Re-derive threshold-search progress from stored rows alone — the
    deterministic bisection means the store *is* the search state."""
    answered = 0
    results: List[ThresholdResult] = []
    for ref, victim in spec.combos():
        state = _Bisection(spec.low, spec.high)
        probes = 0
        while not state.done:
            locality = state.next_probe()
            row = index.get(hash_of(spec.game(ref, victim, locality)))
            if row is None:
                break
            probes += 1
            answered += 1
            state.feed(locality, survives=not row["won"])
        results.append(
            ThresholdResult(
                adversary=ref.label(),
                victim=victim,
                low=spec.low,
                high=spec.high,
                threshold=state.threshold,
                probes=probes,
                converged=state.done,
            )
        )
    return results, answered
