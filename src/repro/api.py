"""The stable public API facade.

``repro.api`` is the one import that examples, benchmarks, and
third-party code should need: it re-exports the supported entry points
under their canonical names and keeps them stable across internal
refactors (the implementation modules move; this surface does not).

Typed request/response surface (API v1)
---------------------------------------
The canonical way to run work is a typed, versioned request object —
the same four dataclasses travel in-process, over the CLI, and as the
HTTP server's wire bodies (:mod:`repro.server`):

:class:`SubmitRequest`
    One campaign submission: the spec plus run options.  Pass it to
    :func:`run_campaign` / :func:`run_threshold_search` /
    :func:`run_tournament`, or POST its payload to ``/v1/campaigns``.
:class:`CampaignHandle`
    The status view of a submitted campaign (id, state, progress,
    quarantine count, phase table).
:class:`RowPage`
    One page of result rows in the campaign's deterministic order.
:class:`ErrorBody`
    A structured failure with a machine-readable ``code``.

Entry points
------------
:func:`run_game`
    Play one adversary-vs-victim game by registry name.
:func:`run_tournament`
    The pre-baked full-portfolio sweep
    (:meth:`CampaignSpec.tournament`), played by the campaign engine.
:func:`run_campaign` / :func:`run_threshold_search`
    Declarative campaigns over the sharded work-queue scheduler with a
    content-addressed result store (see :mod:`repro.analysis.campaign`).
    Like :func:`run_tournament`, they take a :class:`SubmitRequest`;
    any other first argument raises :class:`TypeError`.
:func:`verify_coloring` / :func:`is_proper`
    Machine-check a coloring against a graph.
Registries
    ``register_adversary`` / ``register_victim`` / ``register_family``
    and their ``get_*`` / ``list_*`` companions extend every surface at
    once (tournament, campaigns, CLI, server).

Spec dataclasses (:class:`GameSpec`, :class:`GamePolicy`,
:class:`CampaignSpec`, :class:`ThresholdSearchSpec`,
:class:`TournamentRow`, :class:`CampaignOutcome`,
:class:`ThresholdResult`) and the store (:class:`ResultStore`,
:func:`spec_hash`) ride along for typed callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.analysis.campaign import (
    AdversaryRef,
    AnyCampaign,
    CampaignError,
    CampaignOutcome,
    CampaignSpec,
    CampaignStatus,
    SPEC_VERSION,
    SpecVersionError,
    ThresholdResult,
    ThresholdSearchSpec,
    campaign_from_dict,
    campaign_status,
    covered_rows,
    load_campaign,
    threshold_table,
)
from repro.analysis.campaign import (
    run_campaign as _engine_run_campaign,
    run_threshold_search as _engine_run_threshold_search,
)
from repro.analysis.executor import GameSpec, play_spec
from repro.analysis.store import ResultStore, spec_hash
from repro.analysis.worker_pool import shutdown_warm_pool, warm_pool_size
from repro.analysis.tournament import (
    TournamentRow,
    clean_sweep,
    honest_rows,
)
from repro.registry import (
    FIXED_VICTIM,
    FixedVictimGame,
    Registry,
    RegistryError,
    get_adversary,
    get_family,
    get_victim,
    list_adversaries,
    list_families,
    list_victims,
    register_adversary,
    register_family,
    register_victim,
)
from repro.robustness.supervisor import GamePolicy
from repro.verify.coloring import assert_proper, is_proper

__all__ = [
    # typed request/response surface (API v1)
    "API_VERSION",
    "SPEC_VERSION",
    "SubmitRequest",
    "CampaignHandle",
    "RowPage",
    "ErrorBody",
    "SpecVersionError",
    # play
    "run_game",
    "run_tournament",
    "run_campaign",
    "run_threshold_search",
    "run_submission",
    "clean_sweep",
    "honest_rows",
    # verify
    "verify_coloring",
    "is_proper",
    # specs and results
    "GamePolicy",
    "GameSpec",
    "TournamentRow",
    "AdversaryRef",
    "CampaignSpec",
    "ThresholdSearchSpec",
    "CampaignOutcome",
    "CampaignStatus",
    "ThresholdResult",
    "campaign_from_dict",
    "campaign_status",
    "covered_rows",
    "load_campaign",
    "threshold_table",
    # store
    "ResultStore",
    "spec_hash",
    # warm worker pool (campaign workers kept alive between runs; see
    # repro.analysis.worker_pool)
    "warm_pool_size",
    "shutdown_warm_pool",
    # registries
    "Registry",
    "RegistryError",
    "register_adversary",
    "register_victim",
    "register_family",
    "get_adversary",
    "get_victim",
    "get_family",
    "list_adversaries",
    "list_victims",
    "list_families",
    "FIXED_VICTIM",
    "FixedVictimGame",
    "CampaignError",
]

#: Canonical verifier under the facade's name: raises
#: :class:`~repro.robustness.errors.ProtocolViolation` subclasses on an
#: improper or over-budget coloring, returns None on success.
verify_coloring = assert_proper


# ----------------------------------------------------------------------
# Typed request/response surface (API v1)
# ----------------------------------------------------------------------

#: The request/response schema version this build speaks.  Distinct
#: from :data:`SPEC_VERSION` (the campaign *spec* schema): the spec can
#: evolve without the envelope changing, and vice versa.  Both are 1.
API_VERSION = 1


def _check_api_version(payload: Mapping[str, Any], what: str) -> None:
    version = payload.get("version", API_VERSION)
    if version != API_VERSION:
        raise SpecVersionError(
            f"unsupported {what} version {version!r}; this build speaks "
            f"version {API_VERSION}"
        )


def _opt_int(payload: Mapping[str, Any], key: str, minimum: int) -> Optional[int]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise CampaignError(f"{key!r} must be an integer, got {value!r}")
    if value < minimum:
        raise CampaignError(f"{key!r} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class SubmitRequest:
    """One typed campaign submission: the spec plus run options.

    This is the canonical argument of :func:`run_campaign` /
    :func:`run_threshold_search` / :func:`run_tournament` *and* the body
    of the HTTP server's ``POST /v1/campaigns`` — one definition, three
    transports.  The payload form is versioned
    (``{"version": 1, "spec": {...}, "workers": ..., ...}``); unknown
    fields and foreign versions are rejected with structured errors so
    clients never silently misparse.
    """

    spec: AnyCampaign
    workers: Optional[int] = None
    max_games: Optional[int] = None
    retries: int = 1
    chunk_size: Optional[int] = None
    timers: Optional[bool] = None
    version: int = API_VERSION

    def __post_init__(self) -> None:
        if self.version != API_VERSION:
            raise SpecVersionError(
                f"unsupported submit request version {self.version!r}; "
                f"this build speaks version {API_VERSION}"
            )
        if not isinstance(self.spec, (CampaignSpec, ThresholdSearchSpec)):
            raise CampaignError(
                "SubmitRequest.spec must be a CampaignSpec or "
                f"ThresholdSearchSpec, got {type(self.spec).__name__}"
            )

    @property
    def kind(self) -> str:
        return "sweep" if isinstance(self.spec, CampaignSpec) else "threshold"

    def campaign_id(self) -> str:
        """The submission's campaign id: the content hash of the spec
        payload alone.  Run options (workers, budgets) deliberately do
        not contribute — identical *work* coalesces to one campaign
        however it is tuned, which is what makes the server's
        single-flight dedupe line up with the store's content
        addressing (the id doubles as the manifest hash)."""
        return spec_hash(self.spec.to_payload())

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "spec": self.spec.to_payload(),
            "workers": self.workers,
            "max_games": self.max_games,
            "retries": self.retries,
            "chunk_size": self.chunk_size,
            "timers": self.timers,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "SubmitRequest":
        if not isinstance(payload, Mapping):
            raise CampaignError("submit body must be a JSON object")
        known = {
            "version", "spec", "workers", "max_games", "retries",
            "chunk_size", "timers",
        }
        extra = set(payload) - known
        if extra:
            raise CampaignError(
                f"unknown submit fields {sorted(extra)}; "
                f"known fields: {sorted(known)}"
            )
        _check_api_version(payload, "submit request")
        if "spec" not in payload or not isinstance(payload["spec"], Mapping):
            raise CampaignError("submit body needs a 'spec' object")
        retries = _opt_int(payload, "retries", 0)
        timers = payload.get("timers")
        if timers is not None and not isinstance(timers, bool):
            raise CampaignError(f"'timers' must be a boolean, got {timers!r}")
        return cls(
            spec=campaign_from_dict(payload["spec"]),
            workers=_opt_int(payload, "workers", 1),
            max_games=_opt_int(payload, "max_games", 1),
            retries=1 if retries is None else retries,
            chunk_size=_opt_int(payload, "chunk_size", 1),
            timers=timers,
        )


@dataclass(frozen=True)
class CampaignHandle:
    """The status view of one submitted campaign.

    ``state`` is one of ``queued`` / ``running`` / ``done`` /
    ``failed`` (in-memory server jobs) or ``stored`` (a campaign known
    only from its manifest — an earlier server life, or an offline
    ``repro campaign run``).  ``done``/``total`` count covered games
    against the store (``total`` is None for open-ended threshold
    searches); ``played``/``deduped`` report the submission's own run
    split once it finishes, which is the zero-replay evidence.
    """

    id: str
    name: str
    kind: str
    state: str
    done: int = 0
    total: Optional[int] = None
    played: Optional[int] = None
    deduped: Optional[int] = None
    errors: int = 0
    quarantined: int = 0
    detail: str = ""
    wall_seconds: Optional[float] = None
    phases: Optional[Dict[str, float]] = None
    version: int = API_VERSION

    def to_payload(self) -> Dict[str, Any]:
        payload = {
            "version": self.version,
            "id": self.id,
            "name": self.name,
            "kind": self.kind,
            "state": self.state,
            "done": self.done,
            "total": self.total,
            "played": self.played,
            "deduped": self.deduped,
            "errors": self.errors,
            "quarantined": self.quarantined,
        }
        if self.detail:
            payload["detail"] = self.detail
        if self.wall_seconds is not None:
            payload["wall_seconds"] = self.wall_seconds
        if self.phases is not None:
            payload["phases"] = dict(self.phases)
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "CampaignHandle":
        if not isinstance(payload, Mapping):
            raise CampaignError("campaign handle must be a JSON object")
        _check_api_version(payload, "campaign handle")
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass(frozen=True)
class RowPage:
    """One page of result rows, in the campaign's deterministic order
    (expansion order for sweeps, probe order for threshold searches).

    ``next_offset`` is None on the final page; the order is a pure
    function of the spec, so identical requests against the same store
    state paginate byte-identically.
    """

    campaign_id: str
    offset: int
    limit: int
    total: int
    rows: Tuple[Dict[str, Any], ...] = ()
    version: int = API_VERSION

    @property
    def next_offset(self) -> Optional[int]:
        upper = self.offset + len(self.rows)
        return upper if upper < self.total else None

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "campaign_id": self.campaign_id,
            "offset": self.offset,
            "limit": self.limit,
            "total": self.total,
            "next_offset": self.next_offset,
            "rows": [dict(row) for row in self.rows],
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "RowPage":
        if not isinstance(payload, Mapping):
            raise CampaignError("row page must be a JSON object")
        _check_api_version(payload, "row page")
        return cls(
            campaign_id=str(payload.get("campaign_id", "")),
            offset=int(payload.get("offset", 0)),
            limit=int(payload.get("limit", 0)),
            total=int(payload.get("total", 0)),
            rows=tuple(payload.get("rows", ())),
        )


@dataclass(frozen=True)
class ErrorBody:
    """A structured failure: a stable machine-readable ``code`` plus a
    human-readable message.

    Codes in use: ``bad-request`` (malformed body/parameters),
    ``bad-spec`` (a spec that fails validation), ``unsupported-version``
    (spec or envelope version this build does not speak), ``not-found``,
    ``rate-limited``, ``draining`` (server shutting down),
    ``method-not-allowed``, ``payload-too-large``, and ``internal``.
    The CLI maps ``bad-*``/``unsupported-version`` to exit status 2 —
    the same usage-error convention as local invocations.
    """

    code: str
    message: str
    detail: Dict[str, Any] = field(default_factory=dict)
    version: int = API_VERSION

    def to_payload(self) -> Dict[str, Any]:
        payload = {
            "version": self.version,
            "code": self.code,
            "message": self.message,
        }
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "ErrorBody":
        if not isinstance(payload, Mapping):
            raise CampaignError("error body must be a JSON object")
        return cls(
            code=str(payload.get("code", "internal")),
            message=str(payload.get("message", "")),
            detail=dict(payload.get("detail", {})),
            version=int(payload.get("version", API_VERSION)),
        )


def run_game(
    adversary: str,
    victim: str = "greedy",
    locality: int = 1,
    *,
    policy: Optional[GamePolicy] = None,
    **params: Any,
) -> TournamentRow:
    """Play one supervised game by registry names; returns its row.

    ``params`` are forwarded to the adversary factory (``k``, ``side``,
    ``topology``, ...).  Fixed-victim adversaries (the Theorem 5
    reduction) ignore ``victim`` and play under the
    :data:`FIXED_VICTIM` column.

    >>> row = run_game("theorem1-grid", "greedy", locality=1)
    >>> row.won
    True
    """
    entry = get_adversary(adversary)(locality, **params)
    if isinstance(entry, FixedVictimGame):
        victim = FIXED_VICTIM
    else:
        get_victim(victim)  # fail fast with the registry's error message
    spec = GameSpec(
        adversary=adversary,
        victim=victim,
        locality=locality,
        policy=policy if policy is not None else GamePolicy(timeout=30.0),
        params=tuple(sorted(params.items())),
    )
    return play_spec(spec).row


# ----------------------------------------------------------------------
# Campaign entry points, rebased on SubmitRequest
# ----------------------------------------------------------------------

#: Run options carried by :class:`SubmitRequest`; passing them alongside
#: a request object is ambiguous and rejected.
_REQUEST_OPTION_FIELDS = frozenset(
    {"workers", "max_games", "retries", "chunk_size", "timers"}
)


def _require_request(request: Any, entry_point: str) -> None:
    if not isinstance(request, SubmitRequest):
        raise TypeError(
            f"repro.api.{entry_point} takes an api.SubmitRequest, got "
            f"{type(request).__name__} (see docs/api.md)"
        )


def _request_engine_kwargs(
    request: SubmitRequest, options: Mapping[str, Any]
) -> Dict[str, Any]:
    overlap = _REQUEST_OPTION_FIELDS & set(options)
    if overlap:
        raise TypeError(
            f"{sorted(overlap)} are carried by the SubmitRequest; set them "
            "there instead of passing keyword arguments alongside it"
        )
    kwargs = dict(
        workers=request.workers,
        max_games=request.max_games,
        retries=request.retries,
        chunk_size=request.chunk_size,
        timers=request.timers,
    )
    kwargs.update(options)  # machine-level plumbing: trace_path, ...
    return kwargs


def run_campaign(
    request: SubmitRequest, store_dir=None, **options: Any
) -> CampaignOutcome:
    """Run (or resume) a grid-sweep campaign against a result store.

    ``run_campaign(SubmitRequest(spec=...), store_dir)``.  Run options
    (workers, budgets, retries) live on the request; machine-level
    plumbing (``trace_path``, ``max_worker_restarts``,
    ``poison_threshold``) may be passed as keywords.
    """
    _require_request(request, "run_campaign")
    if store_dir is None:
        raise TypeError("run_campaign(SubmitRequest) needs a store_dir")
    if not isinstance(request.spec, CampaignSpec):
        raise CampaignError(
            "run_campaign takes a sweep submission; use "
            "run_threshold_search for threshold specs"
        )
    return _engine_run_campaign(
        request.spec, store_dir, **_request_engine_kwargs(request, options)
    )


def run_threshold_search(
    request: SubmitRequest, store_dir=None, **options: Any
) -> Tuple[List[ThresholdResult], CampaignOutcome]:
    """Run (or resume) an adaptive threshold-search campaign.

    Same calling convention as :func:`run_campaign`, with a
    :class:`ThresholdSearchSpec` as the request's spec.
    """
    _require_request(request, "run_threshold_search")
    if store_dir is None:
        raise TypeError(
            "run_threshold_search(SubmitRequest) needs a store_dir"
        )
    if not isinstance(request.spec, ThresholdSearchSpec):
        raise CampaignError(
            "run_threshold_search takes a threshold submission; use "
            "run_campaign for sweep specs"
        )
    return _engine_run_threshold_search(
        request.spec, store_dir, **_request_engine_kwargs(request, options)
    )


def run_submission(
    request: SubmitRequest, store_dir, **options: Any
) -> Tuple[Optional[List[ThresholdResult]], CampaignOutcome]:
    """Dispatch a :class:`SubmitRequest` by kind — the one entry point
    the server's executor needs.  Returns ``(threshold_results,
    outcome)``; ``threshold_results`` is None for sweeps."""
    if isinstance(request.spec, CampaignSpec):
        return None, run_campaign(request, store_dir, **options)
    return run_threshold_search(request, store_dir, **options)


def run_tournament(
    request: SubmitRequest, store_dir=None, **options: Any
) -> List[TournamentRow]:
    """Play a sweep submission; returns one row per game, in expansion
    order.

    ``run_tournament(SubmitRequest(spec=CampaignSpec.tournament(locality)))``
    plays the pre-baked full-portfolio sweep; any other sweep spec (a
    named subset of adversaries and victims) works the same way.  The
    tournament is exactly a campaign, so it runs through the campaign
    engine and a content-addressed store: ``store_dir`` when given,
    otherwise a throwaway store, and the rows are simply returned.
    ``options`` are the machine-level keywords of :func:`run_campaign`
    (``trace_path``, ...).

    A game that fails outside the supervisor boundary has no row, so
    rather than return a short list this raises :class:`CampaignError`.
    """
    _require_request(request, "run_tournament")
    if not isinstance(request.spec, CampaignSpec):
        raise CampaignError(
            "run_tournament takes a sweep submission "
            "(CampaignSpec.tournament builds the canonical one)"
        )
    if store_dir is None:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-tournament-") as tmp:
            outcome = run_campaign(request, tmp, **options)
    else:
        outcome = run_campaign(request, store_dir, **options)
    if outcome.errors:
        raise CampaignError(
            f"{len(outcome.errors)} of {outcome.total} games failed: "
            f"{outcome.errors[0]}"
        )
    row_fields = {f.name for f in fields(TournamentRow)}
    return [
        TournamentRow(**{k: v for k, v in row.items() if k in row_fields})
        for row in covered_rows(request.spec, outcome.rows)
    ]
