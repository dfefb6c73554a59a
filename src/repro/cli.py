"""Command-line interface: run the paper's experiments from a shell.

Subcommands
-----------
``adversary``
    Run a lower-bound adversary against a chosen victim at a chosen
    locality.  Accepts any registered adversary name
    (:mod:`repro.registry`) plus the short aliases ``theorem1`` /
    ``theorem2`` / ``theorem3`` / ``theorem5``.
``upper-bound``
    Run an upper-bound algorithm (akbari/unify) on a chosen family at
    the paper's locality budget: the registered ``scattered-order``
    game, which reveals the host in a seeded scattered order and checks
    the coloring.
``tournament``
    Run every registered adversary against every registered victim.
``campaign``
    Run declarative campaigns (``campaign run SPEC --store DIR``),
    resume one after a kill (``campaign resume``), report store
    progress, the run ledger, and the latest phase-attribution table
    (``campaign status``), or follow an in-flight run's live telemetry
    (``campaign watch``).  See :mod:`repro.analysis.campaign` for the
    spec format.  ``run``/``resume`` print the run's phase table.
``serve``
    Serve the campaign engine over HTTP (``serve --store DIR``):
    typed submissions, deterministic row pagination, SSE progress
    streams, Prometheus ``/metrics``.  See ``docs/serving.md``.
``submit``
    Submit a campaign spec to a running server (``submit SPEC --url
    URL``), optionally ``--watch`` progress and ``--rows`` page the
    results.  Server-side validation failures exit 2 exactly like
    local usage errors.
``report``
    Regenerate EXPERIMENTS.md content on stdout.
``stats``
    Summarize a trace recorded with ``--trace`` (event counts, games by
    adversary, reveal totals, cache hit rate), export its folded metrics
    snapshot (``--export prometheus|json``), or render the live telemetry
    of an in-flight campaign (``--live STORE_DIR``).

Shared run flags
----------------
Every game-playing subcommand (``adversary``, ``upper-bound``,
``tournament``, ``campaign run``/``resume``) takes the same three flags
from one parent parser: ``--trace FILE`` records a structured JSON-lines
trace, ``--metrics`` prints the metrics-registry totals after the run,
and ``--workers N`` parallelizes sweeps (single-game commands reject
N > 1).  Every game is played the way a campaign plays it: the
single-game commands (``adversary``, ``upper-bound``) play the one game
of a one-game campaign spec under the supervisor and print its row's
verdict, but keep no record.  A campaign persists every game to its
result store, so re-running it with ``campaign resume`` plays only the
games that are missing; to persist a game, ``campaign run`` a spec
that names it (``examples/campaigns/upper-bound.json``).

Exit statuses: 0 success, 1 structured failure (an adversary survived,
a harness error), 2 bad invocation (reported as ``repro: error: ...``).

Examples::

    python -m repro.cli adversary theorem1 --victim akbari --locality 2
    python -m repro.cli adversary theorem2-cylinder --locality 1 \\
        --trace /tmp/t.jsonl
    python -m repro.cli stats /tmp/t.jsonl
    python -m repro.cli upper-bound akbari --side 24
    python -m repro.cli tournament --locality 1 --workers 4
    python -m repro.cli campaign run examples/campaigns/smoke.json \\
        --store /tmp/store --workers 4
    python -m repro.cli campaign status --store /tmp/store
    python -m repro.cli campaign watch --store /tmp/store
    python -m repro.cli stats /tmp/t.jsonl --export prometheus
    python -m repro.cli stats --live /tmp/store
    python -m repro.cli serve --store /tmp/store --port 8423
    python -m repro.cli submit examples/campaigns/smoke.json \\
        --url http://127.0.0.1:8423 --watch --rows
    python -m repro.cli report
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from typing import Any, Optional, Tuple

from repro.core.unify import recommended_locality
from repro.observability.metrics import get_registry
from repro.observability.trace import tracing
from repro.registry import RegistryError, get_family
from repro.robustness.errors import ReproError
from repro.robustness.supervisor import GamePolicy


class UserError(Exception):
    """A bad invocation (unknown name, inconsistent flags).  ``main``
    reports it as ``repro: error: ...`` on stderr with exit status 2 —
    argparse's own convention for usage errors."""


def _print_metrics() -> None:
    from repro.observability.stats import format_metrics

    print("\nmetrics:")
    print(format_metrics(get_registry().snapshot()))


def _latest_phase_run(store_dir) -> Optional[dict]:
    """The newest run-ledger entry carrying phase timings, if any."""
    from repro.analysis.store import ResultStore

    for run in reversed(ResultStore(store_dir).runs()):
        if run.get("phases"):
            return run
    return None


def _print_phase_table(store_dir) -> None:
    from repro.observability.stats import render_phase_table

    entry = _latest_phase_run(store_dir)
    if entry is None:
        return
    print("\nphase attribution "
          f"(run #{entry.get('seq', '?')}, {entry.get('campaign', '?')}):")
    print(render_phase_table(entry["phases"], entry.get("wall_seconds")))


def _require_serial(args: argparse.Namespace, command: str) -> None:
    if args.workers != 1:
        raise UserError(
            f"{command} plays a single game; --workers applies to "
            "tournament and campaign runs"
        )


def _play_one(args: argparse.Namespace, adversary: str, victim: str,
              locality: int, **kwargs: Any):
    """Play one game as a campaign plays it, under ``--trace``; returns
    the :class:`~repro.analysis.executor.WorkerResult`.  The game's
    metrics are folded before the trace closes, so the trace's final
    snapshot holds them."""
    from repro.api import _play_game

    trace = tracing(args.trace) if args.trace else nullcontext()
    try:
        with trace:
            return _play_game(adversary, victim, locality, **kwargs)
    except RegistryError as exc:
        raise UserError(str(exc)) from None


def _verdict(row) -> str:
    """A row's verdict word, the same in every game-playing command."""
    if row.forfeit:
        return "FORFEIT"
    return "DEFEATED" if row.won else "survived"


#: Short aliases kept from the pre-registry CLI; everything else in the
#: ``adversary`` positional is resolved through the adversary registry.
_ADVERSARY_ALIASES = {
    "theorem1": "theorem1-grid",
    "theorem3": "theorem3-gadget(2k-2)",
    "theorem5": "theorem5-reduction",
}


def _resolve_adversary(args: argparse.Namespace) -> Tuple[str, dict]:
    """(registry name, factory params) for the ``adversary`` positional."""
    name = args.adversary
    if name == "theorem2":
        return f"theorem2-{args.topology}", {}
    if name in _ADVERSARY_ALIASES:
        resolved = _ADVERSARY_ALIASES[name]
        params = {"k": args.k} if "theorem1" not in resolved else {}
        return resolved, params
    return name, {}


def cmd_adversary(args: argparse.Namespace) -> int:
    _require_serial(args, "adversary")
    name, params = _resolve_adversary(args)
    played = _play_one(args, name, args.victim, args.locality, **params)
    row, result = played.row, played.result
    print(f"{name} vs {row.victim} at T={args.locality}: {_verdict(row)}")
    print(f"  how: {row.reason}")
    if result.improper_edge is not None:
        print(f"  witness edge: {result.improper_edge}")
    for key, value in sorted(result.stats.items()):
        # Wall time differs run to run; --metrics reports it.
        if key != "game_seconds":
            print(f"  {key}: {value}")
    if args.metrics:
        _print_metrics()
    return 0 if row.won else 1


#: ``upper-bound`` algorithm -> (host family, its size param, colors).
_UPPER_BOUND_HOSTS = {
    "akbari": ("grid", "rows", 3),
    "unify-triangular": ("triangular", "side", 4),
}


def cmd_upper_bound(args: argparse.Namespace) -> int:
    _require_serial(args, "upper-bound")
    family, size_param, colors = _UPPER_BOUND_HOSTS[args.algorithm]
    size = {size_param: args.side}
    n = get_family(family)(**size).graph.num_nodes
    locality = args.locality
    if locality is None:  # the paper's budget for the algorithm
        locality = (
            3 * math.ceil(math.log2(n)) if args.algorithm == "akbari"
            else recommended_locality(3, 1, n)
        )
    played = _play_one(
        args, "scattered-order", args.algorithm, locality,
        policy=GamePolicy(timeout=args.timeout),
        family=family, seed=args.seed, colors=colors, **size,
    )
    row, result = played.row, played.result
    if not row.won:
        print(
            f"{args.algorithm}: proper {colors}-coloring of {n} nodes "
            f"at T={locality} under an adversarial order (seed {args.seed})"
        )
    else:
        print(
            f"{args.algorithm}: {_verdict(row)} on {n} nodes at "
            f"T={locality} (seed {args.seed})"
        )
        print(f"  how: {row.reason}")
        if result.improper_edge is not None:
            print(f"  witness edge: {result.improper_edge}")
        elif row.detail:
            print(f"  detail: {row.detail}")
    if args.metrics:
        _print_metrics()
    return 1 if row.won else 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate

    sys.stdout.write(generate())
    return 0


def cmd_tournament(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.analysis.tables import render_table
    from repro.analysis.tournament import forfeit_rows
    from repro.api import (
        CampaignSpec,
        SubmitRequest,
        clean_sweep,
        honest_rows,
        run_tournament,
    )

    spec = replace(
        CampaignSpec.tournament(args.locality, args.include_faulty),
        step_budget=args.step_budget,
        timeout=args.timeout,
    )
    if args.trace and os.path.exists(args.trace):
        os.remove(args.trace)  # a tournament trace describes one run
    rows = run_tournament(
        SubmitRequest(spec=spec, workers=args.workers), trace_path=args.trace
    )
    print(render_table(
        ["adversary", "victim", "T", "verdict", "how"],
        [[r.adversary, r.victim, r.locality, _verdict(r), r.reason]
         for r in rows],
    ))
    honest = honest_rows(rows)
    swept = clean_sweep(honest)
    forfeits = forfeit_rows(rows)
    print(
        f"\nclean sweep over honest victims: {swept} "
        f"({sum(r.won for r in honest)}/{len(honest)})"
    )
    if forfeits:
        print(f"forfeits: {len(forfeits)}")
        for row in forfeits:
            cause = row.error_type
            if row.failed_at_step is not None:
                cause += f" at step {row.failed_at_step}"
            print(f"  {row.adversary} vs {row.victim}: {row.reason}"
                  + (f" [{cause}]" if cause else "")
                  + (f" ({row.detail})" if row.detail else ""))
    if args.metrics:
        _print_metrics()
    return 0 if swept and all(r.won for r in rows) else 1


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import (
        CampaignError,
        CampaignSpec,
        load_campaign,
        run_campaign,
        run_threshold_search,
        threshold_table,
    )

    if args.require_store and not os.path.isdir(args.store):
        raise UserError(
            f"nothing to resume: no result store at {args.store!r} "
            "(start one with 'campaign run')"
        )
    if not os.path.exists(args.spec):
        raise UserError(f"no campaign spec at {args.spec!r}")
    try:
        spec = load_campaign(args.spec)
    except CampaignError as exc:
        raise UserError(str(exc)) from None

    if isinstance(spec, CampaignSpec):
        outcome = run_campaign(
            spec,
            args.store,
            workers=args.workers,
            max_games=args.max_games,
            retries=args.retries,
            trace_path=args.trace,
            max_worker_restarts=args.max_worker_restarts,
            poison_threshold=args.poison_threshold,
            chunk_size=args.chunk_size,
        )
    else:
        results, outcome = run_threshold_search(
            spec,
            args.store,
            workers=args.workers,
            max_games=args.max_games,
            retries=args.retries,
            trace_path=args.trace,
            max_worker_restarts=args.max_worker_restarts,
            poison_threshold=args.poison_threshold,
            chunk_size=args.chunk_size,
        )
        print(threshold_table(results))
        print()
    quarantined = [
        row for row in outcome.rows.values() if row.get("cause") == "poison"
    ]
    print(
        f"campaign {outcome.name}: {len(outcome.rows)}/{outcome.total} "
        f"games in store (played {outcome.played}, deduped "
        f"{outcome.deduped}, errors {len(outcome.errors)}, "
        f"quarantined {len(quarantined)})"
    )
    for row in quarantined:
        print(
            f"  quarantined: {row.get('adversary')} vs {row.get('victim')} "
            f"at T={row.get('locality')} ({row.get('detail', '')})"
        )
    for error in outcome.errors:
        print(f"  error: {error}")
    _print_phase_table(args.store)
    if args.metrics:
        _print_metrics()
    return 0 if not outcome.errors else 1


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.analysis.campaign import campaign_status
    from repro.analysis.store import ResultStore

    if not os.path.isdir(args.store):
        raise UserError(f"no result store at {args.store!r}")
    statuses, runs = campaign_status(args.store)
    print("campaigns:")
    if not statuses:
        print("  (no manifests recorded)")
    for status in statuses:
        if status.total is not None:
            progress = f"{status.done}/{status.total} games done"
        else:
            progress = f"{status.done} probes answered"
        line = f"  {status.name} [{status.kind}]: {progress}"
        if status.quarantined:
            line += f", {status.quarantined} quarantined"
        if status.detail:
            line += f" ({status.detail})"
        print(line)
    quarantined = ResultStore(args.store).quarantined()
    if quarantined:
        print(f"quarantined games ({len(quarantined)}, cause=poison):")
        for row in quarantined:
            print(
                f"  {row.get('adversary')} vs {row.get('victim')} "
                f"at T={row.get('locality')}"
            )
    print("runs:")
    if not runs:
        print("  (no runs recorded)")
    for run in runs:
        line = (
            f"  #{run.get('seq', '?')} {run.get('kind', '?')} "
            f"{run.get('campaign', '?')}: played {run.get('played', '?')}, "
            f"deduped {run.get('deduped', '?')}, "
            f"errors {run.get('errors', '?')}"
        )
        if run.get("wall_seconds") is not None:
            line += f", wall {run['wall_seconds']:.3f}s"
        if run.get("phase_coverage") is not None:
            line += f" ({run['phase_coverage']:.1%} attributed)"
        print(line)
    _print_phase_table(args.store)
    return 0


def cmd_campaign_watch(args: argparse.Namespace) -> int:
    import time

    from repro.observability.export import (
        read_live_status,
        render_live_status,
    )

    if not os.path.isdir(args.store):
        raise UserError(f"no result store at {args.store!r}")
    waited = False
    while True:
        status = read_live_status(args.store)
        if status is None:
            if args.once:
                print(f"(no live telemetry in {args.store}; is a "
                      "campaign running with live status enabled?)")
                return 1
            if not waited:
                print(f"waiting for live telemetry in {args.store} ...")
                waited = True
        else:
            print(render_live_status(status))
            if status.get("done") or args.once:
                return 0
            print()
        time.sleep(args.interval)


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.server import ColoringServer

    server = ColoringServer(
        args.store,
        args.host,
        args.port,
        rate=args.rate,
        burst=args.burst,
        drain_grace=args.drain_grace,
        trace_path=args.trace,
    )
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:  # pragma: no cover - ^C without a loop yet
        pass
    return 0


def _http_call(base, method, path, payload=None, timeout=30.0,
               client_id=None):
    """One JSON request against the server; returns (status, payload).

    HTTP-level failures come back as (status, error payload) so callers
    can map :class:`~repro.api.ErrorBody` codes to exit statuses;
    transport failures (server unreachable) are a :class:`UserError`.
    """
    import json as _json
    import urllib.error
    import urllib.request

    data = None if payload is None else _json.dumps(payload).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if client_id:
        headers["X-Client-Id"] = client_id
    request = urllib.request.Request(
        base + path, data=data, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, _json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        try:
            body = _json.loads(exc.read())
        except (ValueError, OSError):
            body = {"code": "internal", "message": str(exc)}
        return exc.code, body
    except (urllib.error.URLError, OSError) as exc:
        raise UserError(f"cannot reach server at {base!r}: {exc}") from None


def cmd_submit(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.campaign import CampaignError, load_campaign
    from repro.api import CampaignHandle, ErrorBody, SubmitRequest

    if not os.path.exists(args.spec):
        raise UserError(f"no campaign spec at {args.spec!r}")
    try:
        spec = load_campaign(args.spec)
        request = SubmitRequest(
            spec=spec,
            workers=args.workers if args.workers != 1 else None,
            max_games=args.max_games,
            retries=args.retries,
            chunk_size=args.chunk_size,
        )
    except CampaignError as exc:
        raise UserError(str(exc)) from None

    base = args.url.rstrip("/")
    status, payload = _http_call(
        base, "POST", "/v1/campaigns", request.to_payload(),
        timeout=args.http_timeout, client_id=args.client_id,
    )
    if status >= 400:
        error = ErrorBody.from_payload(payload)
        message = f"server rejected submission [{error.code}]: {error.message}"
        if error.code.startswith("bad-") or error.code == "unsupported-version":
            raise UserError(message)
        raise ReproError(message)
    handle = CampaignHandle.from_payload(payload)
    coalesced = " (coalesced onto the in-flight run)" if status == 200 else ""
    print(f"campaign {handle.id} [{handle.kind}] {handle.state}: "
          f"{handle.name}{coalesced}")

    if args.watch:
        while handle.state in ("queued", "running"):
            time.sleep(args.interval)
            status, payload = _http_call(
                base, "GET", f"/v1/campaigns/{handle.id}",
                timeout=args.http_timeout, client_id=args.client_id,
            )
            if status == 429:
                continue  # backed off by the sleep above
            if status >= 400:
                error = ErrorBody.from_payload(payload)
                raise ReproError(
                    f"status poll failed [{error.code}]: {error.message}"
                )
            handle = CampaignHandle.from_payload(payload)
            total = "?" if handle.total is None else handle.total
            print(f"  {handle.state}: {handle.done}/{total} games in store")
        summary = (
            f"campaign {handle.name} {handle.state}: played "
            f"{handle.played}, deduped {handle.deduped}, errors "
            f"{handle.errors}, quarantined {handle.quarantined}"
        )
        if handle.detail:
            summary += f" ({handle.detail})"
        print(summary)
        if handle.state == "failed":
            return 1

    if args.rows:
        import json as _json

        offset = 0
        while True:
            status, payload = _http_call(
                base, "GET",
                f"/v1/campaigns/{handle.id}/rows"
                f"?offset={offset}&limit={args.page_size}",
                timeout=args.http_timeout, client_id=args.client_id,
            )
            if status >= 400:
                error = ErrorBody.from_payload(payload)
                raise ReproError(
                    f"rows fetch failed [{error.code}]: {error.message}"
                )
            for row in payload.get("rows", []):
                print(_json.dumps(row, sort_keys=True))
            if payload.get("next_offset") is None:
                break
            offset = payload["next_offset"]
    return 0 if handle.errors == 0 else 1


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.observability.stats import aggregate_file, render_stats

    if args.live is not None:
        from repro.observability.export import (
            read_live_status,
            render_live_status,
        )

        if args.trace is not None:
            raise UserError(
                "--live reads a store's telemetry; drop the TRACE argument"
            )
        if not os.path.isdir(args.live):
            raise UserError(f"no result store at {args.live!r}")
        status = read_live_status(args.live)
        if status is None:
            raise UserError(
                f"no live telemetry in {args.live!r} (is a campaign "
                "running with live status enabled?)"
            )
        print(render_live_status(status))
        return 0

    if args.trace is None:
        raise UserError("stats needs a TRACE file (or --live STORE_DIR)")
    if not os.path.exists(args.trace):
        raise UserError(f"no trace file at {args.trace!r}")
    try:
        stats = aggregate_file(args.trace)
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        # A half-written or non-trace file is a bad invocation, not a
        # crash: report it under the usage-error convention.
        raise UserError(
            f"unreadable trace file {args.trace!r}: {exc}"
        ) from None

    if args.export is not None:
        from repro.observability.export import to_json, to_prometheus

        snapshot = stats.metrics.snapshot()
        if args.export == "prometheus":
            sys.stdout.write(to_prometheus(snapshot))
        else:
            print(to_json(snapshot))
        return 0
    print(render_stats(stats, top=args.top))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _run_flags() -> argparse.ArgumentParser:
    """The shared parent parser: every game-playing subcommand takes the
    same three run flags, declared exactly once."""
    flags = argparse.ArgumentParser(add_help=False)
    group = flags.add_argument_group("run flags")
    group.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a JSON-lines game trace to FILE (inspect with the "
        "stats subcommand)",
    )
    group.add_argument(
        "--metrics", action="store_true",
        help="print the metrics-registry totals after the run",
    )
    group.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="worker processes for sweeps (default 1 = serial; "
        "single-game commands reject N > 1)",
    )
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable reproduction of the PODC 2024 Online-LOCAL "
        "grid-coloring lower bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = _run_flags()

    adversary = sub.add_parser(
        "adversary", parents=[flags],
        help="run a lower-bound adversary",
    )
    adversary.add_argument(
        "adversary", metavar="ADVERSARY",
        help="a registered adversary name (see repro.registry) or one of "
        "the aliases theorem1/theorem2/theorem3/theorem5",
    )
    adversary.add_argument("--victim", default="greedy")
    adversary.add_argument("--locality", type=int, default=1)
    adversary.add_argument("--topology", default="torus",
                           choices=["torus", "cylinder"])
    adversary.add_argument("--k", type=int, default=3)
    adversary.set_defaults(func=cmd_adversary)

    upper = sub.add_parser(
        "upper-bound", parents=[flags],
        help="run an upper-bound algorithm",
    )
    upper.add_argument("algorithm", choices=list(_UPPER_BOUND_HOSTS))
    upper.add_argument("--side", type=int, default=16)
    upper.add_argument("--locality", type=int, default=None)
    upper.add_argument("--seed", type=int, default=0)
    upper.add_argument(
        "--timeout", type=float, default=None,
        help="wall-clock budget for the game in seconds (default: none)",
    )
    upper.set_defaults(func=cmd_upper_bound)

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md on stdout")
    report.set_defaults(func=cmd_report)

    tournament = sub.add_parser(
        "tournament", parents=[flags],
        help="run every adversary against every victim",
    )
    tournament.add_argument("--locality", type=int, default=1)
    tournament.add_argument(
        "--include-faulty", action="store_true",
        help="add the fault-injection victim family to the sweep",
    )
    tournament.add_argument(
        "--step-budget", type=int, default=None,
        help="max algorithm steps per game",
    )
    tournament.add_argument(
        "--timeout", type=float, default=30.0,
        help="wall-clock budget per game in seconds (default 30)",
    )
    tournament.set_defaults(func=cmd_tournament)

    campaign = sub.add_parser(
        "campaign", help="run declarative campaigns against a result store"
    )
    csub = campaign.add_subparsers(dest="campaign_command", required=True)
    for name, require_store, chelp in (
        ("run", False,
         "run a campaign spec (resumes automatically if the store exists)"),
        ("resume", True,
         "resume an interrupted campaign (requires an existing store)"),
    ):
        cmd = csub.add_parser(name, parents=[flags], help=chelp)
        cmd.add_argument(
            "spec", metavar="SPEC", help="campaign spec file (.json or .toml)"
        )
        cmd.add_argument(
            "--store", required=True, metavar="DIR",
            help="content-addressed result store directory",
        )
        cmd.add_argument(
            "--max-games", type=_positive_int, default=None, metavar="N",
            help="stop after playing N new games (dedupes don't count)",
        )
        cmd.add_argument(
            "--retries", type=_non_negative_int, default=1,
            help="re-attempts after the first, for a game whose exception "
            "escapes the supervisor, before recording an error (default 1)",
        )
        cmd.add_argument(
            "--max-worker-restarts", type=int, default=None, metavar="N",
            help="worker respawns before the pool degrades to in-process "
            "serial execution (default: max(8, 2×workers))",
        )
        cmd.add_argument(
            "--poison-threshold", type=_positive_int, default=3, metavar="N",
            help="worker kills/hangs one game may cause before it is "
            "quarantined as a forfeit:poison row (default 3)",
        )
        cmd.add_argument(
            "--chunk-size", type=_positive_int, default=None, metavar="N",
            help="games per worker lease, and per store write on the "
            "serial path (default: adaptive — large chunks while the "
            "queue is deep, halving toward 1 at the tail); a SIGKILL "
            "loses at most each writer's in-flight chunk, so 1 gives "
            "per-game durability",
        )
        cmd.set_defaults(func=cmd_campaign_run, require_store=require_store)
    status = csub.add_parser(
        "status", help="report store progress, the run ledger, and the "
        "latest phase-attribution table"
    )
    status.add_argument(
        "--store", required=True, metavar="DIR",
        help="content-addressed result store directory",
    )
    status.set_defaults(func=cmd_campaign_status)
    watch = csub.add_parser(
        "watch", help="follow an in-flight campaign's live telemetry"
    )
    watch.add_argument(
        "--store", required=True, metavar="DIR",
        help="content-addressed result store directory",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="seconds between polls of the live status file (default 1)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render the current status once and exit (status 1 if no "
        "telemetry has been written yet)",
    )
    watch.set_defaults(func=cmd_campaign_watch)

    serve = sub.add_parser(
        "serve", help="serve the campaign engine over HTTP "
        "(coloring-as-a-service; see docs/serving.md)"
    )
    serve.add_argument(
        "--store", required=True, metavar="DIR",
        help="content-addressed result store the server runs against",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8423,
        help="TCP port (0 = ephemeral; the bound port is printed on "
        "startup either way, default 8423)",
    )
    serve.add_argument(
        "--rate", type=float, default=20.0, metavar="R",
        help="per-client request budget in requests/second "
        "(0 disables rate limiting, default 20)",
    )
    serve.add_argument(
        "--burst", type=int, default=40, metavar="N",
        help="per-client burst allowance on top of --rate (default 40)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="S",
        help="seconds a SIGTERM drain waits for the in-flight campaign "
        "(default 10)",
    )
    serve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a JSON-lines trace of served campaigns to FILE",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a campaign spec to a running repro server"
    )
    submit.add_argument(
        "spec", metavar="SPEC", help="campaign spec file (.json or .toml)"
    )
    submit.add_argument(
        "--url", required=True, metavar="URL",
        help="server base URL (e.g. http://127.0.0.1:8423)",
    )
    submit.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help="worker processes the server should use for this campaign",
    )
    submit.add_argument(
        "--max-games", type=_positive_int, default=None, metavar="N",
        help="stop after playing N new games (dedupes don't count)",
    )
    submit.add_argument(
        "--retries", type=_non_negative_int, default=1,
        help="re-attempts after the first, for a game whose exception "
        "escapes the supervisor, before recording an error (default 1)",
    )
    submit.add_argument(
        "--chunk-size", type=_positive_int, default=None, metavar="N",
        help="games per worker lease, and per store write on the "
        "serial path (default: adaptive); 1 gives per-game durability",
    )
    submit.add_argument(
        "--watch", action="store_true",
        help="poll the campaign handle until it finishes and print "
        "progress",
    )
    submit.add_argument(
        "--rows", action="store_true",
        help="after submitting (and watching, if --watch), page through "
        "the campaign's rows and print them as JSON lines",
    )
    submit.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="seconds between --watch polls (default 1)",
    )
    submit.add_argument(
        "--page-size", type=_positive_int, default=100, metavar="N",
        help="rows per page for --rows (default 100)",
    )
    submit.add_argument(
        "--client-id", default=None, metavar="ID",
        help="X-Client-Id header value (rate-limit identity)",
    )
    submit.add_argument(
        "--http-timeout", type=float, default=30.0, metavar="S",
        help="per-request HTTP timeout in seconds (default 30)",
    )
    submit.set_defaults(func=cmd_submit)

    stats = sub.add_parser(
        "stats", help="summarize a trace recorded with --trace, export "
        "its metrics, or render live campaign telemetry"
    )
    stats.add_argument(
        "trace", metavar="TRACE", nargs="?", default=None,
        help="trace file to read (omit with --live)",
    )
    stats.add_argument(
        "--top", type=_positive_int, default=5, metavar="N",
        help="slowest games to list (default 5)",
    )
    stats.add_argument(
        "--export", choices=["prometheus", "json"], default=None,
        help="emit the trace's folded metrics snapshot in this format "
        "instead of the report",
    )
    stats.add_argument(
        "--live", default=None, metavar="DIR",
        help="render the live telemetry of the campaign running against "
        "this result store instead of reading a trace",
    )
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UserError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
