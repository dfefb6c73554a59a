"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_adversary_theorem1(capsys):
    code = main(["adversary", "theorem1", "--victim", "greedy", "--locality", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "DEFEATED" in out
    assert "witness edge" in out


def test_adversary_theorem2(capsys):
    code = main(
        ["adversary", "theorem2", "--victim", "akbari", "--locality", "1",
         "--topology", "cylinder"]
    )
    assert code == 0
    assert "DEFEATED" in capsys.readouterr().out


def test_adversary_theorem3(capsys):
    code = main(["adversary", "theorem3", "--victim", "greedy", "--k", "3"])
    assert code == 0
    assert "DEFEATED" in capsys.readouterr().out


def test_adversary_theorem5(capsys):
    code = main(["adversary", "theorem5", "--k", "3", "--locality", "1"])
    assert code == 0
    assert "DEFEATED" in capsys.readouterr().out


def test_upper_bound_akbari(capsys):
    code = main(["upper-bound", "akbari", "--side", "10"])
    assert code == 0
    assert "proper 3-coloring" in capsys.readouterr().out


def test_upper_bound_unify(capsys):
    code = main(["upper-bound", "unify-triangular", "--side", "8"])
    assert code == 0
    assert "proper 4-coloring" in capsys.readouterr().out


def test_unknown_victim_rejected(capsys):
    """Bad invocations exit 2 with a normalized error line, not a raw
    SystemExit message."""
    code = main(["adversary", "theorem1", "--victim", "quantum"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "quantum" in err


def test_adversary_trace_and_stats(capsys, tmp_path):
    trace = tmp_path / "t.jsonl"
    code = main(
        ["adversary", "theorem1", "--victim", "greedy", "--locality", "1",
         "--trace", str(trace), "--metrics"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "reveals_total" in out  # --metrics table
    assert trace.exists()

    code = main(["stats", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "reveals total:" in out
    assert "games by adversary:" in out
    assert "theorem1" in out
    assert "ball cache hit rate:" in out


def test_stats_missing_file_rejected(capsys, tmp_path):
    code = main(["stats", str(tmp_path / "absent.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.startswith("repro: error:")


def test_stats_corrupt_trace_rejected(capsys, tmp_path):
    """A non-trace file must exit 2 as a usage error, not crash."""
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\x80\x81 not a trace\n")
    code = main(["stats", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "unreadable trace file" in err


def test_stats_without_trace_or_live_rejected(capsys):
    code = main(["stats"])
    assert code == 2
    assert "TRACE" in capsys.readouterr().err


def test_stats_export_formats(capsys, tmp_path):
    import json

    trace = tmp_path / "t.jsonl"
    assert main(
        ["adversary", "theorem1", "--locality", "1", "--trace", str(trace)]
    ) == 0
    capsys.readouterr()

    assert main(["stats", str(trace), "--export", "prometheus"]) == 0
    prom = capsys.readouterr().out
    assert "# TYPE repro_reveals_total counter" in prom

    assert main(["stats", str(trace), "--export", "json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["counters"]["reveals_total"] > 0


@pytest.mark.parametrize("workers", ("1", "2"))
def test_campaign_phase_table_status_watch_and_live(capsys, tmp_path, workers):
    """One timed campaign run feeds the whole telemetry surface: the
    phase table after run and under status, watch --once, stats --live."""
    spec = tmp_path / "c.json"
    spec.write_text(
        '{"kind": "sweep", "name": "cli-telemetry", '
        '"adversaries": ["theorem1-grid"], "victims": ["greedy"], '
        '"localities": [1]}'
    )
    store = str(tmp_path / "store")
    code = main(
        ["campaign", "run", str(spec), "--store", store, "--workers", workers]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "phase attribution" in out
    assert "* top-level phases:" in out

    assert main(["campaign", "status", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "phase attribution" in out
    assert "wall" in out and "attributed" in out  # ledger line extras

    assert main(["campaign", "watch", "--store", store, "--once"]) == 0
    out = capsys.readouterr().out
    assert "campaign finished" in out
    assert "played 1" in out

    assert main(["stats", "--live", store]) == 0
    assert "campaign finished" in capsys.readouterr().out


def test_campaign_run_always_prints_phase_table(capsys, tmp_path):
    """Phase timing is always on: every run and resume prints its table."""
    spec = tmp_path / "c.json"
    spec.write_text(
        '{"kind": "sweep", "name": "timed", '
        '"adversaries": ["theorem1-grid"], "victims": ["greedy"], '
        '"localities": [1]}'
    )
    store = str(tmp_path / "store")
    for command in ("run", "resume"):
        code = main(["campaign", command, str(spec), "--store", store])
        assert code == 0
        out = capsys.readouterr().out
        assert "phase attribution" in out
        assert "spec-expand*" in out


@pytest.mark.parametrize("argv", [
    ["campaign", "run", "s.json", "--store", "d", "--timers"],
    ["campaign", "run", "s.json", "--store", "d", "--no-timers"],
    ["campaign", "resume", "s.json", "--store", "d", "--no-timers"],
    ["submit", "s.json", "--url", "http://127.0.0.1:1", "--timers"],
])
def test_timing_switch_flags_are_gone(capsys, argv):
    """Phase timing has no switch: the flags are unknown arguments
    (argparse's status 2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_stats_live_without_telemetry_rejected(capsys, tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    assert main(["stats", "--live", str(store)]) == 2
    assert "no live telemetry" in capsys.readouterr().err


def test_campaign_watch_once_without_telemetry(capsys, tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    assert main(["campaign", "watch", "--store", str(store), "--once"]) == 1
    assert "no live telemetry" in capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_tournament_subcommand(capsys):
    code = main(["tournament", "--locality", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "clean sweep over honest victims: True" in out
    assert "(fixed)" in out  # theorem5 plays once, not per victim


def test_fast_examples_run(capsys):
    """Smoke: the fast example scripts execute end to end."""
    import runpy
    import sys

    for script in (
        "examples/bvalue_tour.py",
        "examples/quickstart.py",
        "examples/hierarchy_reduction.py",
    ):
        saved_argv = sys.argv
        sys.argv = [script]
        try:
            runpy.run_path(script, run_name="__main__")
        finally:
            sys.argv = saved_argv
    out = capsys.readouterr().out
    assert "Lemma 3.3" in out
    assert "Proper 3-coloring" in out
    # The clique-chain oracle at the full Theorem 4 budget, then the
    # reduced colorers of G_3 and G_4 against the grid adversary.
    assert "4-coloring at T=45 is proper" in out
    assert out.count("DEFEATED") == 4


def test_top_level_api_exports():
    """The package-level convenience API resolves and works."""
    import repro

    grid = repro.SimpleGrid(6, 6)
    sim = repro.OnlineLocalSimulator(
        grid.graph, repro.AkbariBipartiteColoring(), locality=12, num_colors=3
    )
    coloring = sim.run(sorted(grid.graph.nodes()))
    repro.assert_proper(grid.graph, coloring, max_colors=3)
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_tournament_resume_without_journal_rejected(capsys):
    """Sweeps resume from a campaign store, not a journal: a stale
    --resume must fail loudly, not be ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["tournament", "--resume"])
    assert exc.value.code == 2
    assert "--resume" in capsys.readouterr().err


def test_tournament_parallel_matches_serial_output(capsys, tmp_path):
    code = main(["tournament", "--locality", "1"])
    assert code == 0
    serial_out = capsys.readouterr().out
    code = main(["tournament", "--locality", "1", "--workers", "2"])
    assert code == 0
    parallel_out = capsys.readouterr().out
    assert parallel_out == serial_out


def test_tournament_serial_trace_reports_cache_hit_rate(capsys, tmp_path):
    """The serial path folds every game's metrics into the trace's final
    snapshot, and a rerun replaces the trace rather than appending: the
    second run's metrics count its own games, not the process's."""
    from repro.observability.stats import aggregate
    from repro.observability.trace import read_trace

    trace = tmp_path / "t.jsonl"
    for _ in range(2):
        code = main(["tournament", "--locality", "1", "--trace", str(trace)])
        assert code == 0
    records = read_trace(trace)
    games = [r for r in records
             if r["type"] == "span-start" and r.get("kind") == "game"]
    assert len(games) == 16
    folded = aggregate(records).metrics
    assert folded.counter("campaign_games_played").value == 16
    capsys.readouterr()
    code = main(["stats", str(trace)])
    assert code == 0
    assert "ball cache hit rate:" in capsys.readouterr().out


def test_tournament_workers_rejects_non_positive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["tournament", "--workers", "0"])


def test_campaign_retries_zero_plays_a_failing_game_once(capsys, tmp_path):
    """``--retries 0`` means no re-attempt: an adversary that always
    raises is built once and recorded as one error."""
    from repro.registry import ADVERSARIES

    calls = []

    @ADVERSARIES.register("test-always-raises")
    def _always_raises(locality, **params):
        calls.append(locality)
        raise RuntimeError("rigged to fail")

    spec = tmp_path / "c.json"
    spec.write_text(
        '{"version": 1, "kind": "sweep", "name": "no-retries", '
        '"adversaries": ["test-always-raises"], "victims": ["greedy"], '
        '"localities": [1]}'
    )
    try:
        code = main([
            "campaign", "run", str(spec), "--store", str(tmp_path / "s"),
            "--retries", "0",
        ])
    finally:
        ADVERSARIES.unregister("test-always-raises")
    assert code == 1
    assert calls == [1]
    out = capsys.readouterr().out
    assert "played 0, deduped 0, errors 1" in out
    assert "RuntimeError: rigged to fail" in out


def test_retries_rejects_negative():
    for argv in (
        ["campaign", "run", "s.json", "--store", "d", "--retries", "-1"],
        ["submit", "s.json", "--url", "http://x", "--retries", "-1"],
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
    args = build_parser().parse_args(
        ["submit", "s.json", "--url", "http://x", "--retries", "0"]
    )
    assert args.retries == 0


def test_adversary_registry_name_and_alias_agree(capsys):
    code = main(["adversary", "theorem1-grid", "--locality", "1"])
    assert code == 0
    direct = capsys.readouterr().out
    code = main(["adversary", "theorem1", "--locality", "1"])
    assert code == 0
    assert capsys.readouterr().out == direct


def test_adversary_rejects_parallel_workers(capsys):
    code = main(["adversary", "theorem1", "--workers", "2"])
    assert code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["adversary", "theorem1", "--journal", "j.jsonl"],
    ["adversary", "theorem1", "--resume"],
    ["upper-bound", "akbari", "--journal", "j.jsonl"],
    ["upper-bound", "akbari", "--resume"],
    ["upper-bound", "akbari", "--retries", "2"],
])
def test_single_game_commands_keep_no_record(capsys, argv):
    """Single games keep no journal and never reseed: the flags are
    unknown arguments (argparse's status 2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


#: Verdicts of single-game commands, recorded when they still played
#: outside the campaign engine: (argv, first output line, reason, witness
#: edge).  Upper-bound runs that survive print no reason and no edge.
PINNED_SINGLE_GAMES = [
    (["adversary", "theorem1", "--victim", "greedy", "--locality", "1"],
     "theorem1-grid vs greedy at T=1: DEFEATED",
     "monochromatic-edge", "((5, 10), (6, 10))"),
    (["adversary", "theorem1", "--victim", "akbari", "--locality", "2"],
     "theorem1-grid vs akbari at T=2: DEFEATED",
     "monochromatic-edge", "((4, 16), (4, 17))"),
    (["adversary", "theorem2", "--topology", "torus", "--locality", "1"],
     "theorem2-torus vs greedy at T=1: DEFEATED",
     "monochromatic-edge", "((0, 1), (8, 1))"),
    (["adversary", "theorem2", "--topology", "cylinder", "--locality", "1"],
     "theorem2-cylinder vs greedy at T=1: DEFEATED",
     "monochromatic-edge", "((0, 7), (0, 8))"),
    (["adversary", "theorem3", "--k", "3", "--locality", "1"],
     "theorem3-gadget(2k-2) vs greedy at T=1: DEFEATED",
     "monochromatic-edge", "((2, 0, 0), (3, 2, 1))"),
    (["adversary", "theorem3", "--k", "4", "--locality", "1"],
     "theorem3-gadget(2k-2) vs greedy at T=1: DEFEATED",
     "monochromatic-edge", "((2, 0, 0), (3, 2, 1))"),
    (["adversary", "corollary13-gadget(k+1)", "--victim", "local-canonical",
      "--locality", "1"],
     "corollary13-gadget(k+1) vs local-canonical at T=1: DEFEATED",
     "monochromatic-edge", "((0, 0, 1), (0, 1, 0))"),
    (["adversary", "theorem5", "--k", "3", "--locality", "1"],
     "theorem5-reduction vs (fixed) at T=1: DEFEATED",
     "monochromatic-edge", "((2, 5), (2, 6))"),
    (["upper-bound", "akbari"],
     "akbari: proper 3-coloring of 256 nodes at T=24 under an adversarial "
     "order (seed 0)", None, None),
    (["upper-bound", "unify-triangular"],
     "unify-triangular: proper 4-coloring of 151 nodes at T=49 under an "
     "adversarial order (seed 0)", None, None),
]


@pytest.mark.parametrize(
    "argv, verdict, reason, edge", PINNED_SINGLE_GAMES,
    ids=[" ".join(case[0]) for case in PINNED_SINGLE_GAMES],
)
def test_single_game_verdicts_are_pinned(capsys, argv, verdict, reason, edge):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == verdict
    if reason is not None:
        assert f"  how: {reason}" in lines
    witness = [line for line in lines if line.startswith("  witness edge:")]
    assert witness == ([f"  witness edge: {edge}"] if edge else [])


def test_adversary_params_reach_the_game(capsys):
    """--k changes the game: k = 4 is a larger gadget chain."""
    for k, n in (("3", 45), ("4", 80)):
        assert main(["adversary", "theorem3", "--k", k]) == 0
        assert f"  declared_n: {n}" in capsys.readouterr().out


def test_upper_bound_below_threshold_is_a_verdict(capsys):
    """A failing order is a defeat with its witness, not a traceback."""
    code = main(["upper-bound", "akbari", "--side", "10", "--locality", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "akbari: DEFEATED on 100 nodes at T=1 (seed 0)"
    assert "  how: monochromatic-edge" in out
    assert "  witness edge: ((0, 0), (1, 0))" in out


def test_upper_bound_timeout_is_a_forfeit(capsys):
    code = main(["upper-bound", "akbari", "--side", "10", "--timeout", "1e-9"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FORFEIT" in out
    assert "  how: forfeit:timeout" in out
    assert "  detail: " in out


def test_upper_bound_game_runs_as_a_campaign(tmp_path, monkeypatch, capsys):
    """The registered upper-bound game plays in a campaign, dedupes on a
    rerun, and its stored row is the row ``repro upper-bound`` prints
    from."""
    import repro.api as api

    spec = api.CampaignSpec(
        name="one-upper-bound-game",
        adversaries=(api.AdversaryRef.of({
            "name": "scattered-order",
            "params": {"family": "grid", "rows": 10, "seed": 0, "colors": 3},
        }),),
        victims=("akbari",),
        localities=(1,),
    )
    store = tmp_path / "store"
    first = api.run_campaign(api.SubmitRequest(spec=spec), store)
    second = api.run_campaign(api.SubmitRequest(spec=spec), store)
    assert (first.played, second.played, second.deduped) == (1, 0, 1)
    (stored,) = second.rows.values()

    printed = []
    play_game = api._play_game

    def spy(*args, **kwargs):
        played = play_game(*args, **kwargs)
        printed.append(played.row)
        return played

    monkeypatch.setattr(api, "_play_game", spy)
    assert main(["upper-bound", "akbari", "--side", "10", "--locality", "1"]) == 1
    capsys.readouterr()
    (row,) = printed
    fields = ("won", "reason", "forfeit", "n")
    assert {f: stored[f] for f in fields} == {f: getattr(row, f) for f in fields}
    assert (row.won, row.reason, row.n) == (True, "monochromatic-edge", 100)


def test_checked_in_upper_bound_spec(tmp_path):
    from repro.analysis.campaign import covered_rows, load_campaign, run_campaign

    spec = load_campaign("examples/campaigns/upper-bound.json")
    outcome = run_campaign(spec, tmp_path / "store")
    rows = covered_rows(spec, outcome.rows)
    assert [(r["locality"], r["won"], r["reason"]) for r in rows] == [
        (1, True, "monochromatic-edge"),
        (2, True, "monochromatic-edge"),
        (21, False, "survived"),
    ]


def _write_smoke_spec(tmp_path):
    spec = tmp_path / "c.json"
    spec.write_text(
        '{"kind": "sweep", "name": "cli-smoke",'
        ' "adversaries": ["theorem1-grid"], "victims": ["greedy"],'
        ' "localities": [0, 1]}'
    )
    return str(spec)


def test_campaign_run_resume_status(capsys, tmp_path):
    spec = _write_smoke_spec(tmp_path)
    store = str(tmp_path / "store")
    code = main(["campaign", "run", spec, "--store", store])
    assert code == 0
    assert "played 2, deduped 0" in capsys.readouterr().out
    code = main(["campaign", "resume", spec, "--store", store])
    assert code == 0
    assert "played 0, deduped 2" in capsys.readouterr().out
    code = main(["campaign", "status", "--store", store])
    assert code == 0
    out = capsys.readouterr().out
    assert "cli-smoke [sweep]: 2/2 games done" in out
    assert "played 0, deduped 2" in out  # the run ledger shows zero replays


def test_campaign_rejects_journal_flag(capsys, tmp_path):
    """Campaigns persist to --store; --journal is a usage error."""
    spec = _write_smoke_spec(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["campaign", "run", spec, "--store", str(tmp_path / "s"),
              "--journal", "j.jsonl"])
    assert exc.value.code == 2


def test_campaign_resume_needs_existing_store(capsys, tmp_path):
    spec = _write_smoke_spec(tmp_path)
    code = main(["campaign", "resume", spec, "--store",
                 str(tmp_path / "missing")])
    assert code == 2
    assert "nothing to resume" in capsys.readouterr().err


def test_campaign_status_needs_existing_store(capsys, tmp_path):
    code = main(["campaign", "status", "--store", str(tmp_path / "missing")])
    assert code == 2
    assert "no result store" in capsys.readouterr().err


def test_campaign_threshold_spec_prints_table(capsys, tmp_path):
    spec = tmp_path / "t.json"
    spec.write_text(
        '{"kind": "threshold", "name": "cli-threshold",'
        ' "adversaries": ["theorem1-grid"], "victims": ["greedy"],'
        ' "low": 0, "high": 1}'
    )
    code = main(["campaign", "run", str(spec), "--store",
                 str(tmp_path / "store")])
    assert code == 0
    out = capsys.readouterr().out
    assert "threshold T" in out
    assert ">1" in out


def test_campaign_parser_accepts_pool_robustness_flags(tmp_path):
    args = build_parser().parse_args(
        ["campaign", "run", "spec.json", "--store", "s",
         "--max-worker-restarts", "5", "--poison-threshold", "2"]
    )
    assert args.max_worker_restarts == 5
    assert args.poison_threshold == 2
    # Defaults: unlimited-by-policy restarts (pool picks), threshold 3.
    args = build_parser().parse_args(["campaign", "resume", "spec.json",
                                      "--store", "s"])
    assert args.max_worker_restarts is None
    assert args.poison_threshold == 3
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign", "run", "spec.json",
                                   "--store", "s", "--poison-threshold", "0"])


def test_campaign_status_reports_quarantined_games(capsys, tmp_path):
    from repro.analysis.campaign import CampaignSpec, hash_of
    from repro.analysis.store import ResultStore
    from repro.analysis.worker_pool import quarantine_row

    spec = _write_smoke_spec(tmp_path)
    store = str(tmp_path / "store")
    assert main(["campaign", "run", spec, "--store", store]) == 0
    capsys.readouterr()
    # Simulate a poison game by quarantining one finished row.
    expanded = CampaignSpec.from_dict(
        __import__("json").load(open(spec))
    ).expand()
    digest = hash_of(expanded[0])
    ResultStore(store).add(quarantine_row(digest, expanded[0], losses=3))
    assert main(["campaign", "status", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "1 quarantined" in out
    assert "cause=poison" in out


def test_campaign_run_rejects_unknown_spec_version(capsys, tmp_path):
    spec = tmp_path / "future.json"
    spec.write_text('{"version": 99, "kind": "sweep", "victims": ["greedy"]}')
    code = main(["campaign", "run", str(spec), "--store",
                 str(tmp_path / "store")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "version 99" in err


def test_campaign_run_rejects_unknown_spec_field(capsys, tmp_path):
    spec = tmp_path / "typo.json"
    spec.write_text('{"version": 1, "kind": "sweep", "victms": ["greedy"]}')
    code = main(["campaign", "run", str(spec), "--store",
                 str(tmp_path / "store")])
    assert code == 2
    assert "victms" in capsys.readouterr().err


def test_versionless_spec_still_runs_with_warning(capsys, tmp_path):
    import pytest as _pytest

    spec = _write_smoke_spec(tmp_path)  # deliberately versionless
    with _pytest.warns(FutureWarning, match="no 'version' field"):
        code = main(["campaign", "run", spec, "--store",
                     str(tmp_path / "store")])
    assert code == 0


def test_submit_unreachable_server_is_a_usage_error(capsys, tmp_path):
    spec = _write_smoke_spec(tmp_path)
    # A port from the ephemeral range with nothing listening.
    code = main(["submit", spec, "--url", "http://127.0.0.1:1",
                 "--http-timeout", "2"])
    assert code == 2
    assert "cannot reach server" in capsys.readouterr().err


def test_submit_rejects_missing_spec(capsys, tmp_path):
    code = main(["submit", str(tmp_path / "nope.json"),
                 "--url", "http://127.0.0.1:1"])
    assert code == 2
    assert "no campaign spec" in capsys.readouterr().err


def test_serve_and_submit_round_trip(capsys, tmp_path):
    """The CLI pair end to end: serve in a thread, submit from the test
    process, watch to completion, page rows."""
    import asyncio
    import json as _json
    import threading

    from repro.server import ColoringServer

    spec = tmp_path / "c.json"
    spec.write_text(_json.dumps({
        "version": 1, "kind": "sweep", "name": "cli-serve-smoke",
        "adversaries": ["theorem1-grid"], "victims": ["greedy"],
        "localities": [0, 1],
    }))
    store = tmp_path / "store"
    started = threading.Event()
    box = {}

    def run_server():
        async def scenario():
            server = ColoringServer(store, port=0, rate=0)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await server._stopped.wait()

        asyncio.run(scenario())

    thread = threading.Thread(target=run_server)
    thread.start()
    try:
        assert started.wait(timeout=10)
        url = f"http://127.0.0.1:{box['server'].port}"
        code = main(["submit", str(spec), "--url", url, "--watch", "--rows",
                     "--interval", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign cli-serve-smoke done: played 2" in out
        rows = [_json.loads(line) for line in out.splitlines()
                if line.startswith("{")]
        assert [row["locality"] for row in rows] == [0, 1]
    finally:
        box["loop"].call_soon_threadsafe(box["server"].request_drain)
        thread.join(timeout=30)
    assert not thread.is_alive()
