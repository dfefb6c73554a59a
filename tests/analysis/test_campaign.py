"""Tests for the campaign engine: spec expansion, store dedupe,
kill-and-resume, and the adaptive threshold search."""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.analysis.campaign import (
    AdversaryRef,
    CampaignError,
    CampaignSpec,
    ThresholdSearchSpec,
    _Bisection,
    campaign_from_dict,
    campaign_status,
    hash_of,
    load_campaign,
    run_campaign,
    run_threshold_search,
    threshold_table,
)
from repro.analysis.store import ResultStore
from repro.observability.metrics import scoped_registry
from repro.registry import FIXED_VICTIM

#: A two-adversary, two-victim, two-locality sweep: 8 fast games.
SMALL = dict(
    name="small",
    adversaries=("theorem1-grid", "theorem2-cylinder"),
    victims=("greedy", "akbari"),
    localities=(0, 1),
)


# ----------------------------------------------------------------------
# Spec construction and expansion
# ----------------------------------------------------------------------


def test_expansion_is_deterministic():
    one = CampaignSpec(**SMALL).expand()
    two = CampaignSpec(**SMALL).expand()
    assert [hash_of(s) for s in one] == [hash_of(s) for s in two]
    assert len(one) == 8
    # Locality-major, then adversary, then victim.
    assert [(s.locality, s.adversary, s.victim) for s in one[:3]] == [
        (0, "theorem1-grid", "greedy"),
        (0, "theorem1-grid", "akbari"),
        (0, "theorem2-cylinder", "greedy"),
    ]


def test_expansion_plays_fixed_victim_once():
    spec = CampaignSpec(
        adversaries=("theorem5-reduction",), victims=("greedy", "akbari")
    )
    games = spec.expand()
    assert len(games) == 1
    assert games[0].victim == FIXED_VICTIM


def test_tournament_is_a_prebaked_campaign():
    spec = CampaignSpec.tournament(locality=1)
    games = spec.expand()
    assert spec.name == "tournament(T=1)"
    assert all(game.locality == 1 for game in games)


def test_from_dict_round_trips_through_payload():
    spec = CampaignSpec(**SMALL)
    again = campaign_from_dict(spec.to_payload())
    assert again == spec
    assert [hash_of(s) for s in again.expand()] == [
        hash_of(s) for s in spec.expand()
    ]


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(CampaignError, match="unknown campaign spec fields"):
        CampaignSpec.from_dict({"name": "x", "adversarys": []})
    with pytest.raises(CampaignError, match="unknown campaign kind"):
        campaign_from_dict({"kind": "mystery"})


def test_locality_range_expansion():
    spec = CampaignSpec.from_dict(
        {"localities": {"start": 0, "stop": 6, "step": 2}}
    )
    assert spec.localities == (0, 2, 4, 6)
    with pytest.raises(CampaignError, match="locality range"):
        CampaignSpec.from_dict({"localities": {"start": 0}})


def test_adversary_ref_forms():
    assert AdversaryRef.of("theorem1-grid") == AdversaryRef("theorem1-grid")
    ref = AdversaryRef.of(
        {"name": "theorem3-gadget(2k-2)", "params": {"k": 4}}
    )
    assert ref.params == (("k", 4),)
    assert ref.label() == "theorem3-gadget(2k-2)[k=4]"
    with pytest.raises(CampaignError):
        AdversaryRef.of({"params": {"k": 4}})


def test_validate_rejects_unknown_names():
    with pytest.raises(Exception, match="unknown adversary"):
        CampaignSpec(adversaries=("nope",)).validate()


def test_load_campaign_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        '{"kind": "threshold", "adversaries": ["theorem1-grid"], '
        '"victims": ["greedy"], "low": 0, "high": 3}'
    )
    spec = load_campaign(path)
    assert isinstance(spec, ThresholdSearchSpec)
    assert (spec.low, spec.high) == (0, 3)
    with pytest.raises(CampaignError, match="no campaign spec"):
        load_campaign(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# Hash semantics
# ----------------------------------------------------------------------


def test_hash_excludes_run_plumbing():
    """Timeout and trace path are machine properties, not game
    identity — changing them must not invalidate stored rows."""
    fast = CampaignSpec(**SMALL, timeout=1.0).expand()
    slow = CampaignSpec(**SMALL, timeout=99.0).expand(trace_path="t.jsonl")
    assert [hash_of(s) for s in fast] == [hash_of(s) for s in slow]


def test_hash_includes_step_budget_and_params():
    plain = CampaignSpec(**SMALL).expand()
    budgeted = CampaignSpec(**SMALL, step_budget=10).expand()
    assert hash_of(plain[0]) != hash_of(budgeted[0])
    small_k = ThresholdSearchSpec(
        adversaries=(AdversaryRef.of(
            {"name": "theorem3-gadget(2k-2)", "params": {"k": 3}}
        ),),
        victims=("greedy",),
    )
    big_k = ThresholdSearchSpec(
        adversaries=(AdversaryRef.of(
            {"name": "theorem3-gadget(2k-2)", "params": {"k": 4}}
        ),),
        victims=("greedy",),
    )
    assert hash_of(
        small_k.game(small_k.adversaries[0], "greedy", 1)
    ) != hash_of(big_k.game(big_k.adversaries[0], "greedy", 1))


# ----------------------------------------------------------------------
# Store dedupe and budgeted resume
# ----------------------------------------------------------------------


def test_second_run_plays_nothing(tmp_path):
    spec = CampaignSpec(**SMALL)
    first = run_campaign(spec, tmp_path / "store")
    assert (first.played, first.deduped) == (8, 0)
    assert not first.errors
    second = run_campaign(spec, tmp_path / "store")
    assert (second.played, second.deduped) == (0, 8)
    assert second.rows == first.rows


def test_overlapping_campaigns_share_rows(tmp_path):
    """A different spec covering some of the same games dedupes them."""
    run_campaign(CampaignSpec(**SMALL), tmp_path / "store")
    overlap = CampaignSpec(
        name="overlap",
        adversaries=("theorem1-grid",),
        victims=("greedy", "akbari", "local-canonical"),
        localities=(1,),
    )
    outcome = run_campaign(overlap, tmp_path / "store")
    assert outcome.deduped == 2  # greedy/akbari at T=1 came from `small`
    assert outcome.played == 1  # only local-canonical was new


def test_budgeted_runs_converge_to_uninterrupted(tmp_path):
    """Stopping after max_games and re-running reaches the exact store an
    uninterrupted run produces, with zero games replayed."""
    spec = CampaignSpec(**SMALL)
    reference = run_campaign(spec, tmp_path / "ref")

    partial = run_campaign(spec, tmp_path / "store", max_games=3)
    assert (partial.played, partial.deduped) == (3, 0)
    resumed = run_campaign(spec, tmp_path / "store", max_games=None)
    assert (resumed.played, resumed.deduped) == (5, 3)
    assert resumed.rows == reference.rows

    store = ResultStore(tmp_path / "store")
    hashes = [row["spec_hash"] for row in store.rows()]
    assert len(hashes) == len(set(hashes))  # no game ever stored twice


def test_worker_pool_matches_serial(tmp_path):
    spec = CampaignSpec(**SMALL)
    serial = run_campaign(spec, tmp_path / "serial")
    parallel = run_campaign(spec, tmp_path / "parallel", workers=2)
    assert parallel.rows == serial.rows
    assert (parallel.played, parallel.deduped) == (8, 0)


def test_errors_are_reported_not_stored(tmp_path, monkeypatch):
    """A game whose factory blows up lands in errors and is retried by
    the next run, never recorded as a row."""
    from repro.analysis.worker_pool import shutdown_warm_pool
    from repro.registry import ADVERSARIES

    # This registration lives inside a test function, so only fork
    # workers can inherit it: forkserver children re-import modules
    # (and re-run module-level registrations in real __main__ scripts)
    # but never see in-process, function-local registry mutations.
    monkeypatch.setenv("REPRO_POOL_START", "fork")
    shutdown_warm_pool()  # drop any parked forkserver fleet

    @ADVERSARIES.register("test-broken")
    def _broken(locality, **params):
        raise RuntimeError("rigged to fail")

    try:
        spec = CampaignSpec(
            name="broken", adversaries=("test-broken",), victims=("greedy",)
        )
        outcome = run_campaign(spec, tmp_path / "store", retries=0)
        assert outcome.played == 0
        assert len(outcome.errors) == 1
        assert "rigged to fail" in outcome.errors[0]["error"]
        assert len(ResultStore(tmp_path / "store")) == 0
    finally:
        ADVERSARIES.unregister("test-broken")
        shutdown_warm_pool()  # don't park fork workers for later tests


# ----------------------------------------------------------------------
# Kill-and-resume (the acceptance scenario)
# ----------------------------------------------------------------------

_KILL_SCRIPT = """
import sys
from repro.analysis.campaign import ThresholdSearchSpec, run_threshold_search

spec = ThresholdSearchSpec(
    name="kill-test",
    adversaries=("theorem1-grid", "theorem2-cylinder"),
    victims=("greedy", "akbari", "local-canonical"),
    low=0,
    high=1,
)
run_threshold_search(spec, sys.argv[1], workers=2)
"""


def _kill_spec() -> ThresholdSearchSpec:
    return ThresholdSearchSpec(
        name="kill-test",
        adversaries=("theorem1-grid", "theorem2-cylinder"),
        victims=("greedy", "akbari", "local-canonical"),
        low=0,
        high=1,
    )


def _store_snapshot(root):
    """Store contents as a comparable value: hash -> full row."""
    return ResultStore(root).index()


def _subprocess_env():
    """The environment with this checkout's ``src`` on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.slow
def test_sigkill_mid_campaign_resumes_with_zero_replays(tmp_path):
    """SIGKILL a threshold-search campaign at a random point; the resumed
    run must (a) replay zero stored games and (b) end with a store
    row-for-row identical to an uninterrupted run's."""
    import random

    reference_results, _ = run_threshold_search(_kill_spec(), tmp_path / "ref")

    store_dir = tmp_path / "killed"
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILL_SCRIPT, os.fspath(store_dir)],
        env=_subprocess_env(),
    )
    try:
        # Wait until at least one game is durably stored, then kill at a
        # random moment while the campaign is (most likely) still going.
        deadline = time.time() + 60
        while time.time() < deadline:
            if len(_store_snapshot(store_dir)) >= 1:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        time.sleep(random.uniform(0.0, 0.3))
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()

    stored_before = _store_snapshot(store_dir)
    assert len(stored_before) >= 1, "kill landed before any game was stored"

    results, outcome = run_threshold_search(_kill_spec(), store_dir)
    assert not outcome.errors
    # Zero replays: everything already on disk was deduped, not replayed.
    assert outcome.deduped >= len(stored_before)
    assert all(digest in outcome.rows for digest in stored_before)

    assert _store_snapshot(store_dir) == _store_snapshot(tmp_path / "ref")
    assert results == reference_results

    # And the run ledger shows the played/deduped split.
    statuses, runs = campaign_status(store_dir)
    assert any(status.kind == "threshold" for status in statuses)
    assert runs[-1]["played"] + runs[-1]["deduped"] >= len(stored_before)


_POOL_KILL_SCRIPT = """
import sys
from repro.analysis.campaign import CampaignSpec, run_campaign

spec = CampaignSpec(
    name="pool-kill-test",
    adversaries=("theorem1-grid", "theorem2-cylinder"),
    victims=("greedy", "akbari", "local-canonical"),
    localities=(1, 2, 3, 4, 5),
)
run_campaign(spec, sys.argv[1], workers=2)
"""

#: Games in ``_POOL_KILL_SCRIPT``'s sweep.
_POOL_KILL_GAMES = 30

SHM_DIR = "/dev/shm"


def _shm_entries_of(pid: int):
    """``repro-*`` entries under /dev/shm whose name carries ``pid``."""
    return [
        name
        for name in os.listdir(SHM_DIR)
        if name.startswith("repro-") and str(pid) in name.split("-")
    ]


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir(SHM_DIR), reason="no /dev/shm")
def test_sigkill_mid_pool_leaves_no_shared_memory(tmp_path):
    """SIGKILL a 2-worker sweep right after its first stored row, while
    its pool is still playing: nothing under /dev/shm may outlive the
    killed campaign process."""
    store_dir = tmp_path / "killed"
    proc = subprocess.Popen(
        [sys.executable, "-c", _POOL_KILL_SCRIPT, os.fspath(store_dir)],
        env=_subprocess_env(),
    )
    try:
        # Rows are written by pool workers only, so the first stored row
        # means the pool is up; kill at once, with most games unplayed.
        deadline = time.time() + 60
        while time.time() < deadline and proc.poll() is None:
            if len(_store_snapshot(store_dir)) >= 1:
                break
            time.sleep(0.01)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()

    assert proc.returncode == -signal.SIGKILL, "campaign exited before the kill"
    stored = len(_store_snapshot(store_dir))
    assert 1 <= stored < _POOL_KILL_GAMES, f"kill landed outside the pool: {stored}"

    leaked = _shm_entries_of(proc.pid)
    for name in leaked:  # never leave this test's own leak behind
        try:
            os.unlink(os.path.join(SHM_DIR, name))
        except OSError:
            pass
    assert leaked == [], f"/dev/shm entries left by the killed run: {leaked}"


# ----------------------------------------------------------------------
# Adaptive bisection
# ----------------------------------------------------------------------


def _drive(bisection, survives_at):
    probes = []
    while not bisection.done:
        probe = bisection.next_probe()
        probes.append(probe)
        bisection.feed(probe, survives=survives_at(probe))
    return probes


def test_bisection_adversary_wins_everywhere():
    b = _Bisection(0, 4)
    probes = _drive(b, lambda t: False)
    assert probes == [4]
    assert b.threshold is None


def test_bisection_finds_exact_threshold():
    for true_threshold in range(0, 5):
        b = _Bisection(0, 4)
        _drive(b, lambda t, k=true_threshold: t >= k)
        assert b.threshold == true_threshold, true_threshold


def test_bisection_probe_count_is_logarithmic():
    b = _Bisection(0, 1024)
    probes = _drive(b, lambda t: t >= 700)
    assert b.threshold == 700
    assert len(probes) <= 12  # 1 (check-high) + log2(1024) + 1


def test_threshold_search_end_to_end(tmp_path):
    spec = ThresholdSearchSpec(
        adversaries=("theorem1-grid",), victims=("greedy",), low=0, high=2
    )
    results, outcome = run_threshold_search(spec, tmp_path / "store")
    (result,) = results
    assert result.converged
    assert result.threshold is None  # the lower bound held through high
    assert result.probes == 1  # losing at high decides immediately
    assert result.n is not None
    table = threshold_table(results)
    assert ">2" in table and "theorem1-grid" in table

    # A rerun derives the identical answer from the store alone.
    again, outcome2 = run_threshold_search(spec, tmp_path / "store")
    assert again == results
    assert (outcome2.played, outcome2.deduped) == (0, 1)


def test_campaign_status_reports_progress(tmp_path):
    spec = CampaignSpec(**SMALL)
    run_campaign(spec, tmp_path / "store", max_games=3)
    statuses, runs = campaign_status(tmp_path / "store")
    (status,) = statuses
    assert (status.done, status.total) == (3, 8)
    assert runs[0]["played"] == 3
    run_campaign(spec, tmp_path / "store")
    statuses, runs = campaign_status(tmp_path / "store")
    assert (statuses[0].done, statuses[0].total) == (8, 8)
    assert (runs[-1]["played"], runs[-1]["deduped"]) == (5, 3)


def test_threshold_n_comes_from_the_combos_own_probes(tmp_path):
    """Two combos whose adversaries share a name and differ only in
    params each report their own instance size, not the largest one."""
    spec = ThresholdSearchSpec(
        adversaries=(
            AdversaryRef.of({"name": "theorem1-grid", "params": {"level": 1}}),
            AdversaryRef.of({"name": "theorem1-grid", "params": {"level": 4}}),
        ),
        victims=("greedy",),
        low=0,
        high=1,
    )
    results, outcome = run_threshold_search(spec, tmp_path / "store")
    own_n = {
        ref.label(): outcome.rows[hash_of(spec.game(ref, "greedy", 1))]["n"]
        for ref in spec.adversaries
    }
    assert own_n["theorem1-grid[level=1]"] < own_n["theorem1-grid[level=4]"]
    assert {result.adversary: result.n for result in results} == own_n


# ----------------------------------------------------------------------
# Content addresses: each game is hashed once per spec
# ----------------------------------------------------------------------


def test_digests_are_the_expansion_hashes(tmp_path):
    spec = CampaignSpec(**SMALL)
    for trace_path in (None, os.fspath(tmp_path / "trace.jsonl")):
        assert spec.digests == tuple(
            hash_of(game) for game in spec.expand(trace_path=trace_path)
        )


def test_replaced_spec_gets_its_own_digests():
    spec = CampaignSpec(**SMALL)
    before = spec.digests
    moved = replace(spec, localities=(2, 3))
    assert moved.digests == tuple(hash_of(game) for game in moved.expand())
    assert set(moved.digests).isdisjoint(before)
    assert spec.digests == before


def test_run_campaign_hashes_each_game_once(tmp_path, hash_calls):
    spec = CampaignSpec(**SMALL)
    outcome = run_campaign(spec, tmp_path / "store")
    assert outcome.played == 8
    assert len(hash_calls) == 8
    # A resume with the same spec object reuses its digests.
    again = run_campaign(spec, tmp_path / "store")
    assert (again.played, again.deduped) == (0, 8)
    assert len(hash_calls) == 8


def test_threshold_search_hashes_each_probe_once(tmp_path, hash_calls):
    spec = ThresholdSearchSpec(
        adversaries=("theorem1-grid",), victims=("greedy", "akbari"),
        low=0, high=2,
    )
    _results, outcome = run_threshold_search(spec, tmp_path / "store")
    assert outcome.total == 2  # one decisive probe per combo
    assert len(hash_calls) == outcome.total


def test_campaign_status_hashes_each_game_once(tmp_path, hash_calls):
    run_campaign(CampaignSpec(**SMALL), tmp_path / "store", max_games=3)
    del hash_calls[:]
    statuses, _runs = campaign_status(tmp_path / "store")
    assert (statuses[0].done, statuses[0].total) == (3, 8)
    assert len(hash_calls) == 8


def test_backoff_delay_full_jitter_windows_and_cap():
    from repro.analysis.campaign import BACKOFF_CAP_SECONDS, _backoff_delay

    class Rng:
        def __init__(self):
            self.windows = []

        def uniform(self, low, high):
            self.windows.append((low, high))
            return high

    rng = Rng()
    delays = [_backoff_delay(attempt, 0.5, rng=rng) for attempt in (1, 2, 3, 4)]
    assert delays == [0.5, 1.0, 2.0, 2.0]  # doubles, then clamps at the cap
    assert rng.windows == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0), (0.0, 2.0)]
    assert BACKOFF_CAP_SECONDS == 2.0
    # Zero base means zero delay and no draw at all.
    before = list(rng.windows)
    assert _backoff_delay(5, 0.0, rng=rng) == 0.0
    assert rng.windows == before
    # A custom cap clamps tighter.
    assert _backoff_delay(10, 1.0, cap=0.3, rng=rng) == 0.3


# ----------------------------------------------------------------------
# Phase attribution in the run ledger
# ----------------------------------------------------------------------


@pytest.mark.parametrize("workers", (1, 2))
def test_run_ledger_records_phases_when_timed(tmp_path, workers):
    from repro.observability.timers import phase_timers_enabled

    assert not phase_timers_enabled()
    run_campaign(
        CampaignSpec(**SMALL), tmp_path / "store", workers=workers,
        timers=True,
    )
    assert not phase_timers_enabled()  # restored afterwards

    entry = ResultStore(tmp_path / "store").runs()[-1]
    assert entry["wall_seconds"] > 0
    phases = entry["phases"]
    assert phases and all(s >= 0 for s in phases.values())
    assert "spec-expand" in phases
    if workers > 1:
        # Pooled runs: compute and fsync happen in the workers; the
        # parent's own phases are the IPC/idle split.
        assert "ack-wait" in phases
        assert "worker:compute" in phases
    else:
        # Serial runs time compute directly; fsync rides along.
        assert "compute" in phases
        assert "store-fsync" in phases
    assert 0.0 < entry["phase_coverage"]


def test_run_ledger_omits_phases_when_untimed(tmp_path):
    run_campaign(CampaignSpec(**SMALL), tmp_path / "store", timers=False)
    entry = ResultStore(tmp_path / "store").runs()[-1]
    assert entry["wall_seconds"] > 0
    assert "phases" not in entry
    assert "phase_coverage" not in entry


def test_threshold_search_ledger_records_phases(tmp_path):
    spec = ThresholdSearchSpec(
        name="phase-probe",
        adversaries=("theorem1-grid",),
        victims=("greedy",),
        low=0,
        high=2,
    )
    run_threshold_search(spec, tmp_path / "store", timers=True)
    entry = ResultStore(tmp_path / "store").runs()[-1]
    assert entry["kind"] == "threshold"
    assert entry["wall_seconds"] > 0
    assert entry["phases"]


# ----------------------------------------------------------------------
# Spec schema versioning
# ----------------------------------------------------------------------


def test_versioned_spec_accepted_silently():
    import warnings

    from repro.analysis.campaign import SPEC_VERSION

    payload = {"version": SPEC_VERSION, "kind": "sweep", "name": "v",
               "victims": ["greedy"], "localities": [1]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = campaign_from_dict(payload)
    assert spec.name == "v"


def test_versionless_spec_accepted_as_v1_with_warning():
    payload = {"kind": "sweep", "name": "old", "victims": ["greedy"]}
    with pytest.warns(FutureWarning, match="no 'version' field"):
        spec = campaign_from_dict(payload)
    assert spec.name == "old"
    # campaign_from_dict normalizes before dispatching to the per-class
    # from_dict, so a versionless payload warns exactly once.
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        campaign_from_dict(payload)
    assert sum(1 for w in caught if w.category is FutureWarning) == 1


def test_unknown_spec_version_rejected():
    from repro.analysis.campaign import SpecVersionError

    payload = {"version": 99, "kind": "sweep", "victims": ["greedy"]}
    with pytest.raises(SpecVersionError, match="version 99"):
        campaign_from_dict(payload)
    with pytest.raises(SpecVersionError):
        CampaignSpec.from_dict({"version": 99})
    with pytest.raises(SpecVersionError):
        ThresholdSearchSpec.from_dict({"version": "2"})


def test_spec_version_error_is_a_campaign_error():
    from repro.analysis.campaign import SpecVersionError

    assert issubclass(SpecVersionError, CampaignError)


def test_payloads_carry_the_spec_version():
    from repro.analysis.campaign import SPEC_VERSION

    assert CampaignSpec(victims=("greedy",)).to_payload()["version"] \
        == SPEC_VERSION
    assert ThresholdSearchSpec(victims=("greedy",)).to_payload()["version"] \
        == SPEC_VERSION
    # Round-tripping a payload is silent: emitted payloads are versioned.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        campaign_from_dict(CampaignSpec(victims=("greedy",)).to_payload())


def test_example_specs_are_versioned():
    """The shipped example specs declare the schema version (the
    migration the version field's introduction required)."""
    import glob

    examples = sorted(glob.glob(
        os.path.join(os.path.dirname(__file__), "..", "..",
                     "examples", "campaigns", "*.json")
    ))
    assert examples, "example campaign specs should exist"
    for path in examples:
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["version"] == 1, path


# ----------------------------------------------------------------------
# Pinned work counts
# ----------------------------------------------------------------------

#: Every default adversary but theorem5-reduction (whose inner view's
#: iteration order depends on ``PYTHONHASHSEED``) x the three honest
#: victims x T = 1, 2: 30 games.
WORK_COUNT_CAMPAIGN = CampaignSpec(
    name="work-counts",
    adversaries=(
        "theorem1-grid",
        "theorem2-torus",
        "theorem2-cylinder",
        "theorem3-gadget(2k-2)",
        "corollary13-gadget(k+1)",
    ),
    victims=("greedy", "akbari", "local-canonical"),
    localities=(1, 2),
)

#: The counters :data:`WORK_COUNT_CAMPAIGN` folds into the registry.  A
#: change that moves one of them changes the algorithmic work the games
#: do; such a change rewrites this file with the new counts and says why.
WORK_COUNT_FILE = Path(__file__).with_name("work_counts.json")


def _work_counts(store_dir, workers):
    """The campaign's non-``campaign_`` counters, from a cold ball pool
    (the autouse fixture clears it before every test)."""
    with scoped_registry() as registry:
        outcome = run_campaign(WORK_COUNT_CAMPAIGN, store_dir, workers=workers)
        counters = registry.snapshot()["counters"]
    assert (outcome.played, outcome.errors) == (30, [])
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith("campaign_")
    }


def test_serial_work_counts_are_pinned(tmp_path):
    expected = json.loads(WORK_COUNT_FILE.read_text(encoding="utf-8"))
    assert _work_counts(tmp_path, workers=None) == expected["serial"]


def test_pooled_work_counts_are_pinned(tmp_path):
    """The pool is per process, so the hit/miss split depends on which
    worker played which game; the query total does not."""
    expected = json.loads(WORK_COUNT_FILE.read_text(encoding="utf-8"))
    counts = _work_counts(tmp_path, workers=2)
    counts["ball_cache_queries"] = counts.pop("ball_cache_hits") + counts.pop(
        "ball_cache_misses"
    )
    assert counts == expected["workers=2"]
