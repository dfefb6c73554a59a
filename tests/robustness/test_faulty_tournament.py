"""Acceptance: every faulty victim loses — by forfeit, never by crash —
against every adversary, while the honest sweep stays clean."""

from dataclasses import replace

from repro import api
from repro.analysis.campaign import CampaignSpec
from repro.registry import (
    DEFAULT_ADVERSARIES,
    DEFAULT_VICTIMS,
    FAULTY_VICTIM_NAMES,
    FIXED_VICTIM,
)


def test_full_faulty_sweep_completes_with_structured_forfeits():
    """One full sweep: honest portfolio + every FaultyAlgorithm variant.

    Must complete with zero uncaught exceptions; every faulty game is a
    forfeit row with a machine-readable reason, and the honest games are
    still a clean sweep.
    """
    spec = replace(
        CampaignSpec.tournament(locality=1, include_faulty=True), timeout=2.0
    )
    rows = api.run_tournament(api.SubmitRequest(spec=spec))
    n_adversaries = len(DEFAULT_ADVERSARIES)
    n_fixed = 1  # theorem5 plays once, against its built-in victim
    n_honest = len(DEFAULT_VICTIMS)
    n_faulty = len(FAULTY_VICTIM_NAMES)
    expected = (n_adversaries - n_fixed) * (n_honest + n_faulty) + n_fixed
    assert len(rows) == expected

    honest = api.honest_rows(rows)
    assert api.clean_sweep(honest)
    assert not any(row.forfeit for row in honest)

    faulty = [row for row in rows if row.victim.startswith("faulty-")]
    assert len(faulty) == (n_adversaries - n_fixed) * n_faulty
    for row in faulty:
        assert row.won, f"{row.adversary} vs {row.victim} did not win"
        assert row.forfeit, f"{row.adversary} vs {row.victim} not a forfeit"
        assert row.reason.startswith("forfeit:"), row.reason

    # Every failure mode maps to its expected forfeit class, for every
    # adversary it met.
    reason_by_victim = {
        "faulty-crash": {"forfeit:victim-crash"},
        "faulty-invalid-color": {"forfeit:model-violation"},
        "faulty-none": {"forfeit:model-violation"},
        "faulty-infinite-loop": {"forfeit:timeout"},
        "faulty-flip-flop": {"forfeit:model-violation"},
    }
    for row in faulty:
        assert row.reason in reason_by_victim[row.victim], (
            f"{row.adversary} vs {row.victim}: {row.reason}"
        )

    # Satellite: every forfeit row surfaces its structured cause — the
    # triggering exception type and the reveal index the game reached.
    for row in faulty:
        assert row.error_type, f"{row.adversary} vs {row.victim}"
        assert row.failed_at_step is not None
        assert row.failed_at_step >= 1

    # The sweep is still rectangular: every non-fixed adversary met every
    # victim exactly once, and the fixed game ran exactly once.
    fixed = [row for row in rows if row.victim == FIXED_VICTIM]
    assert len(fixed) == n_fixed
    assert fixed[0].won


def test_fixed_victim_game_plays_once():
    """Theorem 5 is not re-run per victim: one game, one row."""
    spec = CampaignSpec(
        adversaries=("theorem5-reduction",), localities=(1,)
    )
    rows = api.run_tournament(api.SubmitRequest(spec=spec))
    assert len(rows) == 1
    assert rows[0].victim == FIXED_VICTIM
    assert rows[0].won and not rows[0].forfeit
