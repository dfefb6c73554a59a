"""Tests for the tournament: the pre-baked campaign and its rows."""

from repro import api
from repro.analysis.campaign import CampaignSpec
from repro.analysis.tournament import TournamentRow, clean_sweep


def test_defaults_shape():
    spec = CampaignSpec.tournament(locality=1)
    assert set(spec.victims) == {"greedy", "akbari", "local-canonical"}
    assert len(spec.adversaries) == 6


def test_subset_tournament_clean_sweep():
    """A reduced tournament (fast) must still be a clean sweep."""
    spec = CampaignSpec(
        adversaries=("theorem1-grid", "theorem2-torus"),
        victims=("greedy",),
        localities=(1,),
    )
    rows = api.run_tournament(api.SubmitRequest(spec=spec))
    assert len(rows) == 2
    assert clean_sweep(rows)
    assert all(isinstance(row, TournamentRow) for row in rows)


def test_clean_sweep_predicate():
    won = TournamentRow("a", "v", 1, True, "monochromatic-edge")
    lost = TournamentRow("a", "v", 1, False, "survived")
    assert clean_sweep([won, won])
    assert not clean_sweep([won, lost])
