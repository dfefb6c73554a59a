"""Tests for the stable ``repro.api`` facade."""

import os
import subprocess
import sys

import pytest

import repro
import repro.api as api


def test_all_exports_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None, name


def test_run_game_by_names():
    row = api.run_game("theorem1-grid", "greedy", locality=1)
    assert row.won
    assert row.adversary == "theorem1-grid"
    assert row.victim == "greedy"


def test_run_game_fixed_victim_ignores_victim_arg():
    row = api.run_game("theorem5-reduction", "akbari", locality=1, k=3)
    assert row.victim == api.FIXED_VICTIM
    assert row.won


def test_run_game_unknown_names_raise_registry_error():
    with pytest.raises(api.RegistryError, match="unknown adversary"):
        api.run_game("nope", "greedy")
    with pytest.raises(api.RegistryError, match="unknown victim"):
        api.run_game("theorem1-grid", "nope")


def test_verify_coloring_is_assert_proper():
    from repro.verify.coloring import assert_proper

    assert api.verify_coloring is assert_proper


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        api.definitely_not_a_symbol


# ----------------------------------------------------------------------
# The typed request/response surface (API v1)
# ----------------------------------------------------------------------

#: One fast game: the smallest useful sweep.
def _tiny_spec():
    return api.CampaignSpec(
        name="tiny",
        adversaries=("theorem1-grid",),
        victims=("greedy",),
        localities=(1,),
        timeout=10.0,
    )


def test_submit_request_round_trips_and_ids_ignore_run_options():
    request = api.SubmitRequest(spec=_tiny_spec(), workers=4, max_games=2)
    clone = api.SubmitRequest.from_payload(request.to_payload())
    assert clone == request
    # The campaign id is the *work*, not the tuning: identical specs
    # coalesce regardless of worker counts or budgets.
    retuned = api.SubmitRequest(spec=_tiny_spec())
    assert retuned.campaign_id() == request.campaign_id()
    assert request.campaign_id() == api.spec_hash(_tiny_spec().to_payload())


def test_submit_request_rejects_unknown_fields_and_versions():
    payload = api.SubmitRequest(spec=_tiny_spec()).to_payload()
    with pytest.raises(api.CampaignError, match="unknown submit fields"):
        api.SubmitRequest.from_payload({**payload, "nope": 1})
    with pytest.raises(api.SpecVersionError, match="version 9"):
        api.SubmitRequest.from_payload({**payload, "version": 9})
    with pytest.raises(api.SpecVersionError):
        api.SubmitRequest(spec=_tiny_spec(), version=9)
    with pytest.raises(api.CampaignError, match="'spec'"):
        api.SubmitRequest.from_payload({"version": 1})
    with pytest.raises(api.CampaignError, match="'workers'"):
        api.SubmitRequest.from_payload({**payload, "workers": 0})


def test_run_campaign_typed_form(tmp_path):
    request = api.SubmitRequest(spec=_tiny_spec())
    outcome = api.run_campaign(request, tmp_path / "store")
    assert (outcome.total, outcome.played, outcome.deduped) == (1, 1, 0)
    again = api.run_campaign(request, tmp_path / "store")
    assert (again.played, again.deduped) == (0, 1)


def test_run_campaign_typed_form_requirements(tmp_path):
    request = api.SubmitRequest(spec=_tiny_spec())
    with pytest.raises(TypeError, match="store_dir"):
        api.run_campaign(request)
    with pytest.raises(TypeError, match="SubmitRequest"):
        # Run options live on the request; passing both is ambiguous.
        api.run_campaign(request, tmp_path / "store", workers=2)
    threshold = api.SubmitRequest(spec=api.ThresholdSearchSpec(
        adversaries=("theorem1-grid",), victims=("greedy",),
        low=0, high=1, timeout=10.0,
    ))
    with pytest.raises(api.CampaignError, match="run_threshold_search"):
        api.run_campaign(threshold, tmp_path / "store")
    with pytest.raises(api.CampaignError, match="run_campaign"):
        api.run_threshold_search(
            api.SubmitRequest(spec=_tiny_spec()), tmp_path / "store"
        )


def test_loose_kwargs_forms_raise_type_error(tmp_path):
    """The loose call forms are gone: a bare spec or locality is refused
    with an error naming the typed form, before any game plays."""
    threshold = api.ThresholdSearchSpec(
        adversaries=("theorem1-grid",), victims=("greedy",),
        low=0, high=1, timeout=10.0,
    )
    calls = (
        lambda: api.run_campaign(_tiny_spec(), tmp_path / "store"),
        lambda: api.run_campaign(_tiny_spec(), tmp_path / "store", workers=2),
        lambda: api.run_threshold_search(threshold, tmp_path / "store"),
        lambda: api.run_tournament(1, workers=2),
    )
    for call in calls:
        with pytest.raises(TypeError, match="SubmitRequest"):
            call()
    assert not (tmp_path / "store").exists()


def test_run_submission_dispatches_by_kind(tmp_path):
    results, outcome = api.run_submission(
        api.SubmitRequest(spec=_tiny_spec()), tmp_path / "store"
    )
    assert results is None and outcome.total == 1
    threshold = api.SubmitRequest(spec=api.ThresholdSearchSpec(
        adversaries=("theorem1-grid",), victims=("greedy",),
        low=0, high=1, timeout=10.0,
    ))
    results, outcome = api.run_submission(threshold, tmp_path / "store")
    assert results is not None and len(results) == 1


def test_run_tournament_typed_form(tmp_path):
    request = api.SubmitRequest(spec=_tiny_spec())
    rows = api.run_tournament(request, store_dir=tmp_path / "store")
    assert [type(row) for row in rows] == [api.TournamentRow]
    assert rows[0].adversary == "theorem1-grid" and rows[0].won
    # Store-less form plays into a throwaway store and just returns rows.
    rows_again = api.run_tournament(request)
    assert [(r.adversary, r.victim, r.won) for r in rows_again] \
        == [(r.adversary, r.victim, r.won) for r in rows]
    with pytest.raises(TypeError, match="SubmitRequest"):
        api.run_tournament("not-a-request")


def test_run_tournament_refuses_a_short_row_list():
    """A game that fails outside the supervisor has no row, so the
    tournament raises instead of returning the rows that did play."""
    from repro.registry import ADVERSARIES

    @ADVERSARIES.register("test-broken-tournament")
    def _broken(locality, **params):
        raise RuntimeError("rigged to fail")

    try:
        spec = api.CampaignSpec(
            adversaries=("theorem1-grid", "test-broken-tournament"),
            victims=("greedy",),
            timeout=10.0,
        )
        with pytest.raises(api.CampaignError, match="1 of 2 games failed"):
            api.run_tournament(api.SubmitRequest(spec=spec, retries=0))
    finally:
        ADVERSARIES.unregister("test-broken-tournament")


def test_row_page_pagination_math():
    page = api.RowPage(campaign_id="c" * 64, offset=0, limit=2, total=3,
                       rows=({"spec_hash": "a"}, {"spec_hash": "b"}))
    assert page.next_offset == 2
    last = api.RowPage(campaign_id="c" * 64, offset=2, limit=2, total=3,
                       rows=({"spec_hash": "c"},))
    assert last.next_offset is None
    clone = api.RowPage.from_payload(page.to_payload())
    assert clone.next_offset == 2 and clone.total == 3


def test_error_body_round_trip():
    error = api.ErrorBody(code="bad-spec", message="nope",
                          detail={"field": "victims"})
    clone = api.ErrorBody.from_payload(error.to_payload())
    assert clone == error


def test_campaign_handle_ignores_unknown_payload_fields():
    handle = api.CampaignHandle(
        id="a" * 64, name="tiny", kind="sweep", state="done", done=1,
        total=1,
    )
    payload = handle.to_payload()
    payload["some_future_field"] = True
    clone = api.CampaignHandle.from_payload(payload)
    assert clone.id == handle.id and clone.state == "done"


def test_import_loads_no_numpy():
    """The package has no runtime dependencies: importing the API and the
    CLI must not pull numpy (~12 MiB) into every process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, repro.api, repro.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "False"
