"""Kill-the-server tests: SIGKILL a serving process, restart it over
the same store, and prove the replacement serves the dead server's
work without replaying a single game."""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.analysis.store import ResultStore
from repro.api import SubmitRequest

SPEC = {
    "version": 1,
    "kind": "sweep",
    "name": "resume-tiny",
    "adversaries": [{"name": "theorem1-grid"}],
    "victims": ["greedy"],
    "localities": [0, 1],
    "timeout": 10.0,
}


def _spawn_server(store_dir):
    """Start ``repro serve`` on an ephemeral port; returns (proc, port)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--store", os.fspath(store_dir), "--port", "0", "--rate", "0"],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()  # "repro-server listening on http://..."
    assert "listening on http://" in line, line
    port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port


def _call(port, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _wait_done(port, campaign_id, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, handle = _call(port, "GET", f"/v1/campaigns/{campaign_id}")
        assert status == 200
        if handle["state"] in ("done", "failed"):
            return handle
        time.sleep(0.1)
    raise AssertionError("campaign did not finish in time")


@pytest.mark.slow
def test_sigkill_server_resume_serves_from_store(tmp_path):
    store_dir = tmp_path / "store"
    submit = {"version": 1, "spec": SPEC}
    campaign_id = SubmitRequest.from_payload(submit).campaign_id()

    # Life 1: submit, let it finish, then SIGKILL the server.
    proc, port = _spawn_server(store_dir)
    try:
        status, handle = _call(port, "POST", "/v1/campaigns", submit)
        assert status == 202 and handle["id"] == campaign_id
        first = _wait_done(port, campaign_id)
        assert first["state"] == "done" and first["played"] == 2
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()

    rows_before = sorted(
        row["spec_hash"] for row in ResultStore(store_dir).rows()
    )
    assert len(rows_before) == 2

    # Life 2: a fresh server over the same store knows the campaign
    # from its manifest ("stored"), and a resubmission replays nothing.
    proc, port = _spawn_server(store_dir)
    try:
        status, handle = _call(port, "GET", f"/v1/campaigns/{campaign_id}")
        assert status == 200
        assert handle["state"] == "stored"
        assert handle["done"] == 2 and handle["total"] == 2

        status, handle = _call(port, "POST", "/v1/campaigns", submit)
        assert status == 202
        second = _wait_done(port, campaign_id)
        assert second["state"] == "done"
        assert second["played"] == 0 and second["deduped"] == 2

        status, page = _call(
            port, "GET", f"/v1/campaigns/{campaign_id}/rows?limit=10"
        )
        assert status == 200
        assert sorted(r["spec_hash"] for r in page["rows"]) == rows_before
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            assert proc.wait(timeout=30) == 0
        finally:
            proc.stdout.close()

    # The ledger across both lives: one played run, one zero-replay run.
    runs = ResultStore(store_dir).runs()
    assert [run["played"] for run in runs] == [2, 0]
    assert [run["deduped"] for run in runs] == [0, 2]
