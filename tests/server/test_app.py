"""End-to-end tests for the serving tier: a real ColoringServer on an
ephemeral port, real campaigns through the engine, raw asyncio HTTP
clients (no third-party client library, same as production)."""

import asyncio
import json

from repro.analysis.store import ResultStore
from repro.api import SubmitRequest
from repro.server import ColoringServer

#: The one-game sweep every test submits: fast and deterministic.
TINY_SPEC = {
    "version": 1,
    "kind": "sweep",
    "name": "server-tiny",
    "adversaries": [{"name": "theorem1-grid"}],
    "victims": ["greedy"],
    "localities": [0, 1],
    "timeout": 10.0,
}


def submit_payload(spec=None, **options):
    return {"version": 1, "spec": dict(spec or TINY_SPEC), **options}


async def http(port, method, path, payload=None, headers=None):
    """One JSON request against the server; returns (status, headers,
    parsed body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    for key, value in (headers or {}).items():
        head += f"{key}: {value}\r\n"
    writer.write(head.encode() + b"\r\n" + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head_raw, _, body_raw = raw.partition(b"\r\n\r\n")
    lines = head_raw.decode().split("\r\n")
    status = int(lines[0].split()[1])
    response_headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        response_headers[key.strip().lower()] = value.strip()
    parsed = json.loads(body_raw) if body_raw.strip() else None
    return status, response_headers, parsed


async def wait_for_state(port, campaign_id, states=("done", "failed"),
                         timeout=30.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        status, _, handle = await http(
            port, "GET", f"/v1/campaigns/{campaign_id}"
        )
        assert status == 200
        if handle["state"] in states:
            return handle
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError(f"campaign stuck in {handle['state']}")
        await asyncio.sleep(0.05)


async def read_sse_until(port, path, stop_event, timeout=30.0):
    """Collect SSE records from ``path`` until one named ``stop_event``
    arrives (or the stream closes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    records = []
    event = {}

    async def collect():
        while True:
            line = (await reader.readline()).decode().rstrip("\n")
            if not line and not event:
                continue
            if not line:  # blank line = end of one SSE message
                records.append(dict(event))
                if event.get("event") == stop_event:
                    return
                event.clear()
                continue
            if line.startswith(":"):
                continue
            key, _, value = line.partition(": ")
            event[key] = value

    try:
        await asyncio.wait_for(collect(), timeout)
    finally:
        writer.close()
        await writer.wait_closed()
    return records


# Each test runs one asyncio.run() with the server and its clients
# inside, so the loop owns every socket and task it creates.


def test_submit_sse_rows_end_to_end(tmp_path):
    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            status, _, handle = await http(
                server.port, "POST", "/v1/campaigns", submit_payload()
            )
            assert status == 202
            assert handle["state"] in ("queued", "running")
            assert handle["kind"] == "sweep"
            campaign_id = handle["id"]
            assert campaign_id == SubmitRequest.from_payload(
                submit_payload()).campaign_id()

            records = await read_sse_until(
                server.port, f"/v1/campaigns/{campaign_id}/events", "done"
            )
            names = [record["event"] for record in records]
            assert names[0] == "queued"
            assert "running" in names
            assert "progress" in names
            done = json.loads(records[-1]["data"])
            assert done["played"] == 2 and done["total"] == 2
            # ids are monotonic (the SSE replay/dedupe cursor)
            ids = [int(record["id"]) for record in records]
            assert ids == sorted(ids)

            final = await wait_for_state(server.port, campaign_id)
            assert final["state"] == "done"
            assert final["done"] == 2 and final["total"] == 2
            assert final["played"] == 2 and final["deduped"] == 0

            # Deterministic pagination: two one-row pages.
            status, _, page1 = await http(
                server.port, "GET",
                f"/v1/campaigns/{campaign_id}/rows?limit=1",
            )
            assert status == 200
            assert page1["total"] == 2 and page1["next_offset"] == 1
            status, _, page2 = await http(
                server.port, "GET",
                f"/v1/campaigns/{campaign_id}/rows?offset=1&limit=1",
            )
            assert page2["next_offset"] is None
            rows = page1["rows"] + page2["rows"]
            assert [row["locality"] for row in rows] == [0, 1]

            # Point lookup round-trips through the result endpoint.
            digest = rows[0]["spec_hash"]
            status, _, row = await http(
                server.port, "GET", f"/v1/results/{digest}"
            )
            assert status == 200 and row == rows[0]
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_concurrent_identical_submissions_single_flight(tmp_path):
    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            results = await asyncio.gather(
                http(server.port, "POST", "/v1/campaigns", submit_payload()),
                http(server.port, "POST", "/v1/campaigns", submit_payload()),
            )
            statuses = sorted(status for status, _, _ in results)
            assert statuses == [200, 202]  # one created, one coalesced
            ids = {handle["id"] for _, _, handle in results}
            assert len(ids) == 1
            campaign_id = ids.pop()
            final = await wait_for_state(server.port, campaign_id)
            assert final["state"] == "done"
        finally:
            await server.stop()

        # The ledger is the proof: ONE run, which played everything;
        # the coalesced submission triggered no second run at all.
        runs = ResultStore(tmp_path / "store").runs()
        assert len(runs) == 1
        assert runs[0]["played"] == 2 and runs[0]["deduped"] == 0

    asyncio.run(scenario())


def test_resubmission_after_completion_dedupes_via_store(tmp_path):
    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            _, _, first = await http(
                server.port, "POST", "/v1/campaigns", submit_payload()
            )
            await wait_for_state(server.port, first["id"])
            status, _, second = await http(
                server.port, "POST", "/v1/campaigns", submit_payload()
            )
            assert status == 202  # a new job (the first one finished) ...
            final = await wait_for_state(server.port, second["id"])
            # ... that replayed nothing: the store answered every game.
            assert final["played"] == 0 and final["deduped"] == 2
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_rate_limit_429_per_client(tmp_path):
    async def scenario():
        server = ColoringServer(
            tmp_path / "store", port=0, rate=1.0, burst=2
        )
        await server.start()
        try:
            fake = "ab" * 32
            hog = {"X-Client-Id": "hog"}
            for _ in range(2):
                status, _, _ = await http(
                    server.port, "GET", f"/v1/campaigns/{fake}",
                    headers=hog,
                )
                assert status == 404  # admitted (spends a token)
            status, headers, body = await http(
                server.port, "GET", f"/v1/campaigns/{fake}", headers=hog
            )
            assert status == 429
            assert body["code"] == "rate-limited"
            assert int(headers["retry-after"]) >= 1
            # Another client is unaffected, and probe/scrape paths are
            # exempt even for the throttled client.
            status, _, _ = await http(
                server.port, "GET", f"/v1/campaigns/{fake}",
                headers={"X-Client-Id": "other"},
            )
            assert status == 404
            status, _, health = await http(
                server.port, "GET", "/healthz", headers=hog
            )
            assert status == 200 and health["ok"] is True
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_validation_errors_are_structured(tmp_path):
    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            cases = [
                # (payload, expected ErrorBody code)
                ({"version": 9, "spec": TINY_SPEC}, "unsupported-version"),
                (submit_payload({**TINY_SPEC, "version": 9}),
                 "unsupported-version"),
                (submit_payload({**TINY_SPEC, "mystery": 1}), "bad-spec"),
                (submit_payload(workers=0), "bad-spec"),
                ({"version": 1}, "bad-spec"),
            ]
            for payload, code in cases:
                status, _, body = await http(
                    server.port, "POST", "/v1/campaigns", payload
                )
                assert status == 400, (payload, body)
                assert body["code"] == code, (payload, body)
            # Not-JSON body and unknown routes are structured too.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /v1/campaigns HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 3\r\n\r\nnop"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            assert b" 400 " in raw.split(b"\r\n", 1)[0]
            assert b'"bad-request"' in raw
            status, _, body = await http(server.port, "GET", "/nope")
            assert status == 404 and body["code"] == "not-found"
            status, _, body = await http(
                server.port, "DELETE", "/v1/campaigns"
            )
            assert status == 405 and body["code"] == "method-not-allowed"
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_metrics_scrape_and_healthz(tmp_path):
    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            _, _, handle = await http(
                server.port, "POST", "/v1/campaigns", submit_payload()
            )
            await wait_for_state(server.port, handle["id"])
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            raw = (await reader.read()).decode()
            writer.close()
            await writer.wait_closed()
            assert "text/plain" in raw
            assert "repro_server_requests" in raw
            assert "repro_server_submissions" in raw
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_drain_rejects_new_submissions(tmp_path):
    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0,
                                drain_grace=5.0)
        await server.start()
        server.request_drain()
        status, _, body = await http(
            server.port, "POST", "/v1/campaigns", submit_payload()
        )
        assert status == 503
        assert body["code"] == "draining"
        await asyncio.wait_for(server._stopped.wait(), 10.0)

    asyncio.run(scenario())


def test_stored_campaign_visible_after_offline_run(tmp_path):
    """A campaign run by the engine directly (an earlier server life,
    or the CLI) is queryable: state "stored", rows paginate."""
    from repro.api import run_campaign

    request = SubmitRequest.from_payload(submit_payload())
    run_campaign(request, tmp_path / "store")

    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            campaign_id = request.campaign_id()
            status, _, handle = await http(
                server.port, "GET", f"/v1/campaigns/{campaign_id}"
            )
            assert status == 200
            assert handle["state"] == "stored"
            assert handle["done"] == 2 and handle["total"] == 2
            status, _, page = await http(
                server.port, "GET", f"/v1/campaigns/{campaign_id}/rows"
            )
            assert status == 200 and page["total"] == 2
            # No live job means no event stream for it.
            status, _, body = await http(
                server.port, "GET", f"/v1/campaigns/{campaign_id}/events"
            )
            assert status == 404 and body["code"] == "not-found"
        finally:
            await server.stop()

    asyncio.run(scenario())


def test_handle_reports_its_own_run_when_names_repeat(tmp_path):
    """Two different sweeps share a name: each handle's wall-clock and
    phase table come from its own run-ledger entry, matched by campaign
    id, not from the newest run of the same name."""
    from repro.observability.timers import timed_phases

    one_game = dict(TINY_SPEC, name="smoke", localities=[0])
    twelve_games = dict(
        TINY_SPEC,
        name="smoke",
        adversaries=[
            {"name": "theorem1-grid", "params": {"level": level}}
            for level in range(1, 7)
        ],
        victims=["greedy", "akbari"],
        localities=[0],
    )

    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            handles = []
            for spec in (one_game, twelve_games):
                _, _, handle = await http(
                    server.port, "POST", "/v1/campaigns", submit_payload(spec)
                )
                await wait_for_state(server.port, handle["id"])
                handles.append(handle["id"])
            return [
                (await http(server.port, "GET", f"/v1/campaigns/{id_}"))[2]
                for id_ in handles
            ]
        finally:
            await server.stop()

    with timed_phases():
        first, second = asyncio.run(scenario())
    runs = ResultStore(tmp_path / "store").runs()  # in submission order
    assert (first["total"], second["total"]) == (1, 12)
    assert runs[0]["wall_seconds"] != runs[1]["wall_seconds"]
    for handle, run in ((first, runs[0]), (second, runs[1])):
        assert handle["wall_seconds"] == run["wall_seconds"]
        assert handle["phases"] == run["phases"]
    assert [run["campaign_id"] for run in runs] == [first["id"], second["id"]]


#: Six fast games: two victims at three localities.
SIX_GAMES = dict(TINY_SPEC, victims=["greedy", "akbari"], localities=[0, 1, 2])


async def page_all(port, campaign_id, limit=4):
    """Every row of a campaign, fetched page by page."""
    rows, offset = [], 0
    while offset is not None:
        status, _, page = await http(
            port, "GET",
            f"/v1/campaigns/{campaign_id}/rows?offset={offset}&limit={limit}",
        )
        assert status == 200
        rows.extend(page["rows"])
        offset = page["next_offset"]
    return rows


def test_live_job_status_and_pages_hash_nothing(tmp_path, hash_calls):
    """A live job's spec hashes its games once; after that its status
    polls and every page reuse the spec's digests."""

    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            _, _, handle = await http(
                server.port, "POST", "/v1/campaigns",
                submit_payload(SIX_GAMES),
            )
            await wait_for_state(server.port, handle["id"])
            hashed = len(hash_calls)
            for _ in range(3):
                status, _, polled = await http(
                    server.port, "GET", f"/v1/campaigns/{handle['id']}"
                )
                assert status == 200
                assert (polled["done"], polled["total"]) == (6, 6)
            rows = await page_all(server.port, handle["id"])
            return hashed, len(hash_calls), rows
        finally:
            await server.stop()

    hashed, after, rows = asyncio.run(scenario())
    assert len(rows) == 6
    assert hashed >= 6
    assert after == hashed


def test_live_job_digests_never_hide_rows_that_land_later(tmp_path):
    """Run a budget of 2 of 6 games, then resume with the live job's
    own spec object, whose digests are already computed: the job's
    next handle counts all 6, and its pages equal the covered rows of
    a freshly parsed spec."""
    from repro.analysis.campaign import (
        campaign_from_dict,
        covered_rows,
        run_campaign,
    )

    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            _, _, handle = await http(
                server.port, "POST", "/v1/campaigns",
                submit_payload(SIX_GAMES, max_games=2),
            )
            campaign_id = handle["id"]
            budgeted = await wait_for_state(server.port, campaign_id)
            spec = server._jobs[campaign_id].request.spec
            assert "digests" in vars(spec)  # computed before the resume
            outcome = run_campaign(spec, tmp_path / "store")
            assert (outcome.played, outcome.deduped) == (4, 2)
            _, _, resumed = await http(
                server.port, "GET", f"/v1/campaigns/{campaign_id}"
            )
            return budgeted, resumed, await page_all(server.port, campaign_id)
        finally:
            await server.stop()

    budgeted, resumed, rows = asyncio.run(scenario())
    assert (budgeted["done"], budgeted["total"]) == (2, 6)
    assert (resumed["done"], resumed["total"]) == (6, 6)
    fresh = campaign_from_dict(SIX_GAMES)
    assert rows == covered_rows(fresh, ResultStore(tmp_path / "store").index())


def test_finished_job_status_reads_no_run_ledger(tmp_path, monkeypatch):
    """The finished run's ledger entry is read once, when the run
    returns; status requests after that never re-parse the ledger."""
    runs_calls = []
    real_runs = ResultStore.runs

    def counting_runs(self):
        runs_calls.append(self.root)
        return real_runs(self)

    monkeypatch.setattr(ResultStore, "runs", counting_runs)

    async def scenario():
        server = ColoringServer(tmp_path / "store", port=0, rate=0)
        await server.start()
        try:
            _, _, handle = await http(
                server.port, "POST", "/v1/campaigns",
                submit_payload(timers=True),
            )
            await wait_for_state(server.port, handle["id"])
            del runs_calls[:]
            handles = [
                (await http(
                    server.port, "GET", f"/v1/campaigns/{handle['id']}"
                ))[2]
                for _ in range(3)
            ]
            return handles, len(runs_calls)
        finally:
            await server.stop()

    handles, ledger_reads = asyncio.run(scenario())
    assert ledger_reads == 0
    (run,) = real_runs(ResultStore(tmp_path / "store"))
    for handle in handles:
        assert handle["wall_seconds"] == run["wall_seconds"]
        assert handle["phases"] == run["phases"]
