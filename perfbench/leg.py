"""One benchmark leg, in a fresh process.

    python3 perfbench/leg.py JOB.json

The job file (written by ``run.py``) names a campaign spec payload, a
worker count, a result store and the options below.  The leg

1. sets up: imports the program and plays the warm-up campaign on its
   own store (with ``workers >= 2`` this starts the pool's workers,
   which then wait parked for the timed campaign to adopt them);
2. times one ``repro.api.run_campaign`` or ``run_threshold_search``
   call on an empty store, up to the point where every row is durable;
3. writes what it measured, and the campaign's rows keyed by game
   payload, to the job's ``result`` path as JSON.

With ``trace`` set, the wrappers of :mod:`spans` are installed after
set-up, so only the timed call is traced; its spans are written to the
job's ``spans`` path.  With ``timers`` set, the program's own phase
timers run and the run ledger's phase split is returned.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import workloads


def _key(adversary, params, victim, locality) -> str:
    """A row's key: its game payload, without the content hash (which
    a store format change may redefine)."""
    return json.dumps([adversary, dict(params), victim, locality], sort_keys=True)


def _strip(row):
    return {k: v for k, v in row.items() if k != "spec_hash"}


def keyed_rows(api, spec, outcome, results):
    """``(rows, missing)``: the campaign's rows keyed by game payload,
    and how many games the campaign covers but has no row for.

    ``covered_rows`` returns rows in the campaign's own order: expansion
    order for a sweep, and for a threshold search each combo's probes in
    turn (``results`` says how many), whose localities the rows carry.
    """
    ordered = api.covered_rows(spec, outcome.rows)
    if isinstance(spec, api.CampaignSpec):
        games = [
            (g.adversary, g.params, g.victim, g.locality) for g in spec.expand()
        ]
    else:
        games = []
        for (ref, victim), result in zip(spec.combos(), results):
            games.extend((ref.name, ref.params, victim, None) for _ in range(result.probes))
    rows = {}
    for (adversary, params, victim, locality), row in zip(games, ordered):
        if (row["adversary"], row["victim"]) != (adversary, victim) or (
            locality is not None and row["locality"] != locality
        ):
            break  # a missing row shifted the order; stop keying
        rows[_key(adversary, params, victim, row["locality"])] = _strip(row)
    return rows, len(games) - len(rows)


def stop_helpers() -> None:
    """Stop the forkserver and the resource tracker this process
    started, waiting for each to exit, so no helper outlives the leg."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    from repro import api
    from repro.observability.metrics import get_registry

    workers = int(job["workers"])
    timers = bool(job.get("timers"))

    def submit(payload, store):
        spec = api.campaign_from_dict(payload)
        request = api.SubmitRequest(spec=spec, workers=workers, timers=timers or None)
        if isinstance(spec, api.CampaignSpec):
            return spec, None, api.run_campaign(request, store)
        results, outcome = api.run_threshold_search(request, store)
        return spec, results, outcome

    try:
        submit(job["warmup"], job["warm_store"])
        recorder = None
        if job.get("trace"):
            import spans

            recorder = spans.SpanRecorder()
            uninstall = spans.install(recorder)
        ready = time.monotonic()
        before = get_registry().snapshot()["counters"]

        before_ref = workloads.reference_work()
        started = time.perf_counter()
        spec, results, outcome = submit(job["spec"], job["store"])
        makespan = time.perf_counter() - started
        if recorder is not None:
            uninstall()
        ref_s = [before_ref, workloads.reference_work()]
        after = get_registry().snapshot()["counters"]
    finally:
        api.shutdown_warm_pool()
        stop_helpers()

    rows, missing = keyed_rows(api, spec, outcome, results)
    report = {
        "setup_s": ready - float(job["spawned_at"]),
        "makespan_s": makespan,
        "ref_s": ref_s,
        "played": outcome.played,
        "total": outcome.total,
        "errors": len(outcome.errors),
        "missing": missing,
        "rows": rows,
        "order": list(rows),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "submit": api.SubmitRequest(spec=spec, workers=1).to_payload(),
        "campaign_id": api.SubmitRequest(spec=spec).campaign_id(),
        "counters": {
            name: value - before.get(name, 0)
            for name, value in after.items()
            if value != before.get(name, 0)
        },
    }
    if results is not None:
        report["thresholds"] = [
            [r.adversary, r.victim, r.threshold, r.probes, r.converged]
            for r in results
        ]
    if timers:
        report["phases"] = api.ResultStore(job["store"]).runs()[-1].get("phases", {})
        report["warm_phases"] = (
            api.ResultStore(job["warm_store"]).runs()[-1].get("phases", {})
        )
    if recorder is not None:
        import spans

        report["span_totals"] = spans.span_totals(recorder.spans())
        report["ball_counters"] = recorder.counters
        report["rows_written"] = recorder.rows_written
        if job.get("spans"):
            recorder.write(job["spans"], recorder.originals["campaign:hash_of"])
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
