"""The kill-safe JSON-lines journal primitive (SweepJournal), which the
result store's shards, the run ledger, and trace merging build on."""

import json

from repro.robustness.journal import SweepJournal


def test_journal_skips_corrupt_lines(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(path, ("a",))
    journal.append({"a": 1, "x": "one"})
    with open(path, "a") as handle:
        handle.write('{"a": 2, "x": "tru')  # kill mid-write
    assert [row["a"] for row in journal.load()] == [1]
    # A later append must not glue onto the partial line.
    journal.append({"a": 3, "x": "three"})
    assert [row["a"] for row in journal.load()] == [1, 3]
    raw = path.read_text().splitlines()
    assert json.loads(raw[-1])["a"] == 3


def test_key_types_survive_json_round_trip(tmp_path):
    """Tuple-valued key fields come back as lists from JSON; completed()
    must key them identically to the live rows."""
    path = tmp_path / "mixed.jsonl"
    journal = SweepJournal(path, ("name", "shape", "locality"))
    live_rows = [
        {"name": "a", "shape": (3, 4), "locality": 1, "won": True},
        {"name": "a", "shape": (3, 4), "locality": "1", "won": False},
        {"name": "b", "shape": ("torus", (2, 2)), "locality": 2, "won": True},
    ]
    for row in live_rows:
        journal.append(row)
    done = journal.completed()
    assert len(done) == 3
    for row in live_rows:
        assert journal.key_of(row) in done
    # Integer and string localities stay distinct keys.
    assert journal.key_of(live_rows[0]) != journal.key_of(live_rows[1])
    # Nested tuples normalize recursively.
    assert journal.key_of(live_rows[2]) == ("b", ("torus", (2, 2)), 2)


def test_key_of_normalizes_non_json_values(tmp_path):
    """Values json.dumps(default=str) stringifies must key consistently."""
    from pathlib import Path

    path = tmp_path / "exotic.jsonl"
    journal = SweepJournal(path, ("source",))
    live = {"source": Path("/data/run1"), "won": True}
    journal.append(live)
    assert journal.key_of(live) in journal.completed()


def test_merge_shards_concatenates_and_dedupes(tmp_path):
    path = tmp_path / "main.jsonl"
    journal = SweepJournal(path, ("a",))
    journal.append({"a": 1, "who": "main"})
    shard_x = journal.shard("x")
    shard_x.append({"a": 1, "who": "shard-x"})  # duplicate of main row
    shard_x.append({"a": 2, "who": "shard-x"})
    shard_y = journal.shard("y")
    shard_y.append({"a": 3, "who": "shard-y"})
    assert len(journal.shard_paths()) == 2

    merged = journal.merge_shards()
    assert merged == 2  # the duplicate was skipped
    assert journal.shard_paths() == []  # shard files removed
    done = journal.completed()
    assert set(done) == {(1,), (2,), (3,)}
    assert done[(1,)]["who"] == "main"  # main journal wins over shards


def test_merge_shards_idempotent_and_kill_safe(tmp_path):
    path = tmp_path / "main.jsonl"
    journal = SweepJournal(path, ("a",))
    shard = journal.shard(1234)
    shard.append({"a": 7})
    assert journal.merge_shards() == 1
    # Re-merging with a re-created identical shard only deduplicates.
    shard.append({"a": 7})
    assert journal.merge_shards() == 0
    assert len(journal) == 1
