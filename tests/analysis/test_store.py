"""Tests for the content-addressed result store."""

import json
import os
import random
import sys

import pytest

from repro.analysis.store import (
    HASH_FIELD,
    RESULT_KEY_FIELDS,
    ResultStore,
    canonical_json,
    spec_hash,
)
from repro.robustness.journal import SweepJournal


def test_canonical_json_is_key_order_independent():
    a = {"victim": "greedy", "adversary": "theorem1-grid", "locality": 1}
    b = {"locality": 1, "adversary": "theorem1-grid", "victim": "greedy"}
    assert canonical_json(a) == canonical_json(b)
    assert spec_hash(a) == spec_hash(b)


def test_spec_hash_distinguishes_values():
    base = {"adversary": "theorem1-grid", "locality": 1}
    assert spec_hash(base) != spec_hash({**base, "locality": 2})
    assert spec_hash(base) != spec_hash({**base, "params": [["k", 3]]})


def test_add_requires_hash_field(tmp_path):
    store = ResultStore(tmp_path / "store")
    with pytest.raises(ValueError, match=HASH_FIELD):
        store.add({"won": True})


def test_add_and_index_round_trip(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.add({HASH_FIELD: "aaa", "won": True})
    store.add({HASH_FIELD: "bbb", "won": False})
    assert "aaa" in store and "bbb" in store and "ccc" not in store
    assert len(store) == 2
    index = store.index()
    assert index["aaa"]["won"] is True
    assert index["bbb"]["won"] is False


def test_later_writes_win(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.add({HASH_FIELD: "aaa", "won": False})
    store.add({HASH_FIELD: "aaa", "won": True})
    assert store.index()["aaa"]["won"] is True
    assert len(store) == 1


def test_add_many_lands_batch_in_append_order(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.add_many(
        [
            {HASH_FIELD: "aaa", "won": True},
            {HASH_FIELD: "bbb", "won": False},
            {HASH_FIELD: "ccc", "won": True},
        ]
    )
    assert [row[HASH_FIELD] for row in store.rows()] == ["aaa", "bbb", "ccc"]
    assert len(store.row_files()) == 1  # one writer shard, one append


def test_add_many_empty_batch_is_a_no_op(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.add_many([])
    assert store.row_files() == []
    assert not os.path.exists(store.root)


def test_add_many_validates_every_row_before_writing(tmp_path):
    """A bad row anywhere in the batch rejects the whole batch — no
    partial write precedes the ValueError."""
    store = ResultStore(tmp_path / "store")
    with pytest.raises(ValueError, match=HASH_FIELD):
        store.add_many([{HASH_FIELD: "aaa", "won": True}, {"won": False}])
    assert store.index() == {}


def test_add_many_repairs_torn_tail(tmp_path):
    """A batch append after a kill-torn trailing line repairs the shard,
    exactly like the single-row path."""
    store = ResultStore(tmp_path / "store")
    store.add({HASH_FIELD: "aaa", "won": True})
    shard = store.row_files()[0]
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"spec_hash": "bbb", "wo')  # killed mid-write
    store.add_many(
        [{HASH_FIELD: "ccc", "won": False}, {HASH_FIELD: "ddd", "won": True}]
    )
    assert set(store.index()) == {"aaa", "ccc", "ddd"}


def test_multiple_writer_shards_merge(tmp_path):
    store = ResultStore(tmp_path / "store")
    os.makedirs(store.root, exist_ok=True)
    store.writer(writer_id=111).append({HASH_FIELD: "aaa", "won": True})
    store.writer(writer_id=222).append({HASH_FIELD: "bbb", "won": True})
    assert len(store.row_files()) == 2
    assert set(store.index()) == {"aaa", "bbb"}


def test_partial_trailing_line_tolerated(tmp_path):
    """A kill mid-write leaves a partial last line; loading skips it and
    the next append repairs the file."""
    store = ResultStore(tmp_path / "store")
    store.add({HASH_FIELD: "aaa", "won": True})
    shard = store.row_files()[0]
    with open(shard, "a", encoding="utf-8") as handle:
        handle.write('{"spec_hash": "bbb", "wo')  # killed mid-write
    assert set(store.index()) == {"aaa"}
    store.add({HASH_FIELD: "ccc", "won": False})
    assert set(store.index()) == {"aaa", "ccc"}


def test_manifest_idempotent(tmp_path):
    store = ResultStore(tmp_path / "store")
    payload = {"kind": "sweep", "name": "m", "localities": [1, 2]}
    digest_one = store.record_manifest(payload)
    digest_two = store.record_manifest(dict(reversed(list(payload.items()))))
    assert digest_one == digest_two
    assert store.manifests() == [payload]
    path = os.path.join(store.root, f"manifest-{digest_one}.json")
    with open(path, "r", encoding="utf-8") as handle:
        assert json.load(handle) == payload


def test_run_ledger_sequences(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.record_run({"campaign": "a", "played": 3})
    store.record_run({"campaign": "a", "played": 0})
    runs = store.runs()
    assert [run["seq"] for run in runs] == [0, 1]
    assert [run["played"] for run in runs] == [3, 0]


def test_add_failure_leaves_store_usable(tmp_path, monkeypatch):
    """A disk-full style OSError mid-append surfaces to the caller, and
    the shard stays parseable for both reads and later appends."""
    import repro.robustness.journal as journal_mod

    store = ResultStore(tmp_path)
    store.add({HASH_FIELD: "aaa", "won": True})

    real_fsync = journal_mod.os.fsync
    fail = {"on": True}

    def flaky_fsync(fd):
        if fail["on"]:
            raise OSError(28, "No space left on device")
        real_fsync(fd)

    monkeypatch.setattr(journal_mod.os, "fsync", flaky_fsync)
    with pytest.raises(OSError, match="No space left"):
        store.add({HASH_FIELD: "bbb", "won": False})

    fail["on"] = False
    # Reads skip over whatever state the failed append left behind.
    assert "aaa" in store.index()
    store.add({HASH_FIELD: "ccc", "won": True})
    index = store.index()
    assert {"aaa", "ccc"} <= set(index)
    assert all(isinstance(row, dict) for row in index.values())


def test_rows_tolerate_concurrent_writer_thread(tmp_path):
    """Regression for the serving tier: ``rows()``/``quarantined()``
    must stay well-formed while another thread is appending — the shard
    list is snapshotted before iteration, so a scan sees each row at
    most once and never crashes on files appearing mid-scan."""
    import threading

    store = ResultStore(tmp_path / "store")
    store.add({HASH_FIELD: "seed", "won": True})
    stop = threading.Event()
    wrote = {"n": 1}  # the seed row

    def writer():
        i = 0
        while not stop.is_set() and i < 400:
            # Rotate writer ids so new shard files keep appearing
            # underneath the readers.
            shard = store.writer(writer_id=20000 + (i % 5))
            shard.append({HASH_FIELD: f"h{i:04d}", "won": True})
            wrote["n"] += 1
            i += 1

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(60):
            rows = store.rows()
            hashes = [row[HASH_FIELD] for row in rows]
            # Each hash is written exactly once: a scan may be behind
            # the writer but must never double-count a row.
            assert len(hashes) == len(set(hashes))
            assert store.quarantined() == []
    finally:
        stop.set()
        thread.join()
    final = store.rows()
    assert len(final) == wrote["n"]
    assert len({row[HASH_FIELD] for row in final}) == wrote["n"]


def unlink_after_snapshot(monkeypatch, name):
    """Make the next shard-list snapshot unlink shard ``name`` before
    ``rows()`` gets to open it."""
    real_row_files = ResultStore.row_files

    def snapshot_then_unlink(self):
        paths = real_row_files(self)
        os.unlink(os.path.join(self.root, name))
        monkeypatch.setattr(ResultStore, "row_files", real_row_files)
        return paths

    monkeypatch.setattr(ResultStore, "row_files", snapshot_then_unlink)


def test_rows_skip_shard_that_vanishes_mid_scan(tmp_path, monkeypatch):
    """A shard unlinked between the file-list snapshot and its open
    contributes nothing instead of raising (the concurrent-reader
    contract documented on ``rows()``)."""
    store = ResultStore(tmp_path / "store")
    store.writer(writer_id=1).append({HASH_FIELD: "aaa", "won": True})
    store.writer(writer_id=2).append({HASH_FIELD: "bbb", "won": False})
    unlink_after_snapshot(monkeypatch, "rows-1.jsonl")
    assert [row[HASH_FIELD] for row in store.rows()] == ["bbb"]


def test_cached_shard_that_vanishes_drops_out(tmp_path, monkeypatch):
    """A shard an earlier read cached drops out of the next read once
    unlinked — before the snapshot or between snapshot and open — and
    a shard recreated at its path is read from byte 0."""
    store = ResultStore(tmp_path / "store")
    store.writer(writer_id=1).append({HASH_FIELD: "aaa", "won": True})
    store.writer(writer_id=2).append({HASH_FIELD: "bbb", "won": False})
    assert set(store.index()) == {"aaa", "bbb"}
    unlink_after_snapshot(monkeypatch, "rows-1.jsonl")
    assert [row[HASH_FIELD] for row in store.rows()] == ["bbb"]

    store.writer(writer_id=1).append({HASH_FIELD: "ccc", "won": True})
    assert set(store.index()) == {"bbb", "ccc"}
    os.unlink(os.path.join(store.root, "rows-2.jsonl"))
    assert [row[HASH_FIELD] for row in store.rows()] == ["ccc"]


def test_quarantined_reuses_precomputed_index(tmp_path):
    """Passing an index means no second scan: derived views built from
    one ``index()`` agree with each other even if the store has since
    changed on disk."""
    store = ResultStore(tmp_path / "store")
    store.add({HASH_FIELD: "aaa", "won": True})
    store.add({HASH_FIELD: "bbb", "won": True, "cause": "poison"})
    index = store.index()
    store.add({HASH_FIELD: "ccc", "won": True, "cause": "poison"})
    assert [row[HASH_FIELD] for row in store.quarantined(index)] == ["bbb"]
    assert [row[HASH_FIELD] for row in store.quarantined()] == ["bbb", "ccc"]


# ----------------------------------------------------------------------
# The shard cursor: every read equals a from-scratch scan
# ----------------------------------------------------------------------


def full_scan(store):
    """The reference read: ``SweepJournal.load()`` over every shard."""
    return [
        row
        for path in store.row_files()
        for row in SweepJournal(path, RESULT_KEY_FIELDS).load()
    ]


class ShardChurn:
    """Seeded operations on a store's shards.  Every line written
    carries a fresh token (``self.n``), as real writers' lines do: rows
    have distinct content and junk is a torn piece of one.  Blank lines
    are the exception."""

    WRITERS = (1, 2, 3)

    def __init__(self, store, rng):
        self.store = store
        self.rng = rng
        self.n = 0
        self.hashes = []

    def row(self):
        self.n += 1
        if self.hashes and self.rng.random() < 0.2:
            digest = self.rng.choice(self.hashes)  # later write wins
        else:
            digest = f"h{self.n}"
            self.hashes.append(digest)
        return {HASH_FIELD: digest, "won": self.rng.random() < 0.5, "n": self.n}

    def line(self):
        """One raw line: blank, junk, non-object, or two rows split by a
        bare carriage return."""
        self.n += 1
        n = self.n
        return self.rng.choice([
            "\n",
            "  \t\n",
            f"junk {n}\n",
            f"[{n}]\n",
            f'"str-{n}"\n',
            f"{n}\n",
            f'{{"{HASH_FIELD}": "cr{n}"}}\r{{"{HASH_FIELD}": "lf{n}"}}\n',
        ])

    def shard(self):
        return self.store.writer(writer_id=self.rng.choice(self.WRITERS)).path

    def write_raw(self, text):
        os.makedirs(self.store.root, exist_ok=True)
        with open(self.shard(), "a", encoding="utf-8") as handle:
            handle.write(text)

    def fresh_bytes(self, at_least):
        """Complete row lines, fresh tokens, longer than ``at_least``."""
        text = ""
        while len(text) <= at_least:
            text += json.dumps(self.row(), sort_keys=True) + "\n"
        return text

    def step(self):
        rng = self.rng
        existing = self.store.row_files()
        op = rng.choice([
            "append", "append", "append_many", "torn", "partial-row",
            "lines", "unlink", "replace-shorter", "recreate-longer",
            "rewrite-longer", "truncate-regrow",
        ])
        if op == "append":
            self.store.writer(writer_id=rng.choice(self.WRITERS)).append(self.row())
        elif op == "append_many":
            self.store.writer(writer_id=rng.choice(self.WRITERS)).append_many(
                [self.row() for _ in range(rng.randint(1, 4))]
            )
        elif op == "torn":
            self.n += 1
            self.write_raw(f'{{"{HASH_FIELD}": "torn{self.n}", "wo')
        elif op == "partial-row":
            self.write_raw(json.dumps(self.row(), sort_keys=True))
        elif op == "lines":
            self.write_raw("".join(self.line() for _ in range(rng.randint(1, 3))))
        elif existing and op == "unlink":
            os.unlink(rng.choice(existing))
        elif existing and op == "replace-shorter":
            path = rng.choice(existing)
            size = os.path.getsize(path)
            text = json.dumps(self.row(), sort_keys=True) + "\n"
            if len(text) >= size:
                text = ""
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        elif existing and op in ("recreate-longer", "rewrite-longer"):
            # The same writer id rewrites its shard between two reads.
            # Unlink + create often gets the freed inode number back;
            # truncating in place always keeps it.
            path = rng.choice(existing)
            size = os.path.getsize(path)
            if op == "recreate-longer":
                os.unlink(path)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(self.fresh_bytes(size))
        elif existing and op == "truncate-regrow":
            # Cut the shard anywhere (its first line may survive), then
            # grow it past its old length.
            path = rng.choice(existing)
            size = os.path.getsize(path)
            cut = rng.randint(0, size)
            os.truncate(path, cut)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(self.fresh_bytes(size - cut))
        else:
            return None  # nothing to unlink or replace yet
        return op


def test_cursor_matches_full_scan_differential(tmp_path):
    """A long-lived instance's ``rows()`` and ``index()`` equal a
    from-scratch scan after every one of ~60 seeded shard operations,
    over 200 seeds."""
    ops_seen = set()
    for seed in range(200):
        store = ResultStore(tmp_path / f"store-{seed}")
        churn = ShardChurn(store, random.Random(seed))
        for step in range(60):
            ops_seen.add(churn.step())
            expected = full_scan(store)
            assert store.rows() == expected, (seed, step)
            assert store.index() == {
                row[HASH_FIELD]: row for row in expected if HASH_FIELD in row
            }, (seed, step)
    assert len(ops_seen - {None}) == 10  # every operation kind ran


@pytest.mark.parametrize("rewrite", ["unlink", "truncate"])
def test_cursor_rereads_shard_recreated_at_same_path(tmp_path, rewrite):
    """Regression: the same writer id rewrites its shard, longer than
    before, between two reads.  Inode and size cannot tell this from an
    append: unlink + create often gets the freed inode number back, and
    truncating in place always keeps it.  With only those checks a
    cursor serves the three deleted rows and misses three new ones."""
    store = ResultStore(tmp_path / "store")
    old = [{HASH_FIELD: f"old{i}", "won": True} for i in range(3)]
    shard = store.writer(writer_id=7)
    shard.append_many(old)
    assert store.rows() == old
    if rewrite == "unlink":
        os.unlink(shard.path)
    else:
        os.truncate(shard.path, 0)
    new = [{HASH_FIELD: f"new{i}", "won": False} for i in range(6)]
    shard.append_many(new)
    assert store.rows() == new
    assert store.rows() == full_scan(store)


def test_cursor_rereads_shard_rewritten_behind_its_first_line(tmp_path):
    """Regression: a shard cut back to its first line and regrown keeps
    its inode and its first line, so only the last consumed line shows
    the rewrite — and a blank last line would not: the anchor reaches
    back to the last line that holds content."""
    store = ResultStore(tmp_path / "store")
    shard = store.writer(writer_id=7)
    shard.append_many([{HASH_FIELD: "aaa"}, {HASH_FIELD: "bbb"}])
    with open(shard.path, "a", encoding="utf-8") as handle:
        handle.write("\n")
    assert [row[HASH_FIELD] for row in store.rows()] == ["aaa", "bbb"]
    first_line = len(json.dumps({HASH_FIELD: "aaa"})) + 1
    os.truncate(shard.path, first_line)
    shard.append_many([{HASH_FIELD: "ccc"}])
    with open(shard.path, "a", encoding="utf-8") as handle:
        handle.write("\n")
    shard.append_many([{HASH_FIELD: "ddd"}])
    assert [row[HASH_FIELD] for row in store.rows()] == ["aaa", "ccc", "ddd"]


def test_cursor_reads_are_isolated_from_caller_mutation(tmp_path):
    """Each call hands out a new list / dict: changing one leaves the
    next read untouched."""
    store = ResultStore(tmp_path / "store")
    store.add_many(
        [{HASH_FIELD: "aaa", "won": True}, {HASH_FIELD: "bbb", "won": False}]
    )
    rows = store.rows()
    rows.append({HASH_FIELD: "zzz"})
    del rows[0]
    index = store.index()
    index["zzz"] = {HASH_FIELD: "zzz"}
    del index["aaa"]
    assert [row[HASH_FIELD] for row in store.rows()] == ["aaa", "bbb"]
    assert set(store.index()) == {"aaa", "bbb"}


def test_cursor_parses_only_new_lines(tmp_path, monkeypatch):
    """A repeat read with no new bytes parses nothing; after one
    ``add()`` it parses exactly the one new line."""
    import repro.robustness.journal as journal_mod

    parsed = []
    real_parse_line = journal_mod.parse_line

    def counting_parse_line(line):
        parsed.append(line)
        return real_parse_line(line)

    monkeypatch.setattr(journal_mod, "parse_line", counting_parse_line)
    store = ResultStore(tmp_path / "store")
    store.add_many([{HASH_FIELD: f"h{i}", "won": True} for i in range(5)])
    assert len(store.index()) == 5
    assert len(parsed) == 5
    parsed.clear()
    assert len(store.index()) == 5
    assert parsed == []
    store.add({HASH_FIELD: "h5", "won": False})
    assert len(store.index()) == 6
    assert len(parsed) == 1


def test_concurrent_readers_share_one_instance(tmp_path):
    """8 reader threads on one instance while a writer appends under 3
    rotating writer ids: no read holds a row twice, no thread's row count
    ever shrinks, and the final read equals a fresh instance's."""
    import threading

    store = ResultStore(tmp_path / "store")
    store.add({HASH_FIELD: "seed", "won": True})
    writer_done = threading.Event()
    failures = []

    def writer():
        try:
            for i in range(300):
                store.writer(writer_id=30000 + i % 3).append(
                    {HASH_FIELD: f"w{i:04d}", "won": True}
                )
        finally:
            writer_done.set()

    def reader():
        seen = 0
        try:
            while True:
                finished = writer_done.is_set()
                hashes = [row[HASH_FIELD] for row in store.rows()]
                if len(hashes) != len(set(hashes)):
                    failures.append("a row appeared twice in one read")
                if len(hashes) < seen:
                    failures.append(f"row count fell from {seen} to {len(hashes)}")
                seen = len(hashes)
                if finished:
                    return
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(repr(exc))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(8)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    assert failures == []
    final = store.rows()
    assert len(final) == 301
    assert final == ResultStore(store.root).rows()
