"""Content-addressed result store: kill-safe progress for campaigns.

A :class:`ResultStore` is a directory of append-only JSON-lines shards
holding one row per *finished* game, keyed by :func:`spec_hash` — the
SHA-256 of the game's canonical spec payload.  Content addressing is
what generalizes :meth:`SweepJournal <repro.robustness.journal.SweepJournal>`
resume from one journal file to a store directory:

* **Re-running a campaign replays nothing** — every expanded game whose
  hash is already in the store is served from disk, whoever wrote it.
* **Overlapping campaigns dedupe automatically** — two specs that expand
  to the same game hash to the same key, so a threshold search reuses
  the grid sweep's rows (and vice versa) without coordination.
* **A kill loses at most each writer's in-flight chunk** — each writer
  process appends to its own ``rows-<pid>.jsonl`` shard with the
  journal's flush-and-fsync discipline, one :meth:`ResultStore.add_many`
  per chunk of games (``worker_pool.play_chunk``, on the serial and the
  pooled path alike; a chunk size of 1 writes per game); partial
  trailing lines from a kill mid-write are skipped on load and
  repaired on the next append.

What goes into the hash is the *semantic* identity of a game: adversary
name + parameters, victim name, locality, and the step budget (which
changes outcomes deterministically).  The wall-clock timeout is
deliberately excluded — it is a property of the machine, not the game —
as are run-level settings (worker count, journal/trace paths).

Reads tail the shards instead of re-scanning them.  Shards are
append-only, so each :class:`ResultStore` instance keeps a cursor per
shard — the offset just past the last newline it consumed and the rows
those bytes hold — and every read parses only the bytes appended since
the previous one.  A long-lived reader (the HTTP server holds one store
for its whole life) thus pays for each row once, not once per request.
Every read still returns exactly what a from-scratch scan would:

* a trailing segment with no newline yet is parsed on every read and
  never cached, so a torn tail is skipped until the repair newline of
  the next append turns it into a complete (junk or valid) line;
* a shard that vanishes or fails to open or read contributes nothing
  and loses its cursor, and a new shard is read from byte 0;
* a shard that was truncated, replaced or deleted and recreated is
  re-read from byte 0.  The cursor detects this by the shard's inode
  and by re-reading two small anchors: the shard's first line and the
  last line it consumed (each extended over adjacent blank lines, which
  hold no rows).  Inode numbers alone are not enough, because a file
  recreated right after an unlink usually gets the freed inode back.
  A rewrite that keeps the inode *and* reproduces both anchors at the
  same offsets while changing bytes between them breaks the
  append-only contract undetected; writers never do that.
"""

from __future__ import annotations

import glob as _glob
import hashlib
import json
import os
import threading
from typing import Any, BinaryIO, Dict, List, Mapping, Optional, Sequence

from repro.observability.trace import span
from repro.robustness.journal import SweepJournal, parse_rows

#: The row field carrying the content address.
HASH_FIELD = "spec_hash"

#: Result rows are keyed by their content address alone.
RESULT_KEY_FIELDS = (HASH_FIELD,)

#: The ``cause`` value marking rows written by the supervised pool's
#: poison-game quarantine (:mod:`repro.analysis.worker_pool`): the game
#: repeatedly killed or hung its worker, so a structured forfeit row is
#: stored in its place and resume never replays it.
QUARANTINE_CAUSE = "poison"

#: The forfeit reason quarantine rows carry.
QUARANTINE_REASON = "forfeit:poison"


def canonical_json(payload: Mapping[str, Any]) -> str:
    """The canonical serialization hashed by :func:`spec_hash`: sorted
    keys, no whitespace, non-JSON values via ``str`` — so logically equal
    payloads always serialize identically."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def spec_hash(payload: Mapping[str, Any]) -> str:
    """The content address of a game spec payload (SHA-256 hex)."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class ResultStore:
    """A directory of content-addressed result rows plus campaign
    manifests and a run ledger.

    Layout::

        <root>/rows-<pid>.jsonl       finished rows, one writer per file
        <root>/manifest-<hash>.json   campaign specs that ran here
        <root>/runs.jsonl             one summary line per run (ledger)

    Rows are plain dicts carrying at least :data:`HASH_FIELD`; loading
    tolerates partial trailing lines (a kill mid-write), exactly like
    the sweep journal whose machinery this reuses.

    Reads go through per-shard cursors (see the module docstring) held
    by this instance and guarded by one lock, so one instance may be
    read from several threads at once.  The lock does not pickle: hand
    worker processes :attr:`root`, never the store.
    """

    def __init__(self, root) -> None:
        self.root = os.fspath(root)
        self._lock = threading.Lock()
        self._cursors: Dict[str, _ShardCursor] = {}

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------
    def writer(self, writer_id: Optional[int] = None) -> SweepJournal:
        """This process's append-only row shard (``rows-<pid>.jsonl``)."""
        if writer_id is None:
            writer_id = os.getpid()
        return SweepJournal(
            os.path.join(self.root, f"rows-{writer_id}.jsonl"),
            RESULT_KEY_FIELDS,
        )

    def row_files(self) -> List[str]:
        """Every row shard on disk, in sorted (deterministic) order."""
        return sorted(
            _glob.glob(os.path.join(_glob.escape(self.root), "rows-*.jsonl"))
        )

    def rows(self) -> List[Dict[str, Any]]:
        """Every complete row across all shards (file order, then append
        order within a file) — exactly what :meth:`SweepJournal.load`
        over each of :meth:`row_files` returns, parsing only the bytes
        appended since this instance's previous read.

        The list is new on every call, but the row dicts in it are
        shared with earlier and later calls on this instance: treat them
        as read-only (copy a row before changing it).

        Safe against concurrent writers (the serving path reads a store
        that a running campaign is appending to): the shard file list is
        snapshotted once before any file is opened, each shard is read
        once per call (so a row is counted at most once), a shard that
        appears after the snapshot is simply picked up by the next
        call, and a shard that vanishes or errors mid-read contributes
        nothing rather than raising.  A concurrent append can at worst
        leave a partial trailing line, which is skipped until complete.
        Concurrent readers on one instance take turns under its lock.
        """
        out: List[Dict[str, Any]] = []
        with self._lock, span("store-index"):
            paths = self.row_files()  # one snapshot, taken up front
            for gone in self._cursors.keys() - set(paths):
                del self._cursors[gone]
            for path in paths:
                try:
                    out.extend(self._shard_rows(path))
                except OSError:
                    # Unlinked or unreadable between snapshot and read —
                    # treat as not-yet-visible, like a row landing just
                    # after this read; the next read starts it afresh.
                    self._cursors.pop(path, None)
        return out

    def _shard_rows(self, path: str) -> List[Dict[str, Any]]:
        """One shard's rows, advancing its cursor over the complete
        lines appended since the last read (caller holds the lock)."""
        with open(path, "rb") as handle:
            inode = os.fstat(handle.fileno()).st_ino
            cursor = self._cursors.get(path)
            if cursor is None or not cursor.still_prefix(handle, inode):
                cursor = self._cursors[path] = _ShardCursor(inode)
            handle.seek(cursor.offset)
            for line in handle:
                if not line.endswith(b"\n"):  # the tail: never cached
                    return cursor.rows + parse_rows(line)
                cursor.consume(line)
        return cursor.rows

    def index(self) -> Dict[str, Dict[str, Any]]:
        """Rows keyed by content address (later writes win), built from
        one :meth:`rows` call: a new dict each time, holding the same
        shared, read-only row dicts.

        One consistent read: callers that need several views of the same
        moment (progress counts plus quarantine lists, say) should take
        one ``index()`` and derive everything from it — see
        :meth:`quarantined`'s ``index`` parameter — instead of
        re-reading between views while a writer is appending.
        """
        return {
            row[HASH_FIELD]: row for row in self.rows() if HASH_FIELD in row
        }

    def add(self, row: Mapping[str, Any]) -> None:
        """Record one finished row (must carry :data:`HASH_FIELD`),
        flushed and fsynced before returning."""
        self.add_many([row])

    def add_many(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Record a batch of finished rows under one buffered write and a
        single fsync (the chunked worker pool's ack granularity).

        The durability contract is unchanged: once this returns, every
        row in the batch is on disk.  A kill mid-batch tears at most the
        final line, which load-time tolerance already skips and the next
        append repairs — so chunking changes the fsync *count*, not the
        kill-safety discipline.
        """
        for row in rows:
            if HASH_FIELD not in row:
                raise ValueError(f"result rows must carry {HASH_FIELD!r}")
        if not rows:
            return
        with span("store-fsync"):
            os.makedirs(self.root, exist_ok=True)
            self.writer().append_many([dict(row) for row in rows])

    def quarantined(
        self, index: Optional[Mapping[str, Dict[str, Any]]] = None
    ) -> List[Dict[str, Any]]:
        """Every quarantine row in the store (``cause="poison"``) —
        games the supervised pool gave up replaying because they
        repeatedly killed or hung their workers.

        Pass a precomputed ``index`` to reuse one scan for several
        derived views (the server builds progress counts and the
        quarantine list from the same snapshot, so a writer appending
        between reads cannot make the two disagree).
        """
        if index is None:
            index = self.index()
        return [
            row
            for row in index.values()
            if row.get("cause") == QUARANTINE_CAUSE
        ]

    def __contains__(self, spec_hash_value: object) -> bool:
        return spec_hash_value in self.index()

    def __len__(self) -> int:
        return len(self.index())

    # ------------------------------------------------------------------
    # Manifests
    # ------------------------------------------------------------------
    def record_manifest(self, campaign_payload: Mapping[str, Any]) -> str:
        """Persist a campaign spec payload (idempotent; content-addressed
        like the rows); returns its hash."""
        digest = spec_hash(campaign_payload)
        os.makedirs(self.root, exist_ok=True)
        path = os.path.join(self.root, f"manifest-{digest}.json")
        if not os.path.exists(path):
            tmp = f"{path}.tmp-{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(dict(campaign_payload), handle, sort_keys=True,
                          indent=2, default=str)
                handle.write("\n")
            os.replace(tmp, path)
        return digest

    def manifests(self) -> List[Dict[str, Any]]:
        """Every campaign spec recorded in this store, sorted by hash."""
        out: List[Dict[str, Any]] = []
        pattern = os.path.join(_glob.escape(self.root), "manifest-*.json")
        for path in sorted(_glob.glob(pattern)):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):  # pragma: no cover
                continue
            if isinstance(payload, dict):
                out.append(payload)
        return out

    # ------------------------------------------------------------------
    # Run ledger
    # ------------------------------------------------------------------
    def record_run(self, summary: Mapping[str, Any]) -> None:
        """Append one run-summary line to the ledger (kill-safe append)."""
        os.makedirs(self.root, exist_ok=True)
        ledger = SweepJournal(
            os.path.join(self.root, "runs.jsonl"), ("seq",)
        )
        entry = dict(summary)
        entry["seq"] = len(ledger.load())
        ledger.append(entry)

    def runs(self) -> List[Dict[str, Any]]:
        """The run ledger, in append order."""
        ledger = SweepJournal(
            os.path.join(self.root, "runs.jsonl"), ("seq",)
        )
        return ledger.load()


class _ShardCursor:
    """How far one shard has been read.

    ``offset`` is just past the last newline consumed and ``rows`` holds
    the rows of the bytes before it.  ``head`` (the bytes from offset 0
    through the first non-blank line) and ``last`` (the bytes from
    ``last_at`` to ``offset``: the last non-blank consumed line and any
    blank lines after it) are the anchors :meth:`still_prefix` re-reads
    to tell an append from a rewrite.
    """

    __slots__ = ("inode", "offset", "rows", "head", "last_at", "last")

    def __init__(self, inode: int) -> None:
        self.inode = inode
        self.offset = 0
        self.rows: List[Dict[str, Any]] = []
        self.head = b""
        self.last_at = 0
        self.last = b""

    def still_prefix(self, handle: BinaryIO, inode: int) -> bool:
        """Whether the open shard still starts with the bytes consumed
        so far (same inode, both anchors unchanged)."""
        if inode != self.inode or handle.read(len(self.head)) != self.head:
            return False
        handle.seek(self.last_at)
        return handle.read(len(self.last)) == self.last

    def consume(self, line: bytes) -> None:
        """Fold one complete line (ending in a newline), read at
        :attr:`offset`, into the cursor."""
        self.rows.extend(parse_rows(line))
        if not self.head.strip():
            self.head += line
        if line.strip():
            self.last_at, self.last = self.offset, line
        else:
            self.last += line
        self.offset += len(line)
