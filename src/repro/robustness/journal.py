"""Crash-safe journaling: the JSON-lines primitive for kill-safe records.

A :class:`SweepJournal` records one JSON object per completed game (or
trace event, or run-ledger entry) and can be reloaded after a crash or
kill.  Rows are keyed by caller-chosen tuples — the result store keys
rows by content hash, traces by ``(src, seq)``, and the single-game CLI
checkpoint by ``(adversary, victim, locality)``.

The format is deliberately append-only, one self-contained JSON object
per line, flushed per write: killing the process mid-sweep loses at most
the in-flight game.  A trailing partial line (the kill landed mid-write)
is detected and ignored on load.
"""

from __future__ import annotations

import glob as _glob
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

Key = Tuple[Any, ...]


def parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """The row one journal line holds, or ``None`` for a line readers
    skip: blank, not JSON (a torn tail from a kill mid-write), or JSON
    that is not an object.  A line that is not UTF-8 raises
    :class:`UnicodeDecodeError`: writers emit ASCII, so such a file is
    not a journal at all.

    This is the one rule every journal reader applies, whether it reads
    a whole file (:meth:`SweepJournal.load`) or only the bytes appended
    since its last read (the result store's shard cursor).
    """
    text = line.decode("utf-8").strip()
    if not text:
        return None
    try:
        row = json.loads(text)
    except json.JSONDecodeError:
        return None
    return row if isinstance(row, dict) else None


def parse_rows(data: bytes) -> List[Dict[str, Any]]:
    """Every row in a run of journal bytes, in order.

    Lines break at ``\\n``, ``\\r`` and ``\\r\\n``, the breaks text-mode
    reading recognises, and each line goes through :func:`parse_line`.
    Splitting a run just after a ``\\n`` and parsing the two halves
    yields the same rows as parsing it whole, which is what lets a
    reader parse a file incrementally.
    """
    rows: List[Dict[str, Any]] = []
    for line in data.splitlines():
        row = parse_line(line)
        if row is not None:
            rows.append(row)
    return rows


class SweepJournal:
    """Append-only JSON-lines journal of completed sweep rows.

    Parameters
    ----------
    path:
        Journal file location.  Parent directories are created lazily on
        first append.
    key_fields:
        The row fields forming the resume key, in order.
    """

    def __init__(self, path, key_fields: Iterable[str]) -> None:
        self.path = os.fspath(path)
        self.key_fields = tuple(key_fields)
        if not self.key_fields:
            raise ValueError("key_fields must name at least one field")

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self) -> List[Dict[str, Any]]:
        """Every complete row on disk, in append order.

        Corrupt or partial trailing lines are skipped (they are the
        signature of a kill mid-write, which resume must survive); the
        rule is :func:`parse_line`'s.
        """
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as handle:
            return [row for line in handle for row in parse_rows(line)]

    def completed(self) -> Dict[Key, Dict[str, Any]]:
        """Rows keyed by their resume key (later entries win).

        Keys are normalized (:meth:`key_of`), so a key computed from a
        live in-memory row always matches the key of the same row after
        a JSON round-trip through the journal file.
        """
        return {self.key_of(row): row for row in self.load()}

    def key_of(self, row: Dict[str, Any]) -> Key:
        """The resume key of a row dict, with canonicalized value types.

        Journal rows pass through JSON (``json.dumps(..., default=str)``),
        which turns tuples into lists and non-JSON values into strings.
        Without normalization a live row keyed ``("adv", ("a", 1), 2)``
        never matches its reloaded twin ``("adv", ["a", 1], 2)`` and every
        resume replays the whole sweep.  Canonicalization mirrors exactly
        what the round-trip does — lists become tuples again, exotic
        values become their ``str`` — while **preserving** scalar types,
        so an integer locality ``1`` stays distinct from a string ``"1"``.
        """
        return tuple(self._canonical(row.get(field)) for field in self.key_fields)

    @classmethod
    def _canonical(cls, value: Any) -> Any:
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, (list, tuple)):
            return tuple(cls._canonical(item) for item in value)
        if isinstance(value, (int, float, str)):
            return value
        return str(value)  # what json.dumps(default=str) stores

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, row: Dict[str, Any]) -> None:
        """Record one completed row, flushed to disk immediately."""
        self.append_many([row])

    def append_many(self, rows: Iterable[Dict[str, Any]]) -> None:
        """Record a batch of rows under one buffered write + one fsync.

        Same durability contract as :meth:`append` — once this returns,
        every row in the batch survives a kill — but the fsync cost is
        paid once per batch instead of once per row, which is what makes
        chunked campaign scheduling pay off (a worker fsyncing per game
        spends ~a quarter of its compute budget in the disk).  A kill
        mid-batch can tear only the final line, exactly like a kill
        mid-append; :meth:`load` skips the tear and the next write
        repairs it.
        """
        lines = "".join(
            json.dumps(row, sort_keys=True, default=str) + "\n" for row in rows
        )
        if not lines:
            return
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # A kill mid-write can leave a partial line with no newline; a
        # fresh row must not be glued onto it (both would be lost).
        repair = ""
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            with open(self.path, "rb") as tail:
                tail.seek(-1, os.SEEK_END)
                if tail.read(1) != b"\n":
                    repair = "\n"
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(repair + lines)
            handle.flush()
            os.fsync(handle.fileno())

    def clear(self) -> None:
        """Delete the journal file (start a sweep from scratch)."""
        if os.path.exists(self.path):
            os.remove(self.path)

    def __len__(self) -> int:
        return len(self.load())

    # ------------------------------------------------------------------
    # Worker shards
    # ------------------------------------------------------------------
    def shard(self, worker_id) -> "SweepJournal":
        """A sibling journal for one concurrent writer.

        Each writer process gets its own append-only shard
        (``<path>.shard-<worker_id>``) so writers never contend on the
        main journal file; :meth:`merge_shards` folds the shards back in
        when the run completes (or on resume after a kill).
        """
        return SweepJournal(f"{self.path}.shard-{worker_id}", self.key_fields)

    def shard_paths(self) -> List[str]:
        """Every shard file currently on disk, in sorted order."""
        return sorted(_glob.glob(_glob.escape(self.path) + ".shard-*"))

    def merge_shards(self, shard_paths: Optional[Iterable[str]] = None) -> int:
        """Concatenate worker shards into the main journal; returns the
        number of rows merged.

        Rows whose resume key is already present in the main journal are
        skipped (a worker may have raced a row the parent also recorded).
        Merged shard files are deleted; a kill mid-merge is safe because
        a shard is only removed after every row it holds is in the main
        journal, and re-merging surviving shards just deduplicates.
        """
        paths = list(shard_paths) if shard_paths is not None else self.shard_paths()
        done = self.completed()
        merged = 0
        for path in paths:
            shard = SweepJournal(path, self.key_fields)
            for row in shard.load():
                key = self.key_of(row)
                if key in done:
                    continue
                self.append(row)
                done[key] = row
                merged += 1
            shard.clear()
        return merged
