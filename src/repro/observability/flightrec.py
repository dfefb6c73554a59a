"""Flight recorder: a bounded ring of recent events, dumped on faults.

Chaos-hardened campaigns fail in ways counters cannot explain after the
fact: ``campaign_lease_expirations == 3`` says three workers hung, not
*which* games they held, in what order, or what the pool did next.  The
full tracer answers that but is disabled by default precisely because
recording everything costs too much for always-on use.

The flight recorder is the middle path, borrowed from avionics: an
in-process ring buffer (:class:`FlightRecorder`, default 1024 entries)
that is **always on** and **always cheap** — recording an event is a
dict build plus a ``deque.append``, no clock syscalls beyond one
``time.monotonic`` and no I/O — and is written to disk only when
something goes wrong.  Harness sites record into it only through
:func:`repro.observability.trace.event`, which also writes the same
transition to the trace while tracing.  The supervisor dumps it on:

* lease expiry (a worker hung past its deadline and was SIGKILLed),
* poison quarantine (a game killed ``poison_threshold`` workers),
* pool degradation (restart budget exhausted, falling back to serial),
* an unhandled scheduler exception escaping a campaign run.

Dumps follow the repo's kill-safe artifact discipline: the records are
written to a temp file, flushed, fsynced, and atomically renamed into
place (``flight-<pid>.jsonl`` under the campaign store), so a fault
*during* the dump leaves either the previous dump or a complete new one
— never a torn file.  Each dump starts with a header record carrying the
trigger reason, pid, and drop count, followed by the buffered events
oldest-first.  ``repro campaign status`` points at dumps it finds, and
the CI chaos job uploads them as workflow artifacts.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional

#: Default ring capacity — enough for the full event history of a small
#: campaign and the recent tail of a large one, at ~100 bytes a record.
DEFAULT_CAPACITY = 1024

#: Filename pattern for dumps inside a campaign store directory.
DUMP_PREFIX = "flight-"
DUMP_SUFFIX = ".jsonl"


class FlightRecorder:
    """A bounded, always-on ring buffer of recent structured events.

    Events are plain dicts: a monotonic sequence number, a
    ``time.monotonic`` timestamp (durations between records are
    meaningful; absolute values are not), a ``kind`` string, and
    whatever keyword fields the call site attached.  When the ring is
    full the oldest event is discarded and a drop counter incremented,
    so a dump always says how much history it is missing.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event (cheap; safe to call on every state change)."""
        if len(self._ring) == self.capacity:
            self._dropped += 1
        event = {"seq": self._seq, "ts": time.monotonic(), "kind": kind}
        if fields:
            event.update(fields)
        self._seq += 1
        self._ring.append(event)

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events discarded because the ring was full."""
        return self._dropped

    def events(self) -> List[Dict[str, Any]]:
        """The buffered events, oldest first (a copy)."""
        return list(self._ring)

    def clear(self) -> None:
        """Forget everything (sequence numbers keep increasing)."""
        self._ring.clear()
        self._dropped = 0

    def dump(self, path: str, reason: str) -> str:
        """Write the ring to ``path`` as JSON lines, kill-safely.

        The first line is a ``flight-dump`` header (reason, pid, event
        count, drop count); the rest are the events oldest-first.  The
        write goes through a temp file + fsync + atomic rename so a
        crash mid-dump never leaves a torn artifact.  Returns ``path``.
        """
        events = self.events()
        header = {
            "kind": "flight-dump",
            "reason": reason,
            "pid": os.getpid(),
            "events": len(events),
            "dropped": self._dropped,
            "capacity": self.capacity,
        }
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path


#: The process-wide recorder every harness component records into.
FLIGHT = FlightRecorder()


def flight_dump_path(root: str) -> str:
    """The dump path for this process under a campaign store ``root``."""
    return os.path.join(root, f"{DUMP_PREFIX}{os.getpid()}{DUMP_SUFFIX}")


def find_flight_dumps(root: str) -> List[str]:
    """Flight-recorder dumps present under ``root``, sorted by name."""
    try:
        names = os.listdir(root)
    except OSError:
        return []
    return sorted(
        os.path.join(root, name)
        for name in names
        if name.startswith(DUMP_PREFIX) and name.endswith(DUMP_SUFFIX)
    )


def read_flight_dump(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the records of a dump, tolerating a torn trailing line.

    The dump itself is written atomically, but the reader stays as
    forgiving as the journal loaders anyway — a half-line at EOF (e.g.
    a dump truncated by an exotic filesystem) is skipped, not fatal.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


def dump_on_fault(root: Optional[str], reason: str, **fields: Any) -> Optional[str]:
    """Record a fault event and dump the ring under ``root``.

    The supervisor's one-liner: records ``kind="fault"`` with the
    caller's fields through :func:`~repro.observability.trace.event`
    (so a traced run sees the fault too), then dumps next to the
    campaign store.  Returns the dump path, or ``None`` when ``root`` is
    unset or the dump itself fails (a flight recorder must never turn a
    fault into a second fault — the original error always propagates
    instead).
    """
    from repro.observability.trace import event

    event("fault", reason=reason, **fields)
    if not root:
        return None
    try:
        return FLIGHT.dump(flight_dump_path(root), reason)
    except OSError:
        return None
