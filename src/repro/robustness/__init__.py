"""Fault tolerance for the reproduction harness.

Submodules
----------
``errors``
    The structured exception hierarchy (``ReproError`` and friends).
``supervisor``
    :class:`SupervisedGame` / :class:`SupervisedAlgorithm` — the hardened
    execution boundary around adversary-vs-victim games.
``faults``
    Deliberately broken algorithms (the fault-injection victim family).
``journal``
    The append-only JSON-lines primitive under the result store and
    the traces.

Only ``errors`` is imported eagerly: ``repro.models.base`` imports the
hierarchy from here, so the heavier submodules (which import
``models.base`` back) are loaded lazily via PEP 562 to keep the import
graph acyclic.
"""

from __future__ import annotations

from repro.robustness.errors import (
    GameTimeout,
    InvalidColorError,
    LocalityViolation,
    ProtocolViolation,
    RecoloringError,
    ReproError,
    RevealOrderError,
    StepBudgetExceeded,
    UnknownHostNodeError,
    VictimCrash,
)

__all__ = [
    "ReproError",
    "ProtocolViolation",
    "InvalidColorError",
    "LocalityViolation",
    "RecoloringError",
    "RevealOrderError",
    "UnknownHostNodeError",
    "GameTimeout",
    "StepBudgetExceeded",
    "VictimCrash",
    # Lazily resolved:
    "GamePolicy",
    "SupervisedAlgorithm",
    "SupervisedGame",
    "FaultyAlgorithm",
    "CrashingAlgorithm",
    "InvalidColorAlgorithm",
    "NoneReturningAlgorithm",
    "InfiniteLoopAlgorithm",
    "FlipFlopAlgorithm",
    "faulty_victims",
    "SweepJournal",
]

_LAZY = {
    "GamePolicy": "repro.robustness.supervisor",
    "SupervisedAlgorithm": "repro.robustness.supervisor",
    "SupervisedGame": "repro.robustness.supervisor",
    "FaultyAlgorithm": "repro.robustness.faults",
    "CrashingAlgorithm": "repro.robustness.faults",
    "InvalidColorAlgorithm": "repro.robustness.faults",
    "NoneReturningAlgorithm": "repro.robustness.faults",
    "InfiniteLoopAlgorithm": "repro.robustness.faults",
    "FlipFlopAlgorithm": "repro.robustness.faults",
    "faulty_victims": "repro.robustness.faults",
    "SweepJournal": "repro.robustness.journal",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
