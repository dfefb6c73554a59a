"""Tournament rows: one adversary-vs-victim outcome per game.

The tournament plays the full cartesian product of

* adversaries — Theorem 1 (grids), Theorem 2 (torus + cylinder),
  Theorem 3 (gadgets, both the 2k−2 and the k+1 color budgets), and
  Theorem 5 (the reduction chain), and
* victims — greedy, the truncated Akbari algorithm, the sandwiched
  LOCAL baseline, and (optionally) the fault-injection family.

It is a pre-baked campaign
(:meth:`repro.analysis.campaign.CampaignSpec.tournament`), played by
the campaign engine through :func:`repro.api.run_tournament` or
``repro tournament``.  This module holds the row type those entry
points return and the predicates callers assert with; the paper's
prediction is a clean sweep over the honest victims.

Every game runs inside a :class:`~repro.robustness.supervisor.SupervisedGame`
boundary: a victim that raises, loops forever, or breaks the model
contract yields a *forfeit* row (``row.forfeit`` true, reason prefixed
``"forfeit:"``) instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.adversaries.result import AdversaryResult


@dataclass
class TournamentRow:
    """One adversary-vs-victim game outcome.

    ``forfeit`` marks wins awarded by the supervisor (victim crash,
    timeout, protocol violation) rather than earned on the board;
    ``detail`` carries the machine-readable failure description for
    forfeit rows, ``error_type`` the triggering exception class, and
    ``failed_at_step`` the reveal index the game had reached when it
    failed (None for non-forfeit rows and fixed-victim games).
    """

    adversary: str
    victim: str
    locality: int
    won: bool
    reason: str
    forfeit: bool = False
    detail: str = ""
    error_type: str = ""
    failed_at_step: Optional[int] = None
    #: Declared instance size, when the adversary reports one (campaign
    #: threshold tables key on it; None for adversaries that don't).
    n: Optional[int] = None


def _row_from_result(
    adversary: str, victim: str, locality: int, result: AdversaryResult
) -> TournamentRow:
    detail = ""
    error_type = ""
    failed_at_step = None
    if result.forfeit:
        detail = str(
            result.stats.get("error") or result.stats.get("violation") or ""
        )
        error_type = str(result.stats.get("error_type", ""))
        failed_at_step = result.stats.get("failed_at_step")
    return TournamentRow(
        adversary=adversary,
        victim=victim,
        locality=locality,
        won=result.won,
        reason=result.reason,
        forfeit=result.forfeit,
        detail=detail,
        error_type=error_type,
        failed_at_step=failed_at_step,
        n=result.stats.get("declared_n"),
    )


def clean_sweep(rows: List[TournamentRow]) -> bool:
    """Whether the adversaries won every game — the paper's prediction."""
    return all(row.won for row in rows)


def honest_rows(rows: List[TournamentRow]) -> List[TournamentRow]:
    """The rows whose victim is honest (no injected fault)."""
    return [row for row in rows if not row.victim.startswith("faulty-")]


def forfeit_rows(rows: List[TournamentRow]) -> List[TournamentRow]:
    """The rows won by supervisor forfeit rather than on the board."""
    return [row for row in rows if row.forfeit]
