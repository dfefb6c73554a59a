"""The Theorem 3 adversary: Ω(n) for (2k-2)-coloring k-partite graphs.

The hard instance is the gadget chain :math:`G^*` (Section 4).  Under a
proper (2k-2)-coloring every gadget is exactly one of row-colorful /
column-colorful (Claim 4.5), and consecutive gadgets must agree
(Lemma 4.6) — so all gadgets agree.

The adversary reveals the first and last gadgets; with locality
``T ≤ (length - 3) / 2`` their discovered regions are disjoint, so the
algorithm cannot tell rows from columns in the far fragment.  Transposing
every gadget is a full-host automorphism, so the adversary commits the
far fragment *transposed* whenever the two end gadgets initially agree —
forcing row-colorful vs column-colorful ends.  Completing the coloring
then necessarily creates a monochromatic edge somewhere along the chain.
"""

from __future__ import annotations

from typing import Optional

from repro.adversaries.result import AdversaryError, AdversaryResult
from repro.families.gadgets import GadgetChain
from repro.models.adaptive import LateAutomorphismInstance
from repro.models.base import AlgorithmError, OnlineAlgorithm
from repro.observability.metrics import get_registry
from repro.observability.trace import TRACER
from repro.verify.coloring import find_monochromatic_edge
from repro.verify.gadget_props import classify_gadget


class GadgetAdversary:
    """Defeats (2k-2)-coloring of the gadget chain at locality o(n).

    Parameters
    ----------
    k:
        Gadget dimension (the graph is k-partite).  Needs ``k >= 3`` —
        for k = 2 the statement is false (Corollary 1.1).
    locality:
        The victim's locality budget ``T``.
    length:
        Number of gadgets; defaults to the smallest value keeping the two
        end fragments disjoint, ``2T + 3``.
    colors:
        The color budget ``c``; defaults to the theorem's ``2k - 2`` and
        may be anything in ``k .. 2k - 2`` — Claims 4.3/4.5 only need "at
        most 2k-2", so the same adversary realizes Corollary 1.3
        ((k+1)-coloring k-partite graphs has locality Ω(n) for k ≥ 3) by
        setting ``colors = k + 1``.
    """

    def __init__(
        self,
        k: int,
        locality: int,
        length: Optional[int] = None,
        colors: Optional[int] = None,
    ) -> None:
        if k < 3:
            raise ValueError(f"the gadget adversary needs k >= 3, got {k}")
        if locality < 0:
            raise ValueError(f"locality must be non-negative, got {locality}")
        minimum = 2 * locality + 3
        if length is None:
            length = minimum
        if length < minimum:
            raise ValueError(
                f"chain length {length} too small for locality {locality}: "
                f"need at least {minimum} gadgets"
            )
        if colors is None:
            colors = 2 * k - 2
        if not k <= colors <= 2 * k - 2:
            raise ValueError(
                f"the gadget argument covers k <= colors <= 2k-2 = "
                f"{2 * k - 2}, got {colors}"
            )
        self.k = k
        self.locality = locality
        self.length = length
        self.colors = colors

    # ------------------------------------------------------------------
    def run(self, algorithm: OnlineAlgorithm) -> AdversaryResult:
        """Play the full game against ``algorithm``."""
        stats = {
            "k": self.k,
            "locality": self.locality,
            "length": self.length,
            "colors": self.colors,
            "declared_n": self.length * self.k * self.k,
        }
        try:
            return self._play(algorithm, stats)
        except AlgorithmError as error:
            return AdversaryResult(
                won=True,
                reason="model-violation",
                stats={**stats, "violation": str(error)},
            )

    def _play(self, algorithm: OnlineAlgorithm, stats: dict) -> AdversaryResult:
        k, T, length = self.k, self.locality, self.length
        chain = GadgetChain(k, length)
        host = chain.graph
        instance = LateAutomorphismInstance(
            host, algorithm, locality=T, num_colors=self.colors
        )
        transpose = chain.transpose()
        region_head = {
            (g, i, j)
            for g in range(0, T + 1)
            for i in range(k)
            for j in range(k)
        }
        region_tail = {
            (g, i, j)
            for g in range(length - 1 - T, length)
            for i in range(k)
            for j in range(k)
        }
        frag_head = instance.add_fragment(region_head, {})
        frag_tail = instance.add_fragment(region_tail, {"transpose": transpose})

        improper = False
        for node in chain.gadget_nodes(0):
            instance.reveal_in_fragment(frag_head, node)
            improper |= instance.tracker.monochromatic_in_last_step()
        for node in chain.gadget_nodes(length - 1):
            instance.reveal_in_fragment(frag_tail, node)
            improper |= instance.tracker.monochromatic_in_last_step()

        instance.commit_fragment(frag_head, "identity")
        if improper:
            instance.commit_fragment(frag_tail, "identity")
            return self._finish(instance, host, stats)

        head_coloring = {
            node: instance.fragment_color(frag_head, node)
            for node in chain.gadget_nodes(0)
        }
        tail_coloring = {
            node: instance.fragment_color(frag_tail, node)
            for node in chain.gadget_nodes(length - 1)
        }
        head_class = classify_gadget(
            [chain.row(0, i) for i in range(k)],
            [chain.column(0, j) for j in range(k)],
            head_coloring,
        )
        tail_class = classify_gadget(
            [chain.row(length - 1, i) for i in range(k)],
            [chain.column(length - 1, j) for j in range(k)],
            tail_coloring,
        )
        stats["head_class"] = head_class
        stats["tail_class"] = tail_class
        if head_class in ("both", "neither") or tail_class in ("both", "neither"):
            # Claim 4.5 says this is impossible for a proper coloring, so
            # an improper edge must already exist inside a gadget.
            instance.commit_fragment(frag_tail, "identity")
            result = self._finish(instance, host, stats)
            if not result.won:
                raise AdversaryError(
                    "gadget classified 'both'/'neither' under a proper "
                    "coloring — contradicts Claim 4.5"
                )
            return result

        # Force disagreement between the two ends.
        if head_class == tail_class:
            instance.commit_fragment(frag_tail, "transpose")
            stats["tail_committed"] = "transpose"
        else:
            instance.commit_fragment(frag_tail, "identity")
            stats["tail_committed"] = "identity"
        get_registry().inc("adversary_rounds")
        if TRACER.enabled:
            TRACER.event(
                "gadget-ends-committed",
                theorem="theorem3",
                head_class=head_class,
                tail_class=tail_class,
                tail_committed=stats["tail_committed"],
            )

        # Reveal everything else; Lemma 4.6 makes a proper completion
        # impossible.
        for node in sorted(host.nodes()):
            if instance.color_of(node) is None:
                instance.reveal(node)

        return self._finish(instance, host, stats, expect_win=True)

    def _finish(
        self, instance, host, stats, expect_win: bool = False
    ) -> AdversaryResult:
        instance.audit()
        coloring = instance.coloring()
        edge = find_monochromatic_edge(host, coloring)
        if edge is not None:
            return AdversaryResult(
                won=True,
                reason="monochromatic-edge",
                improper_edge=edge,
                stats=stats,
            )
        if expect_win and all(node in coloring for node in host.nodes()):
            raise AdversaryError(
                "complete proper (2k-2)-coloring with disagreeing end "
                "gadgets — contradicts Lemma 4.6"
            )
        return AdversaryResult(won=False, reason="survived", stats=stats)
