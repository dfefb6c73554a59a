"""The Theorem 2 adversary: Ω(√n) for toroidal and cylindrical grids.

With an odd number of columns, every row cycle's b-value is odd
(Lemma 3.5).  Summing cell cancellations between two rows gives
Equation (1): two oppositely oriented row cycles of a proper 3-coloring
satisfy ``b(C1) + b(C2) = 0``.

The adversary reveals two full rows whose ``T``-balls induce disjoint,
non-adjacent cylindrical bands.  From the algorithm's viewpoint the two
bands are interchangeable under horizontal reflection, so the adversary
commits the second band's orientation *after* seeing its colors, picking
the reflection that makes ``b(C1) + b(C2) ≠ 0`` — always possible since
both values are odd.  The final coloring can then never be proper.

This works whenever ``√n ≥ 4T + 4``, giving the Ω(√n) bound.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.adversaries.result import AdversaryError, AdversaryResult
from repro.core.bvalue import cycle_b_value
from repro.families.grids import CylindricalGrid, ToroidalGrid
from repro.models.adaptive import LateAutomorphismInstance
from repro.models.base import AlgorithmError, OnlineAlgorithm
from repro.observability.metrics import get_registry
from repro.observability.trace import TRACER
from repro.verify.certificates import TorusCertificate
from repro.verify.coloring import find_monochromatic_edge


class TorusAdversary:
    """Defeats 3-coloring on odd-column toroidal/cylindrical grids.

    Parameters
    ----------
    locality:
        The victim's locality budget ``T``.
    side:
        Grid side length √n; must be odd and at least ``4T + 4``.
        Defaults to the smallest valid odd value.
    topology:
        ``"torus"`` or ``"cylinder"``.
    """

    def __init__(
        self,
        locality: int,
        side: Optional[int] = None,
        topology: str = "torus",
    ) -> None:
        if topology not in ("torus", "cylinder"):
            raise ValueError(f"unknown topology {topology!r}")
        minimum = 4 * locality + 5
        if minimum % 2 == 0:
            minimum += 1
        if side is None:
            side = minimum
        if side % 2 == 0:
            raise ValueError(f"side must be odd, got {side}")
        if side < 4 * locality + 4:
            raise ValueError(
                f"side {side} too small for locality {locality}: the two "
                f"bands need 4T+4 = {4 * locality + 4} rows"
            )
        self.locality = locality
        self.side = side
        self.topology = topology

    def _build_host(self):
        if self.topology == "torus":
            return ToroidalGrid(self.side, self.side)
        return CylindricalGrid(self.side, self.side)

    def _mirror(self, host) -> Dict:
        """The full-host automorphism reflecting columns: j -> -j mod m."""
        m = self.side
        return {
            (i, j): (i, (-j) % m)
            for i in range(m)
            for j in range(m)
        }

    # ------------------------------------------------------------------
    def run(self, algorithm: OnlineAlgorithm) -> AdversaryResult:
        """Play the full game against ``algorithm``."""
        stats = {
            "locality": self.locality,
            "side": self.side,
            "topology": self.topology,
            "declared_n": self.side * self.side,
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
        T = self.locality
        m = self.side
        host = self._build_host()
        grid = host.graph
        instance = LateAutomorphismInstance(
            grid, algorithm, locality=T, num_colors=3
        )
        mirror = self._mirror(host)
        row_one, row_two = T, 3 * T + 2
        band_one = {
            (i, j) for i in range(row_one - T, row_one + T + 1) for j in range(m)
        }
        band_two = {
            (i, j) for i in range(row_two - T, row_two + T + 1) for j in range(m)
        }
        frag_one = instance.add_fragment(band_one, {})
        frag_two = instance.add_fragment(band_two, {"mirror": mirror})

        improper = False
        for j in range(m):
            instance.reveal_in_fragment(frag_one, (row_one, j))
            improper |= instance.tracker.monochromatic_in_last_step()
        for j in range(m):
            instance.reveal_in_fragment(frag_two, (row_two, j))
            improper |= instance.tracker.monochromatic_in_last_step()

        instance.commit_fragment(frag_one, "identity")
        if improper:
            instance.commit_fragment(frag_two, "identity")
            return self._finish(instance, grid, None, stats)

        colors_one = [instance.color_of((row_one, j)) for j in range(m)]
        colors_two_pre = [
            instance.fragment_color(frag_two, (row_two, j)) for j in range(m)
        ]
        b_one = cycle_b_value(colors_one)
        beta_two = cycle_b_value(colors_two_pre)
        if b_one % 2 == 0 or beta_two % 2 == 0:
            raise AdversaryError(
                "odd-length row cycles of a proper coloring must have odd "
                "b-values (Lemma 3.5) — but no improper edge was detected"
            )
        # Cycle C2 is row_two traversed in the direction opposite to C1.
        # identity commit: that traversal reads the colors reversed,
        #   b(C2) = -beta_two;  mirror commit: b(C2) = +beta_two.
        if b_one - beta_two != 0:
            instance.commit_fragment(frag_two, "identity")
            b_two = -beta_two
        else:
            instance.commit_fragment(frag_two, "mirror")
            b_two = beta_two
        if b_one + b_two == 0:
            raise AdversaryError("orientation choice failed to break Equation (1)")
        stats["b_sum"] = b_one + b_two
        get_registry().inc("adversary_rounds")
        if TRACER.enabled:
            TRACER.event(
                "orientation-committed",
                theorem="theorem2",
                topology=self.topology,
                b_one=b_one,
                beta_two=beta_two,
                b_sum=b_one + b_two,
            )

        # Reveal everything else; the coloring can no longer be proper.
        for node in sorted(grid.nodes()):
            if instance.color_of(node) is None:
                instance.reveal(node)

        cycle_one = [(row_one, j) for j in range(m)]
        cycle_two = [(row_two, (-j) % m) for j in range(m)]
        certificate = TorusCertificate(
            cycle_one=cycle_one,
            cycle_two=cycle_two,
            b_sum=b_one + b_two,
        )
        return self._finish(instance, grid, certificate, stats)

    def _finish(self, instance, grid, certificate, stats) -> AdversaryResult:
        instance.audit()
        coloring = instance.coloring()
        edge = find_monochromatic_edge(grid, coloring)
        if edge is not None:
            return AdversaryResult(
                won=True,
                reason="monochromatic-edge",
                improper_edge=edge,
                certificate=certificate,
                stats=stats,
            )
        if certificate is not None and all(node in coloring for node in grid.nodes()):
            raise AdversaryError(
                "certificate holds on a complete proper coloring — "
                "contradicts Equation (1)"
            )
        return AdversaryResult(won=False, reason="survived", stats=stats)
