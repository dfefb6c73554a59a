"""The Theorem 1 adversary: defeating o(log n)-locality 3-coloring on grids.

Strategy (Section 3.2):

1. Use the Lemma 3.6 path builder to force a directed path ``P_{u,v}``
   along a row with b-value ≥ k, where ``k = 4T + 5``.
2. Reveal a second, independent row fragment at vertical distance
   ``2T + 2`` spanning the same columns; because its discovered region is
   disconnected from the first, the adversary may still *reflect* it, and
   does so to make the return traversal's b-value ≥ 0.
3. Commit the geometry and reveal the whole rectangle between the rows.
   The rectangle's boundary cycle now has
   ``b(C) ≥ k - 2(2T+2) > 0``, impossible for a proper 3-coloring
   (Lemma 3.4) — so the committed coloring contains a monochromatic
   edge, which the adversary locates explicitly.

Every run ends with a machine-checked audit (all views shown were
induced subgraphs of the committed host grid) and, when the algorithm
stayed proper long enough, a :class:`CycleCertificate`.
"""

from __future__ import annotations

from typing import Optional

from repro.adversaries.path_builder import PathBuilder
from repro.adversaries.result import AdversaryError, AdversaryResult
from repro.core.bvalue import b_value
from repro.models.adaptive import FloatingGridInstance
from repro.models.base import AlgorithmError, OnlineAlgorithm
from repro.observability.trace import TRACER
from repro.verify.certificates import CycleCertificate
from repro.verify.coloring import find_monochromatic_edge


class GridAdversary:
    """Defeats any 3-coloring Online-LOCAL algorithm with small locality.

    Parameters
    ----------
    locality:
        The locality budget ``T`` the victim algorithm runs with.
    level:
        The b-value ``k`` to force; defaults to the smallest sufficient
        value ``4T + 5``.
    """

    def __init__(self, locality: int, level: Optional[int] = None) -> None:
        if locality < 0:
            raise ValueError(f"locality must be non-negative, got {locality}")
        self.locality = locality
        self.level = level if level is not None else 4 * locality + 5
        if self.level < 1:
            raise ValueError(f"level must be at least 1, got {self.level}")

    def declared_n(self) -> int:
        """The grid size announced to the algorithm: the paper's
        :math:`(\\sqrt{n} \\times \\sqrt{n})` grid with
        ``5^(k+1) T < sqrt(n)``."""
        side = 5 ** (self.level + 1) * max(1, self.locality)
        return side * side

    # ------------------------------------------------------------------
    def run(self, algorithm: OnlineAlgorithm) -> AdversaryResult:
        """Play the full game against ``algorithm``."""
        instance = FloatingGridInstance(
            algorithm,
            locality=self.locality,
            num_colors=3,
            declared_n=self.declared_n(),
        )
        builder = PathBuilder(instance)
        stats = {
            "locality": self.locality,
            "level": self.level,
            "declared_n": self.declared_n(),
        }
        try:
            return self._play(instance, builder, stats)
        except AlgorithmError as error:
            stats["reveals"] = builder.reveals
            return AdversaryResult(
                won=True,
                reason="model-violation",
                stats={**stats, "violation": str(error)},
            )

    def _play(
        self,
        instance: FloatingGridInstance,
        builder: PathBuilder,
        stats: dict,
    ) -> AdversaryResult:
        T = self.locality
        path = builder.build(self.level)
        if path is None:
            return self._finish_improper(instance, builder, stats, None)
        if TRACER.enabled:
            TRACER.event(
                "path-built",
                level=self.level,
                b=path.b,
                reveals=builder.reveals,
            )
        stats["b_forced"] = path.b
        stats["region_length"] = (
            instance.fragment_row_extent(path.fragment)[1]
            - instance.fragment_row_extent(path.fragment)[0]
            + 1
        )

        # Second row fragment, spanning the same number of columns.
        u, v = path.path
        span = abs(v - u)
        second = instance.new_fragment()
        for x in range(span + 1):
            builder._reveal(second, x)
            if builder.improper:
                return self._finish_improper(instance, builder, stats, None)

        # Orient the second fragment so the return traversal s -> t
        # (from above v to above u) has b-value ≥ 0.
        beta = builder.path_b(second, 0, span)
        col_lo, col_hi = min(u, v), max(u, v)
        direction = 1 if v >= u else -1
        # Without reflection the s->t traversal reads the second row in
        # the direction opposite to `direction`; compute its b-value for
        # both placements and keep the non-negative one.
        #   identity: fragment coord x lands at col_lo + x
        #   reflect:  fragment coord x lands at col_hi - x
        # s sits above v, t above u; traversal runs v-column -> u-column.
        if direction > 0:
            b_identity, b_reflect = -beta, beta
        else:
            b_identity, b_reflect = beta, -beta
        reflect = b_reflect >= b_identity
        dx = col_hi if reflect else col_lo
        instance.merge(path.fragment, second, dx=dx, dy=2 * T + 2, reflect=reflect)

        host = instance.commit(reference=path.fragment)
        # Reveal the full rectangle between the two rows.
        for y in range(0, 2 * T + 3):
            for x in range(col_lo, col_hi + 1):
                if instance.color_at((x, y)) is None:
                    instance.reveal_committed((x, y))
                    builder.reveals += 1
                    if instance.tracker.monochromatic_in_last_step():
                        builder.improper = True
        certificate = self._certificate(instance, u, v, 2 * T + 2)
        stats["cycle_b"] = certificate.b_value if certificate else None
        if TRACER.enabled:
            TRACER.event(
                "certificate",
                theorem="theorem1",
                cycle_b=certificate.b_value if certificate else None,
                reveals=builder.reveals,
            )
        return self._finish_improper(instance, builder, stats, certificate)

    # ------------------------------------------------------------------
    def _certificate(
        self,
        instance: FloatingGridInstance,
        u: int,
        v: int,
        height: int,
    ) -> Optional[CycleCertificate]:
        """The rectangle cycle u -> v -> above-v -> above-u -> u, in host
        coordinates, if fully colored."""
        coloring = instance.coloring()
        to_host = instance.to_host
        step = 1 if v >= u else -1
        cycle = [to_host((x, 0)) for x in range(u, v + step, step)]
        cycle += [to_host((v, y)) for y in range(1, height + 1)]
        cycle += [to_host((x, height)) for x in range(v, u - step, -step)][1:]
        cycle += [to_host((u, y)) for y in range(height - 1, 0, -1)]
        if any(node not in coloring for node in cycle):
            return None
        b = b_value(cycle, coloring, cycle=True)
        if b == 0:
            return None
        return CycleCertificate(cycle=cycle, b_value=b)

    def required_rows(self) -> int:
        """Rows of grid the construction needs: the two path rows at
        vertical distance 2T+2, their T-balls, and the commit margin —
        O(T) in total.  This is the executable content of the paper's
        remark that a general (a x b) grid yields an
        Ω(min{log max(a,b), min(a,b)}) bound: only min(a,b) ≥ O(T) is
        needed vertically."""
        return 6 * self.locality + 3

    def _finish_improper(
        self,
        instance: FloatingGridInstance,
        builder: PathBuilder,
        stats: dict,
        certificate: Optional[CycleCertificate],
    ) -> AdversaryResult:
        """Commit (if needed), audit, and locate the improper edge."""
        if instance.host is None:
            instance.commit()
        instance.audit()
        stats["reveals"] = builder.reveals
        stats["host_rows"] = instance.host.rows
        stats["host_cols"] = instance.host.cols
        coloring = instance.coloring()
        edge = find_monochromatic_edge(instance.host.graph, coloring)
        if edge is not None:
            return AdversaryResult(
                won=True,
                reason="monochromatic-edge",
                improper_edge=edge,
                certificate=certificate,
                stats=stats,
            )
        if certificate is not None:
            raise AdversaryError(
                "b-value certificate holds but no monochromatic edge exists "
                "— contradicts Lemma 3.4; simulator inconsistency"
            )
        return AdversaryResult(won=False, reason="survived", stats=stats)
