"""String-keyed factory registries for adversaries, victims, and families.

Until PR 5 the tournament hardcoded its portfolios: the adversary lineup
lived in a dict literal inside ``analysis/tournament.py``, the victim
portfolio in another, and the CLI redeclared a third copy — so a new
adversary (or a third-party one) meant editing three files and could
never ride along a declarative campaign spec.  This module replaces the
literals with three process-global :class:`Registry` instances:

* :data:`ADVERSARIES` — ``name -> factory(locality, **params)`` returning
  either a victim→:class:`~repro.adversaries.result.AdversaryResult`
  callable or a :class:`FixedVictimGame` wrapper,
* :data:`VICTIMS` — ``name -> factory()`` returning a fresh
  :class:`~repro.models.base.OnlineAlgorithm`, and
* :data:`FAMILIES` — ``name -> factory(**params)`` returning a graph
  family object exposing ``.graph``.

Campaign specs (:mod:`repro.analysis.campaign`), the tournament
portfolios, and the CLI's ``--adversary``/``--victim`` flags all resolve
through these registries, so third-party code extends every surface at
once::

    from repro.registry import register_adversary

    @register_adversary("my-adversary")
    def _my_adversary(locality, **params):
        return lambda victim: MyAdversary(locality, **params).run(victim)

Names are resolved by exact string match; an unknown name raises
:class:`RegistryError` listing the registered choices.  Registration
order is preserved (it defines the deterministic sweep order of the
default portfolios), and duplicate registration is an error unless
``replace=True`` is passed — overriding a builtin is legitimate for
experiments, silently shadowing one is not.

Parallel note: worker processes resolve specs by *name*, so a custom
registration must be importable (or fork-inherited) in the worker.  On
the default ``fork`` start method registrations made before the pool
spawns are inherited automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.adversaries.gadget import GadgetAdversary
from repro.adversaries.grid import GridAdversary
from repro.adversaries.reduction import reduce_to_grid
from repro.adversaries.result import AdversaryResult
from repro.adversaries.torus import TorusAdversary
from repro.core.akbari import AkbariBipartiteColoring
from repro.core.baselines import CanonicalLocalColorer, GreedyOnlineColorer
from repro.core.unify import UnifyColoring
from repro.families.gadgets import GadgetChain
from repro.families.grids import CylindricalGrid, SimpleGrid, ToroidalGrid
from repro.families.ktree import random_ktree
from repro.families.triangular import TriangularGrid
from repro.models.base import OnlineAlgorithm
from repro.models.simulation import LocalAsOnline
from repro.oracles import CliqueChainOracle, TriangularOracle
from repro.robustness.faults import faulty_victims

#: Victim column used for fixed-victim games (their victim is determined
#: by construction, not by the sweep).
FIXED_VICTIM = "(fixed)"


class RegistryError(LookupError):
    """An unknown or duplicate registry name."""


@dataclass(frozen=True)
class FixedVictimGame:
    """A tournament entry whose victim is fixed by construction.

    The Theorem 5 reduction chain builds its own victim (the reduced
    hierarchy colorer); sweeping it against the victim portfolio would
    replay the identical game once per victim.  Wrapping the play in
    this marker makes sweeps play it exactly once, recorded under the
    :data:`FIXED_VICTIM` column.
    """

    play: Callable[[], AdversaryResult]


AdversaryEntry = Union[
    Callable[[OnlineAlgorithm], AdversaryResult], FixedVictimGame
]


class Registry:
    """An ordered, string-keyed factory registry.

    Parameters
    ----------
    kind:
        Human-readable entry kind (``"adversary"``), used in error
        messages.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable] = {}
        self._metadata: Dict[str, Dict[str, Any]] = {}

    def register(
        self,
        name: str,
        factory: Optional[Callable] = None,
        *,
        replace: bool = False,
        **metadata: Any,
    ) -> Callable:
        """Register ``factory`` under ``name``; usable as a decorator.

        Duplicate names raise :class:`RegistryError` unless
        ``replace=True``.  Extra keyword arguments are stored as entry
        metadata (see :meth:`metadata`); the adversary registry uses
        ``fixed_victim=True`` to mark entries that ignore the victim
        portfolio.
        """
        if factory is None:
            def decorator(f: Callable) -> Callable:
                return self.register(name, f, replace=replace, **metadata)

            return decorator
        if not isinstance(name, str) or not name:
            raise ValueError(f"{self.kind} name must be a non-empty string")
        if name in self._factories and not replace:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; pass "
                f"replace=True to override it"
            )
        self._factories[name] = factory
        self._metadata[name] = dict(metadata)
        return factory

    def unregister(self, name: str) -> None:
        """Remove an entry (tests and experiment teardown)."""
        self.get(name)  # raises RegistryError with choices when unknown
        del self._factories[name]
        del self._metadata[name]

    def get(self, name: str) -> Callable:
        """The factory registered under ``name``.

        Raises :class:`RegistryError` naming the registered choices when
        the name is unknown — the message the CLI surfaces verbatim.
        """
        try:
            return self._factories[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; choose from "
                f"{sorted(self._factories)}"
            ) from None

    def metadata(self, name: str) -> Dict[str, Any]:
        """A copy of the metadata stored with ``name``."""
        self.get(name)
        return dict(self._metadata[name])

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._factories)

    def items(self) -> Iterator[Tuple[str, Callable]]:
        return iter(list(self._factories.items()))

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()!r})"


#: The three process-global registries.
ADVERSARIES = Registry("adversary")
VICTIMS = Registry("victim")
FAMILIES = Registry("graph family")

# Bound conveniences — the public registration/resolution surface.
register_adversary = ADVERSARIES.register
register_victim = VICTIMS.register
register_family = FAMILIES.register


def get_adversary(name: str) -> Callable[..., AdversaryEntry]:
    """The adversary factory for ``name``: ``factory(locality, **params)``
    returns a victim→result callable or a :class:`FixedVictimGame`."""
    return ADVERSARIES.get(name)


def get_victim(name: str) -> Callable[[], OnlineAlgorithm]:
    """The zero-argument victim factory for ``name``."""
    return VICTIMS.get(name)


def get_family(name: str) -> Callable:
    """The graph-family factory for ``name``."""
    return FAMILIES.get(name)


def list_adversaries() -> List[str]:
    return ADVERSARIES.names()


def list_victims() -> List[str]:
    return VICTIMS.names()


def list_families() -> List[str]:
    return FAMILIES.names()


def adversary_is_fixed(name: str) -> bool:
    """Whether ``name`` is a fixed-victim adversary (plays once per sweep
    under the :data:`FIXED_VICTIM` column, ignoring the victim
    portfolio)."""
    return bool(ADVERSARIES.metadata(name).get("fixed_victim", False))


# ----------------------------------------------------------------------
# Builtin victims
# ----------------------------------------------------------------------

#: The standard (honest) victim portfolio, in sweep order.
DEFAULT_VICTIMS: Tuple[str, ...] = ("greedy", "akbari", "local-canonical")

register_victim("greedy", GreedyOnlineColorer)
register_victim("akbari", AkbariBipartiteColoring)
register_victim(
    "local-canonical", lambda: LocalAsOnline(CanonicalLocalColorer())
)
#: Theorem 4's unification algorithm on triangular grids (the
#: ``upper-bound unify-triangular`` run; not in the default portfolio).
register_victim(
    "unify-triangular", lambda: UnifyColoring(TriangularOracle())
)

#: The fault-injection victim family (PR 1), in sweep order.
FAULTY_VICTIM_NAMES: Tuple[str, ...] = tuple(faulty_victims())

for _name, _factory in faulty_victims().items():
    register_victim(_name, _factory)
del _name, _factory


# ----------------------------------------------------------------------
# Builtin adversaries
# ----------------------------------------------------------------------

#: The standard adversary lineup, in sweep order.
DEFAULT_ADVERSARIES: Tuple[str, ...] = (
    "theorem1-grid",
    "theorem2-torus",
    "theorem2-cylinder",
    "theorem3-gadget(2k-2)",
    "corollary13-gadget(k+1)",
    "theorem5-reduction",
)


@register_adversary("theorem1-grid")
def _theorem1_grid(locality: int, **params: Any) -> AdversaryEntry:
    return lambda victim: GridAdversary(locality=locality, **params).run(
        victim
    )


@register_adversary("theorem2-torus")
def _theorem2_torus(locality: int, **params: Any) -> AdversaryEntry:
    params.setdefault("topology", "torus")
    return lambda victim: TorusAdversary(locality=locality, **params).run(
        victim
    )


@register_adversary("theorem2-cylinder")
def _theorem2_cylinder(locality: int, **params: Any) -> AdversaryEntry:
    params.setdefault("topology", "cylinder")
    return lambda victim: TorusAdversary(locality=locality, **params).run(
        victim
    )


@register_adversary("theorem3-gadget(2k-2)")
def _theorem3_gadget(locality: int, k: int = 3, **params: Any) -> AdversaryEntry:
    return lambda victim: GadgetAdversary(
        k=k, locality=locality, **params
    ).run(victim)


@register_adversary("corollary13-gadget(k+1)")
def _corollary13_gadget(
    locality: int, k: int = 3, colors: int = 4, **params: Any
) -> AdversaryEntry:
    return lambda victim: GadgetAdversary(
        k=k, locality=locality, colors=colors, **params
    ).run(victim)


@register_adversary("theorem5-reduction", fixed_victim=True)
def _theorem5_reduction(locality: int, k: int = 3, **params: Any) -> AdversaryEntry:
    return FixedVictimGame(
        lambda: GridAdversary(locality=locality, **params).run(
            reduce_to_grid(UnifyColoring(CliqueChainOracle(k, k)), k=k)
        )
    )


@register_adversary("scattered-order")
def _scattered_order(
    locality: int,
    family: str = "grid",
    seed: int = 0,
    colors: int = 3,
    **size: Any,
) -> AdversaryEntry:
    """The upper-bound run as an oblivious adversary: reveal the host of
    ``family`` (built with its ``size`` params) in the seeded scattered
    order, then check the victim's ``colors``-coloring.  Not a strategy
    of the paper: the order never reads a color."""
    from repro.families.random_graphs import scattered_reveal_order
    from repro.models.online_local import OnlineLocalSimulator
    from repro.verify.coloring import find_monochromatic_edge

    graph = get_family(family)(**size).graph

    def play(victim: OnlineAlgorithm) -> AdversaryResult:
        coloring = OnlineLocalSimulator(
            graph, victim, locality=locality, num_colors=colors
        ).run(scattered_reveal_order(sorted(graph.nodes()), seed=seed))
        stats = {"declared_n": graph.num_nodes}
        edge = find_monochromatic_edge(graph, coloring)
        if edge is not None:
            return AdversaryResult(
                won=True, reason="monochromatic-edge", improper_edge=edge,
                stats=stats,
            )
        if len(coloring) < graph.num_nodes or not set(
            coloring.values()
        ) <= set(range(1, colors + 1)):
            return AdversaryResult(
                won=True, reason="model-violation", stats={
                    **stats, "violation": f"not a total {colors}-coloring",
                },
            )
        return AdversaryResult(won=False, reason="survived", stats=stats)

    return play


# ----------------------------------------------------------------------
# Builtin graph families
# ----------------------------------------------------------------------

register_family(
    "grid", lambda rows=16, cols=None: SimpleGrid(
        rows, cols if cols is not None else rows
    )
)
register_family(
    "cylinder", lambda rows=16, cols=None: CylindricalGrid(
        rows, cols if cols is not None else rows
    )
)
register_family(
    "torus", lambda rows=16, cols=None: ToroidalGrid(
        rows, cols if cols is not None else rows
    )
)
register_family("triangular", lambda side=12: TriangularGrid(side))
register_family(
    "gadget-chain", lambda k=3, length=5: GadgetChain(k=k, length=length)
)
register_family(
    "ktree", lambda k=3, num_nodes=40, seed=0: random_ktree(
        k, num_nodes, seed=seed
    )
)
