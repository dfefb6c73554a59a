"""Tests for the metrics registry: instruments, snapshot/merge algebra."""

import random

from repro.observability.metrics import (
    BoundCounter,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    scoped_registry,
    set_registry,
)


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    registry.inc("reveals_total")
    registry.inc("reveals_total", 4)
    registry.set("depth", 3.0)
    registry.set("depth", 2.0)  # last set wins locally
    registry.observe("seconds", 0.5)
    registry.observe("seconds", 1.5)

    assert registry.counter("reveals_total").value == 5
    assert registry.gauge("depth").value == 2.0
    hist = registry.histogram("seconds")
    assert hist.count == 2
    assert hist.total == 2.0
    assert (hist.minimum, hist.maximum) == (0.5, 1.5)
    assert hist.mean == 1.0


def test_instruments_are_stable_objects():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")


def test_snapshot_round_trip_merge():
    registry = MetricsRegistry()
    registry.inc("a", 3)
    registry.set("g", 7.0)
    registry.observe("h", 2.0)

    other = MetricsRegistry()
    other.merge(registry.snapshot())
    assert other.snapshot() == registry.snapshot()


def _random_registry(rng: random.Random) -> MetricsRegistry:
    # Observed values are small dyadic rationals so float addition is
    # exact and the associativity check compares snapshots bit-for-bit.
    registry = MetricsRegistry()
    for name in ("a", "b"):
        if rng.random() < 0.8:
            registry.inc(name, rng.randrange(10))
    if rng.random() < 0.8:
        registry.set("g", rng.randrange(-20, 20) / 4)
    for _ in range(rng.randrange(4)):
        registry.observe("h", rng.randrange(0, 12) / 4)
    return registry


def test_merge_is_commutative():
    rng = random.Random(7)
    for _ in range(20):
        one = _random_registry(rng).snapshot()
        two = _random_registry(rng).snapshot()

        forward = MetricsRegistry()
        forward.merge(one)
        forward.merge(two)
        backward = MetricsRegistry()
        backward.merge(two)
        backward.merge(one)
        assert forward.snapshot() == backward.snapshot()


def test_merge_is_associative():
    rng = random.Random(11)
    for _ in range(20):
        snaps = [_random_registry(rng).snapshot() for _ in range(3)]

        # (a + b) + c
        left_inner = MetricsRegistry()
        left_inner.merge(snaps[0])
        left_inner.merge(snaps[1])
        left = MetricsRegistry()
        left.merge(left_inner.snapshot())
        left.merge(snaps[2])

        # a + (b + c)
        right_inner = MetricsRegistry()
        right_inner.merge(snaps[1])
        right_inner.merge(snaps[2])
        right = MetricsRegistry()
        right.merge(snaps[0])
        right.merge(right_inner.snapshot())

        assert left.snapshot() == right.snapshot()


def test_merge_partition_matches_serial():
    """Any partition of the work merged in any order equals the serial
    totals — the property the parallel sweep relies on."""
    rng = random.Random(13)
    parts = [_random_registry(rng) for _ in range(5)]

    serial = MetricsRegistry()
    for part in parts:
        serial.merge(part.snapshot())

    shuffled = list(parts)
    rng.shuffle(shuffled)
    folded = MetricsRegistry()
    for part in shuffled:
        folded.merge(part.snapshot())
    assert folded.snapshot() == serial.snapshot()


def test_reset_zeroes_in_place():
    registry = MetricsRegistry()
    counter = registry.counter("a")
    registry.inc("a", 5)
    registry.set("g", 1.0)
    registry.observe("h", 2.0)
    registry.reset()
    assert counter.value == 0  # existing handles stay valid
    assert registry.gauge("g").value is None
    assert registry.histogram("h").count == 0
    assert registry.histogram("h").minimum is None


def test_scoped_registry_swaps_and_restores():
    ambient = get_registry()
    with scoped_registry() as scoped:
        assert get_registry() is scoped
        assert scoped is not ambient
        get_registry().inc("only_in_scope")
    assert get_registry() is ambient
    assert ambient.counter("only_in_scope").value == 0


def test_scoped_registry_restores_on_error():
    ambient = get_registry()
    try:
        with scoped_registry():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert get_registry() is ambient


def test_set_registry_returns_previous():
    ambient = get_registry()
    fresh = MetricsRegistry()
    assert set_registry(fresh) is ambient
    try:
        assert get_registry() is fresh
    finally:
        set_registry(ambient)


def test_null_registry_records_nothing():
    null = NullRegistry()
    null.inc("a")
    null.set("g", 1.0)
    null.observe("h", 2.0)
    # The instrument getters hand back sinks that also discard.
    null.counter("a").inc(7)
    null.gauge("g").set(3.0)
    null.histogram("h").observe(4.0)
    snapshot = null.snapshot()
    assert snapshot["counters"] == {}
    assert snapshot["gauges"] == {}
    assert snapshot["histograms"] == {}


def test_bound_counter_follows_the_active_registry():
    """The cached hot-path handle re-binds on every registry swap, so
    scoped workers still see exactly their own deltas."""
    bound = BoundCounter("bound_test_total")
    with scoped_registry() as outer:
        bound.inc()
        with scoped_registry() as inner:
            bound.inc(2)
            assert inner.counter("bound_test_total").value == 2
        bound.inc()
        assert outer.counter("bound_test_total").value == 2
    assert get_registry().counter("bound_test_total").value == 0


def test_bound_counter_suppressed_under_null_registry():
    bound = BoundCounter("bound_null_total")
    with scoped_registry(NullRegistry()) as null:
        bound.inc(5)
        assert null.snapshot()["counters"] == {}
    with scoped_registry() as live:
        bound.inc()
        assert live.counter("bound_null_total").value == 1


def test_ball_cache_counts_in_active_registry():
    """Satellite: BallCache aggregates live in the registry, not class
    globals, and reset() zeroes them."""
    from repro.families.grids import SimpleGrid
    from repro.graphs.traversal import BallCache

    grid = SimpleGrid(4, 4)
    with scoped_registry():
        cache = BallCache(grid.graph)
        cache.ball((0, 0), 1)
        cache.ball((0, 0), 1)
        stats = BallCache.global_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        BallCache.reset()
        assert BallCache.global_stats() == {
            "hits": 0, "misses": 0, "hit_rate": 0.0,
            "full_flushes": 0, "bucket_reattaches": 0,
        }
