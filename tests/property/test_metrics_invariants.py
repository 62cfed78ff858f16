"""Property-based tests: the worker counter merge.

The worker merge protocol (``ProcessExecutor.map``) folds each task's
snapshot into the parent registry with
:meth:`MetricsRegistry.merge_snapshot`.  It is only correct if the
merged totals do not depend on how the executor happened to batch the
work: the fold must be commutative and associative, an empty snapshot
must be neutral, and any split of one event stream must merge back to
the serial totals.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot

counter_events = hyp.lists(
    hyp.tuples(hyp.sampled_from(["a", "b", "c"]), hyp.integers(1, 100)),
    max_size=30,
)


def snapshot_of(counters) -> MetricsSnapshot:
    registry = MetricsRegistry()
    for name, value in counters:
        registry.inc(name, value)
    return registry.snapshot()


def merged(*snapshots: MetricsSnapshot) -> MetricsSnapshot:
    """Fold ``snapshots`` into a fresh registry, in order."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


@settings(max_examples=60, deadline=None)
@given(counter_events, counter_events)
def test_merge_is_commutative(left_events, right_events):
    left = snapshot_of(left_events)
    right = snapshot_of(right_events)
    assert merged(left, right) == merged(right, left)


@settings(max_examples=60, deadline=None)
@given(counter_events, counter_events, counter_events)
def test_merge_is_associative(a_events, b_events, c_events):
    # A nested pool merges its workers into the task's own registry
    # first; the grouping must not change the parent's totals.
    a = snapshot_of(a_events)
    b = snapshot_of(b_events)
    c = snapshot_of(c_events)
    assert merged(merged(a, b), c) == merged(a, merged(b, c))


@settings(max_examples=60, deadline=None)
@given(counter_events)
def test_empty_is_the_identity(events):
    snapshot = snapshot_of(events)
    empty = MetricsRegistry().snapshot()
    assert merged(snapshot, empty) == snapshot
    assert merged(empty, snapshot) == snapshot


@settings(max_examples=60, deadline=None)
@given(
    counter_events,
    hyp.lists(hyp.integers(0, 1), min_size=0, max_size=30),
)
def test_counter_totals_equal_serial_under_splits(counters, cuts):
    serial = snapshot_of(counters)

    # Partition the stream at arbitrary points into per-"worker" chunks.
    chunks: list[list] = [[]]
    for i, event in enumerate(counters):
        if i < len(cuts) and cuts[i]:
            chunks.append([])
        chunks[-1].append(event)
    result = merged(*(snapshot_of(chunk) for chunk in chunks))

    assert result.counter_view() == serial.counter_view()
    totals: dict[str, int] = {}
    for name, value in counters:
        totals[name] = totals.get(name, 0) + value
    assert dict(result.counters) == totals
