"""Property-based tests: metrics-snapshot merge algebra.

The worker merge protocol (``ProcessExecutor.map``) is only correct if
snapshot merging is associative and commutative — the merged totals must
not depend on how the executor happened to batch the work.  Observations
are integer-valued in these tests: counter and bucket *counts* are the
backend-independent contract; histogram float sums are not
bitwise-associative and are compared through bucket counts only.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry, MetricsSnapshot

counter_events = hyp.lists(
    hyp.tuples(hyp.sampled_from(["a", "b", "c"]), hyp.integers(1, 100)),
    max_size=30,
)
observation_events = hyp.lists(
    hyp.tuples(
        hyp.sampled_from(["h1", "h2"]),
        hyp.integers(0, 100),  # integer-valued: sums stay exact
    ),
    max_size=30,
)
gauge_events = hyp.lists(
    hyp.tuples(hyp.sampled_from(["g1", "g2"]), hyp.integers(-50, 50)),
    max_size=10,
)


def snapshot_of(counters, observations, gauges) -> MetricsSnapshot:
    registry = MetricsRegistry()
    for name, value in counters:
        registry.inc(name, value)
    for name, value in observations:
        registry.observe(name, float(value))
    for name, value in gauges:
        registry.gauge(name, float(value))
    return registry.snapshot()


events = hyp.tuples(counter_events, observation_events, gauge_events)


@settings(max_examples=60, deadline=None)
@given(events, events)
def test_merge_is_commutative(left_events, right_events):
    left = snapshot_of(*left_events)
    right = snapshot_of(*right_events)
    assert left.merge(right) == right.merge(left)


@settings(max_examples=60, deadline=None)
@given(events, events, events)
def test_merge_is_associative(a_events, b_events, c_events):
    a = snapshot_of(*a_events)
    b = snapshot_of(*b_events)
    c = snapshot_of(*c_events)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@settings(max_examples=60, deadline=None)
@given(events)
def test_empty_is_the_identity(all_events):
    snapshot = snapshot_of(*all_events)
    empty = MetricsSnapshot.empty()
    assert snapshot.merge(empty) == snapshot
    assert empty.merge(snapshot) == snapshot


@settings(max_examples=60, deadline=None)
@given(
    observation_events,
    hyp.lists(hyp.integers(0, 1), min_size=0, max_size=30),
)
def test_histogram_counts_conserved_under_arbitrary_splits(observations, cuts):
    """Splitting one observation stream across workers loses nothing."""
    serial = snapshot_of([], observations, [])

    # Partition the stream at arbitrary points into per-"worker" chunks.
    chunks: list[list] = [[]]
    for i, event in enumerate(observations):
        if i < len(cuts) and cuts[i]:
            chunks.append([])
        chunks[-1].append(event)
    merged = MetricsSnapshot.merge_all(
        [snapshot_of([], chunk, []) for chunk in chunks]
    )

    assert merged == serial
    for name, hist in merged.histograms:
        expected = [value for metric, value in observations if metric == name]
        assert hist.total == len(expected)
        assert sum(hist.counts) == len(expected)
        assert len(hist.counts) == len(DEFAULT_BUCKETS) + 1
        if expected:
            assert hist.minimum == float(min(expected))
            assert hist.maximum == float(max(expected))


@settings(max_examples=60, deadline=None)
@given(
    counter_events,
    hyp.lists(hyp.integers(0, 1), min_size=0, max_size=30),
)
def test_counter_totals_equal_serial_under_splits(counters, cuts):
    serial = snapshot_of(counters, [], [])

    chunks: list[list] = [[]]
    for i, event in enumerate(counters):
        if i < len(cuts) and cuts[i]:
            chunks.append([])
        chunks[-1].append(event)
    merged = MetricsSnapshot.merge_all(
        [snapshot_of(chunk, [], []) for chunk in chunks]
    )

    assert merged.counter_view() == serial.counter_view()
    totals: dict[str, int] = {}
    for name, value in counters:
        totals[name] = totals.get(name, 0) + value
    assert dict(merged.counters) == totals
