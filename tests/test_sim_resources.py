"""Unit tests for Store and BandwidthLink."""

import pytest

from repro.sim import BandwidthLink, Simulator, Store


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        item = yield store.get()
        got.append(item)

    store.put("x")
    sim.process(getter(sim))
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        item = yield store.get()
        got.append((sim.now, item))

    def putter(sim):
        yield sim.timeout(5.0)
        store.put("late")

    sim.process(getter(sim))
    sim.process(putter(sim))
    sim.run()
    assert got == [(5.0, "late")]


def test_store_fifo_items_and_getters():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, name):
        item = yield store.get()
        got.append((name, item))

    sim.process(getter(sim, "g1"))
    sim.process(getter(sim, "g2"))

    def putter(sim):
        yield sim.timeout(1.0)
        store.put("first")
        store.put("second")

    sim.process(putter(sim))
    sim.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2


# ---------------------------------------------------------------------------
# BandwidthLink
# ---------------------------------------------------------------------------

def test_single_transfer_time():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0)  # 100 B/s
    done = link.transfer(250.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(2.5)


def test_zero_byte_transfer_completes_immediately():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0)
    done = link.transfer(0.0)
    sim.run(until=done)
    assert sim.now == pytest.approx(0.0)


def test_two_equal_transfers_share_bandwidth():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0)
    d1 = link.transfer(100.0)
    d2 = link.transfer(100.0)
    sim.run(until=d1)
    t1 = sim.now
    sim.run(until=d2)
    t2 = sim.now
    # Each gets 50 B/s -> both finish at t=2 (vs 1s alone).
    assert t1 == pytest.approx(2.0)
    assert t2 == pytest.approx(2.0)


def test_staggered_transfers_processor_sharing():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0)
    times = {}

    def starter(sim):
        d1 = link.transfer(100.0)  # starts t=0
        yield sim.timeout(0.5)
        d2 = link.transfer(100.0)  # starts t=0.5
        v1 = yield d1
        times["d1"] = v1
        v2 = yield d2
        times["d2"] = v2

    sim.process(starter(sim))
    sim.run()
    # d1: 50 B alone in [0,0.5], then 50 B at the shared 50 B/s -> done 1.5
    assert times["d1"] == pytest.approx(1.5)
    # d2: 50 B shared in [0.5,1.5], then 50 B alone at 100 B/s -> done 2.0
    assert times["d2"] == pytest.approx(2.0)


def test_bandwidth_conserved_across_many_transfers():
    """Total completion time of N simultaneous equal transfers equals
    the serial time (work conservation of processor sharing)."""
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=10.0)
    events = [link.transfer(10.0) for _ in range(5)]
    for evt in events:
        sim.run(until=evt)
    assert sim.now == pytest.approx(5.0)
    assert link.bytes_transferred == pytest.approx(50.0)


def test_negative_transfer_rejected():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=10.0)
    with pytest.raises(ValueError):
        link.transfer(-1.0)


@pytest.mark.parametrize("size", [float("nan"), float("inf")])
def test_nan_and_infinite_transfers_rejected(size):
    """Regression: NaN passed a ``size < 0`` guard, and the link then
    spun forever on zero-delay timers at t=0."""
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=2e9)
    with pytest.raises(ValueError):
        link.transfer(size)
    assert link.active_transfers == 0


def test_invalid_bandwidth_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        BandwidthLink(sim, bandwidth=0.0)


def test_active_transfer_count_tracks_membership():
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=100.0)
    assert link.active_transfers == 0
    d1 = link.transfer(100.0)
    assert link.active_transfers == 1
    link.transfer(200.0)
    assert link.active_transfers == 2
    sim.run(until=d1)
    assert link.active_transfers == 1
    sim.run()
    assert link.active_transfers == 0


def test_bandwidth_link_no_livelock_on_tiny_residuals():
    """Regression: repeated rate changes leave floating-point residuals
    too small to advance the clock; the link must complete them rather
    than spin forever."""
    sim = Simulator()
    link = BandwidthLink(sim, bandwidth=25.6e9)
    sizes = [13_107_200.0 / 3, 13_107_200.0 / 7, 13_107_200.0 / 11]
    events = []

    def churn(sim):
        for size in sizes * 5:
            events.append(link.transfer(size))
            yield sim.timeout(size / 60e9)  # membership churn mid-flight

    sim.process(churn(sim))
    sim.run()
    assert all(e.processed for e in events)
    assert link.bytes_transferred == pytest.approx(sum(sizes) * 5, rel=1e-6)
