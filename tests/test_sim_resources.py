"""Unit tests for Resource, Store, and BandwidthLink."""

import pytest

from repro.sim import BandwidthLink, Resource, SimulationError, Simulator, Store


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def user(sim, name, hold):
        req = res.request()
        yield req
        log.append(("acq", name, sim.now))
        yield sim.timeout(hold)
        res.release(req)
        log.append(("rel", name, sim.now))

    sim.process(user(sim, "a", 2.0))
    sim.process(user(sim, "b", 2.0))
    sim.process(user(sim, "c", 1.0))
    sim.run()
    acquires = [(n, t) for op, n, t in log if op == "acq"]
    # a and b acquire immediately; c waits until one releases at t=2.
    assert acquires == [("a", 0.0), ("b", 0.0), ("c", 2.0)]


def test_resource_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, name):
        req = res.request()
        yield req
        order.append(name)
        yield sim.timeout(1.0)
        res.release(req)

    for name in "abcd":
        sim.process(user(sim, name))
    sim.run()
    assert order == list("abcd")


def test_resource_release_without_hold_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    bogus = sim.event()
    with pytest.raises(SimulationError):
        res.release(bogus)


def test_resource_counts():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    res.request()
    res.request()
    assert res.count == 1
    assert res.queue_length == 2
    res.release(r1)
    assert res.count == 1
    assert res.queue_length == 1


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


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


def test_cancel_waiting_request_prevents_slot_leak():
    """An interrupted waiter cancels its request; the slot is never
    orphaned (regression for the leak Resource.cancel exists to fix)."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert res.queue_length == 1
    res.cancel(r2)
    assert res.queue_length == 0
    res.release(r1)
    assert res.count == 0


def test_cancel_granted_request_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.cancel(r1)  # already granted -> behaves like release
    assert res.count == 1  # r2 was promoted
    res.cancel(r2)
    assert res.count == 0


def test_cancel_unknown_request_ignored():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.cancel(sim.event())  # no-op
