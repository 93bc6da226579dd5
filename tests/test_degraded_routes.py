"""Degraded-fabric routes and censuses against a recorded oracle.

``tests/fixtures/degraded_routes.json`` holds, for a dozen seeded
failure sets, the :func:`degraded_route` of about 40 ``(src, dst)``
pairs and one :func:`degraded_hop_census`, as recorded when the
searches ran on networkx.  Among equal-cost crossbars the breadth-first
search picks by neighbour order and by which frontier it grows, so
every route must stay vertex for vertex what it was.

The failure sets cut random CU uplinks, F-M and M-T chain links,
intra-CU L-U links (all twelve of one lower crossbar's, so its nodes
detour through the inter-CU switches), one node's access link, every
uplink of one CU and the failure study's own set; some pass their pairs in the wiring's
``(lower, inter-CU)`` orientation rather than :func:`edge_key`'s.

To regenerate the fixture after an intentional change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_degraded_routes.py
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.network.crossbar import XbarId
from repro.network.intercu import INTERCU_SWITCHES, XBARS_PER_LEVEL, uplink_edges
from repro.network.routing import degraded_hop_census, degraded_route
from repro.network.topology import RoadrunnerTopology
from repro.resilience import edge_key

FIXTURE = Path(__file__).parent / "fixtures" / "degraded_routes.json"
PAIRS_PER_SET = 40


@lru_cache(maxsize=None)
def _topology(cu_count: int, include_io: bool) -> RoadrunnerTopology:
    return RoadrunnerTopology(cu_count=cu_count, include_io=include_io)


def _encode(vertex) -> list:
    return list(vertex)


def _decode(vertex: list) -> tuple:
    if vertex[0] in ("node", "io"):
        return tuple(vertex)
    return XbarId(*vertex)


def _failure_sets():
    """``(name, cu_count, include_io, failed links, focus nodes)`` per
    recorded case; half of each case's pairs start on a focus node."""
    rng = np.random.default_rng(2008)

    def pick(pool, k):
        return [pool[i] for i in sorted(rng.choice(len(pool), k, replace=False))]

    def uplinks(cus):
        return [e for cu in cus for e in uplink_edges(cu)]

    def chains(level_pairs):
        return [
            (XbarId(a, s, j), XbarId(b, s, j))
            for s in range(INTERCU_SWITCHES)
            for j in range(XBARS_PER_LEVEL)
            for a, b in level_pairs
        ]

    def intra(cus):
        return [
            (XbarId("L", cu, i), XbarId("U", cu, j))
            for cu in cus for i in range(24) for j in range(12)
        ]

    def on(lowers, cu_count=17):
        """Compute nodes hanging off the given ``L`` crossbars."""
        topo = _topology(cu_count, True)
        wanted = {x for x in lowers if isinstance(x, XbarId) and x.level == "L"}
        return [n for n in range(topo.node_count) if topo.lower_xbar(n) in wanted]

    def ends(links):
        return [v for link in links for v in link]

    def canon(links):
        return [edge_key(u, v) for u, v in links]

    everything = range(17)
    study = canon([*uplink_edges(0)[:3], (XbarId("F", 0, 0), XbarId("M", 0, 0))])
    random_up = pick(uplinks(everything), 12)
    many_up = canon(pick(uplinks(everything), 60))
    fm_mt = pick(chains([("F", "M"), ("M", "T")]), 16)
    lu = canon(pick(intra(everything), 40))
    cu_cut = uplinks([5])
    far_cut = canon(uplinks([14]))
    switch3 = canon(chains([("F", "M"), ("M", "T")])[3 * 24:4 * 24])
    lower = XbarId("L", 2, 9)
    island = [
        *(e for e in uplink_edges(2) if e[0] == lower),
        *((lower, XbarId("U", 2, j)) for j in range(12)),
    ]
    detour = XbarId("L", 4, 3)
    no_uppers = canon((detour, XbarId("U", 4, j)) for j in range(12))
    access = [edge_key(("node", 7, 33), XbarId("L", 7, 4))]
    mixed = [*pick(uplinks(everything), 8), *pick(chains([("F", "M")]), 4),
             *pick(chains([("M", "T")]), 4), *canon(pick(intra(everything), 8)),
             *access]
    small = canon(pick(uplinks(range(13)), 20))
    return [
        ("failure_study", 17, True, study, on(ends(study))),
        ("random_uplinks", 17, True, random_up, on(ends(random_up))),
        ("many_uplinks", 17, True, many_up, on(ends(many_up))),
        ("chain_links", 17, True, fm_mt, []),
        ("intra_cu_links", 17, True, lu, on(ends(lu))),
        ("cu5_cut_off", 17, True, cu_cut, list(range(900, 1080))),
        ("cu14_cut_off", 17, True, far_cut, list(range(2520, 2700))),
        ("switch3_chains", 17, True, switch3, []),
        ("lower_island", 17, True, island, on([lower])),
        ("lower_without_uppers", 17, True, no_uppers, on([detour])),
        ("node_access", 17, True, access, [1293]),
        ("mixed", 17, True, mixed, [*on(ends(mixed)), 1293]),
        ("13_cus_no_io", 13, False, small, on(ends(small), 13)),
    ]


def _record() -> list[dict]:
    rng = np.random.default_rng(21)
    cases = []
    for name, cu_count, include_io, failed, focus in _failure_sets():
        topo = _topology(cu_count, include_io)
        n = topo.node_count
        pairs = []
        for k in range(PAIRS_PER_SET):
            src = int(rng.choice(focus)) if focus and k % 2 == 0 else int(rng.integers(n))
            pairs.append((src, int(rng.integers(n))))
        census_src = int(focus[0]) if focus else 0
        frozen = frozenset(failed)
        routes = [degraded_route(topo, s, d, frozen) for s, d in pairs]
        census = degraded_hop_census(topo, census_src, frozen)
        cases.append({
            "name": name,
            "cu_count": cu_count,
            "include_io": include_io,
            "failed_links": [[_encode(u), _encode(v)] for u, v in failed],
            "pairs": pairs,
            "routes": [None if r is None else [_encode(x) for x in r] for r in routes],
            "census_src": census_src,
            "census": {str(h): c for h, c in sorted(census.items())},
        })
    return cases


@pytest.fixture(scope="module")
def recorded():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        cases = ",\n".join(json.dumps(case) for case in _record())
        FIXTURE.write_text(f"[\n{cases}\n]\n")
        pytest.skip(f"regenerated {FIXTURE}")
    return {case["name"]: case for case in json.loads(FIXTURE.read_text())}


NAMES = [name for name, *_ in _failure_sets()]


@pytest.mark.parametrize("name", NAMES)
def test_degraded_routes_are_unchanged(name, recorded):
    case = recorded[name]
    topo = _topology(case["cu_count"], case["include_io"])
    failed = frozenset(
        (_decode(u), _decode(v)) for u, v in case["failed_links"]
    )
    for (src, dst), want in zip(case["pairs"], case["routes"], strict=True):
        got = degraded_route(topo, src, dst, failed)
        if want is None:
            assert got is None, (src, dst)
        else:
            assert got == [_decode(x) for x in want], (src, dst)
    census = degraded_hop_census(topo, case["census_src"], failed)
    assert {str(h): c for h, c in sorted(census.items())} == case["census"]


def test_fixture_covers_unroutable_pairs_and_cut_nodes(recorded):
    """The recorded sets must exercise the search's dead ends, or the
    oracle would pass a search that never returns ``None``."""
    unroutable = sum(r is None for case in recorded.values() for r in case["routes"])
    assert unroutable >= 10
    assert recorded["node_access"]["census"]["-1"] == 3059
    assert recorded["lower_island"]["census"]["-1"] == 3052
    assert recorded["cu5_cut_off"]["census"]["-1"] == 2880
