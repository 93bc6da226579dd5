"""Every reproduced table and figure, one producer each.

``ARTIFACTS[name]`` is an :class:`Artifact`.  Its ``data()`` calls the
models once and returns the JSON-serializable dict that ``python -m
repro --json <name>`` prints; its ``render(data)`` formats only that
dict into the text of ``python -m repro <name>``.  The claim checks of
:mod:`repro.validation.report` and the paper benches under
``benchmarks/`` read the same dicts, so each number has one source.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.report import format_series, format_table
from repro.microbench.characterize import characterize, render_characterization
from repro.units import to_mb_s, to_ms, to_us

__all__ = ["Artifact", "ARTIFACTS", "available", "lookup", "produce", "produce_data"]

Data = dict[str, Any]


@dataclass(frozen=True)
class Artifact:
    """One table or figure: its data producer and its text rendering."""

    description: str
    data: Callable[[], Data]
    render: Callable[[Data], str]


def _table1_data() -> Data:
    from repro.core.machine import RoadrunnerMachine

    machine = RoadrunnerMachine()
    census = machine.hop_census()
    return {
        "destinations_by_hops": {str(h): n for h, n in sorted(census.items())},
        "average_hops": machine.average_hop_count(),
    }


def _table1_text(d: Data) -> str:
    census = d["destinations_by_hops"]
    rows = [
        ("Self", 1, 0),
        ("Within same crossbar", census["1"], 1),
        ("Same CU / CUs 2-12 same crossbar", census["3"], 3),
        ("CUs 2-12 diff xbar / CUs 13-17 same", census["5"], 5),
        ("CUs 13-17 different crossbar", census["7"], 7),
        ("Total", sum(census.values()), f"{d['average_hops']:.2f} (avg)"),
    ]
    return format_table(
        ["Destination", "No. of destinations", "Hop count"], rows,
        title="Table I: distances from node 0 (crossbar hops)",
    )


def _table2_data() -> Data:
    from repro.core.machine import RoadrunnerMachine
    from repro.hardware.cell import CELL_BE, POWERXCELL_8I
    from repro.units import GFLOPS

    return {
        **RoadrunnerMachine().characteristics(),
        "pxc8i_chip_peak_dp_gflops": POWERXCELL_8I.spec.peak_dp_flops / GFLOPS,
        "spe_dp_factor": POWERXCELL_8I.spe_peak_dp_flops / CELL_BE.spe_peak_dp_flops,
    }


def _table2_text(d: Data) -> str:
    rows = [
        ("CU count", d["cu_count"]),
        ("node count", d["node_count"]),
        ("peak DP", f"{d['peak_dp_pflops']:.2f} Pflop/s"),
        ("peak SP", f"{d['peak_sp_pflops']:.2f} Pflop/s"),
        ("peak DP per CU", f"{d['cu_peak_dp_tflops']:.1f} Tflop/s"),
        ("node Cell blades DP", f"{d['node_cell_peak_dp_gflops']:.1f} Gflop/s"),
        ("node Opteron blade DP", f"{d['node_opteron_peak_dp_gflops']:.1f} Gflop/s"),
        ("Opteron cores / SPEs", f"{d['opteron_cores']} / {d['spes']}"),
    ]
    return format_table(["characteristic", "value"], rows,
                        title="Table II: Roadrunner characteristics")


def _table3_data() -> Data:
    from repro.hardware.memory import MEMORY_SYSTEMS
    from repro.units import MIB, NS, to_gb_s

    return {
        name: {
            "stream_triad_gb_s": to_gb_s(system.stream_triad_bandwidth()),
            "memtime_latency_ns": system.memtime_latency(256 * MIB) / NS,
        }
        for name, system in MEMORY_SYSTEMS.items()
    }


def _table3_text(d: Data) -> str:
    rows = [
        (name, f"{m['stream_triad_gb_s']:.2f}", f"{m['memtime_latency_ns']:.1f}")
        for name, m in d.items()
    ]
    return format_table(
        ["processor", "STREAM TRIAD (GB/s)", "latency (ns)"], rows,
        title="Table III: measured memory performance",
    )


def _table4_data() -> Data:
    from repro.hardware.cell import CELL_BE, POWERXCELL_8I
    from repro.sweep3d.cellport import grind_time
    from repro.sweep3d.input import SweepInput
    from repro.sweep3d.masterworker import MasterWorkerModel

    inp = SweepInput.paper_table4()
    return {
        "previous_cbe_s": MasterWorkerModel().iteration_time(inp),
        "ours_cbe_s": inp.angle_work * grind_time(CELL_BE),
        "ours_pxc8i_s": inp.angle_work * grind_time(POWERXCELL_8I),
    }


def _table4_text(d: Data) -> str:
    rows = [
        ("CBE", f"{d['previous_cbe_s']:.2f} s", f"{d['ours_cbe_s']:.2f} s"),
        ("PowerXCell 8i", "N/A", f"{d['ours_pxc8i_s']:.2f} s"),
    ]
    return format_table(["", "previous Sweep3D", "our Sweep3D"], rows,
                        title="Table IV: Sweep3D Cell implementations (50x50x50)")


def _fig1_data() -> Data:
    from repro.hardware.chipset import build_triblade_fabric
    from repro.hardware.node import TRIBLADE

    data: Data = {
        bridge.name: {
            "ht_port": bridge.ht_port,
            "pcie_ports": list(bridge.pcie_ports),
            "oversubscribed": bridge.oversubscribed,
            "pcie_gb_s": bridge.downstream_capacity / 1e9,
            "ht_gb_s": bridge.HT_BANDWIDTH / 1e9,
        }
        for bridge in build_triblade_fabric().bridges
    }
    data["links_gb_s"] = {
        lk.name: lk.bandwidth_per_direction / 1e9 for lk in TRIBLADE.links
    }
    data["paired_cell"] = {str(c): TRIBLADE.paired_cell(c) for c in range(4)}
    return data


def _fig1_text(d: Data) -> str:
    bridges = {k: v for k, v in d.items() if k not in ("links_gb_s", "paired_cell")}
    wiring = format_table(
        ["bridge", "HT x16 uplink", "PCIe x8 ports", "capacity"],
        [
            (name, b["ht_port"], ", ".join(b["pcie_ports"]),
             f"{b['pcie_gb_s']:.0f} GB/s PCIe under {b['ht_gb_s']:.1f} GB/s HT")
            for name, b in bridges.items()
        ],
        title="Fig 1 (reproduced): triblade internal wiring",
    )
    links = format_table(
        ["link", "per-direction bandwidth"],
        [(name, f"{gb_s:.1f} GB/s") for name, gb_s in d["links_gb_s"].items()],
        title="Triblade links",
    )
    pairing = ", ".join(f"core{c}->cell{cell}" for c, cell in d["paired_cell"].items())
    return (
        f"{wiring}\n\n{links}\n\nOpteron-Cell pairing: {pairing}\n"
        f"HCA-near cores: 1, 3 (socket 1 carries the IB HCA's bridge)"
    )


def _fig2_data() -> Data:
    from repro.network.crossbar import XbarId
    from repro.network.loadmap import bisection_summary, cross_side_links
    from repro.network.topology import RoadrunnerTopology

    topo = RoadrunnerTopology(cu_count=17)
    usage = topo.port_usage()
    topo.validate_ports()
    by_level = Counter(xbar.level for xbar in usage)
    uplinks = [
        (low, up) for low in usage if low.level == "L" and low.owner == 0
        for up in topo.graph[low] if isinstance(up, XbarId) and up.level in ("F", "T")
    ]
    return {
        "crossbars_by_level": by_level,
        "max_ports_used": max(usage.values()),
        "cu_lower_crossbars": by_level["L"] // topo.cu_count,
        "cu_upper_crossbars": by_level["U"] // topo.cu_count,
        "intercu_switches": len({x.owner for x in usage if x.level in ("F", "M", "T")}),
        "uplinks_per_cu": len(uplinks),
        "cross_side_links": cross_side_links(),
        "oversubscription": bisection_summary()["cu_oversubscription"],
    }


def _fig2_text(d: Data) -> str:
    by_level = d["crossbars_by_level"]
    structure = format_table(
        ["crossbar level", "count", "role"],
        [
            ("L (CU lower)", by_level["L"], "8 nodes + 12 up + 4 uplinks each"),
            ("U (CU upper)", by_level["U"], "24 ports to the CU's lowers"),
            ("F (inter-CU first)", by_level["F"], "one port per CU 1-12"),
            ("M (inter-CU middle)", by_level["M"], "bridges F and T"),
            ("T (inter-CU third)", by_level["T"], "one port per CU 13-17"),
        ],
        title="Fig 2 (reproduced): the fabric's crossbar inventory",
    )
    uplinks, switches = d["uplinks_per_cu"], d["intercu_switches"]
    return (
        f"{structure}\n\n"
        f"uplinks per CU: {uplinks} ({uplinks // switches} to each of "
        f"{switches} inter-CU switches)\n"
        f"oversubscription: {d['oversubscription']:.3f}:1 "
        "(the '2:1 reduced fat tree')\n"
        f"cross-side waist: {d['cross_side_links']} F-M links\n"
        f"port-budget check: no crossbar exceeds {d['max_ports_used']} ports "
        f"(validated over {sum(by_level.values())} crossbars)"
    )


def _fig3_data() -> Data:
    from repro.hardware.node import TRIBLADE

    return {
        "flops_dp": TRIBLADE.flop_breakdown_dp(),
        "memory_bytes": TRIBLADE.memory_breakdown(),
    }


def _fig3_text(d: Data) -> str:
    from repro.units import GIB, MIB, to_gflops

    part_a = format_table(
        ["component", "DP Gflop/s"],
        [(k, f"{to_gflops(v):.1f}") for k, v in d["flops_dp"].items()],
        title="Fig 3a: node peak processing rate",
    )
    part_b = format_table(
        ["memory", "capacity"],
        [
            (k, f"{v / GIB:.0f} GiB" if "off-chip" in k else f"{v / MIB:.2f} MiB")
            for k, v in d["memory_bytes"].items()
        ],
        title="Fig 3b: node memory capacity",
    )
    return part_a + "\n\n" + part_b


def _figs_4_5_data() -> Data:
    from repro.hardware.spe_pipeline import (
        CELL_BE_TABLE,
        INSTRUCTION_GROUPS,
        POWERXCELL_8I_TABLE,
        SPEPipeline,
    )

    out: Data = {}
    for table in (CELL_BE_TABLE, POWERXCELL_8I_TABLE):
        pipe = SPEPipeline(table)
        out[table.name] = {
            g.value: {
                "latency": pipe.measure_latency(g),
                "repetition": pipe.measure_repetition(g),
            }
            for g in INSTRUCTION_GROUPS
        }
    return out


def _figs_4_5_text(d: Data) -> str:
    cbe, pxc = d["Cell BE"], d["PowerXCell 8i"]
    rows = [
        (g, f"{cbe[g]['latency']:.0f}", f"{pxc[g]['latency']:.0f}",
         f"{cbe[g]['repetition']:.0f}", f"{pxc[g]['repetition']:.0f}")
        for g in cbe
    ]
    return format_table(
        ["group", "latency CBE", "latency PXC8i", "repetition CBE",
         "repetition PXC8i"],
        rows,
        title="Figs 4-5: SPE instruction-group microbenchmarks (cycles)",
    )


def _fig6_data() -> Data:
    from repro.comm.cml import INTERNODE_CELL_PATH

    return {
        "legs_us": [
            {"name": name, "latency_us": to_us(lat)}
            for name, lat in INTERNODE_CELL_PATH.latency_breakdown()
        ],
        "total_us": to_us(INTERNODE_CELL_PATH.zero_byte_latency),
    }


def _fig6_text(d: Data) -> str:
    rows = [(leg["name"], f"{leg['latency_us']:.2f} us") for leg in d["legs_us"]]
    rows.append(("TOTAL", f"{d['total_us']:.2f} us"))
    return format_table(["leg", "latency"], rows,
                        title="Fig 6: zero-byte Cell-to-Cell latency breakdown")


#: The message sizes of Figs 7-9: each figure's data covers its whole
#: list, and its text prints the rows of ``_FIGn_ROWS``.
_FIG7_SIZES = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1_000_000]
_FIG7_ROWS = [64, 1024, 16384, 262144, 1_000_000]
_FIG8_SIZES = [1, 10, 16, 100, 256, 1000, 4096, 10_000, 65536, 100_000,
               262144, 1_000_000, 10_000_000]
_FIG8_ROWS = [1000, 100_000, 10_000_000]
_FIG9_SIZES = [1, 10, 16, 100, 256, 1000, 2048, 4096, 8192, 16384, 65536,
               131072, 262144, 1_000_000]
_FIG9_ROWS = [256, 2048, 16384, 131072, 1_000_000]


def _size_rows(d: Data, sizes: list[int], columns: dict[str, str],
               fmt: str, title: str) -> str:
    """The ``sizes`` rows of a bandwidth figure's data as a series."""
    at = [d["sizes_bytes"].index(s) for s in sizes]
    return format_series(
        "size (B)", sizes,
        {label: [d[key][i] for i in at] for label, key in columns.items()},
        fmt=fmt, title=title,
    )


def _fig7_data() -> Data:
    from repro.comm.cml import INTERNODE_CELL_PATH
    from repro.comm.dacs import DACS_MEASURED

    data: Data = {"sizes_bytes": _FIG7_SIZES}
    paths = {"intranode": DACS_MEASURED, "internode": INTERNODE_CELL_PATH}
    for where, path in paths.items():
        data[f"{where}_2x_uni_mb_s"] = [
            to_mb_s(2 * path.effective_bandwidth(s)) for s in _FIG7_SIZES
        ]
        data[f"{where}_bidir_mb_s"] = [
            to_mb_s(path.bidirectional_sum_bandwidth(s)) for s in _FIG7_SIZES
        ]
    return data


def _fig7_text(d: Data) -> str:
    labels = ("intranode 2x uni", "intranode bidir", "internode 2x uni",
              "internode bidir")
    return _size_rows(
        d, _FIG7_ROWS, {label: label.replace(" ", "_") + "_mb_s" for label in labels},
        fmt="{:.1f}", title="Fig 7: intra-/internode bandwidth (MB/s)",
    )


def _fig8_data() -> Data:
    from repro.comm.ib import ib_between_cores

    near, far = ib_between_cores(1, 3), ib_between_cores(0, 2)
    return {
        "sizes_bytes": _FIG8_SIZES,
        "cores_1_3_mb_s": [to_mb_s(near.effective_bandwidth(s)) for s in _FIG8_SIZES],
        "cores_0_2_mb_s": [to_mb_s(far.effective_bandwidth(s)) for s in _FIG8_SIZES],
    }


def _fig8_text(d: Data) -> str:
    return _size_rows(
        d, _FIG8_ROWS,
        {"cores 1<->3": "cores_1_3_mb_s", "cores 0<->2": "cores_0_2_mb_s"},
        fmt="{:.1f}",
        title="Fig 8: internode Opteron bandwidth by core pair (MB/s)",
    )


def _fig9_data() -> Data:
    from repro.comm.dacs import DACS_MEASURED
    from repro.comm.ib import IB_DEFAULT

    dacs = [DACS_MEASURED.effective_bandwidth(s) for s in _FIG9_SIZES]
    ib = [IB_DEFAULT.effective_bandwidth(s) for s in _FIG9_SIZES]
    return {
        "sizes_bytes": _FIG9_SIZES,
        "dacs_mb_s": [to_mb_s(v) for v in dacs],
        "ib_mb_s": [to_mb_s(v) for v in ib],
        "ratio_ib_over_dacs": [i / d for i, d in zip(ib, dacs)],
    }


def _fig9_text(d: Data) -> str:
    return _size_rows(
        d, _FIG9_ROWS,
        {"DaCS (MB/s)": "dacs_mb_s", "InfiniBand (MB/s)": "ib_mb_s",
         "IB/DaCS": "ratio_ib_over_dacs"},
        fmt="{:.2f}", title="Fig 9: InfiniBand vs DaCS PCIe performance",
    )


def _fig10_data() -> Data:
    from repro.core.machine import RoadrunnerMachine

    series = RoadrunnerMachine().latency_map()
    return {"latency_us_by_node": [to_us(v) for v in series]}


def _fig10_text(d: Data) -> str:
    series = d["latency_us_by_node"]
    return format_table(
        ["destination node", "latency (us)"],
        [(n, f"{series[n]:.2f}") for n in (1, 100, 180, 250, 900, 2160, 2500)],
        title="Fig 10: zero-byte latency from rank 0 (staircase samples)",
    )


def _fig11_data() -> Data:
    from repro.sweep3d.wavefront import render_2d, total_steps, wavefront_cells

    out: Data = {}
    for shape in ((4,), (4, 4), (4, 4, 4)):
        out["x".join(map(str, shape))] = [
            len(wavefront_cells(shape, s))
            for s in range(1, total_steps(shape) + 1)
        ]
    out["frames_4x4"] = [render_2d((4, 4), step) for step in (1, 2, 3, 4)]
    out["front_4x4x4_step3"] = sorted(wavefront_cells((4, 4, 4), 3))
    return out


def _fig11_text(d: Data) -> str:
    body = "\n\n".join(
        f"step {step}:\n{frame}" for step, frame in enumerate(d["frames_4x4"], 1)
    )
    summary = format_table(
        ["grid", "steps to sweep"],
        [("4 (1-D)", len(d["4"])),
         ("4x4 (2-D)", len(d["4x4"])),
         ("4x4x4 (3-D)", len(d["4x4x4"]))],
    )
    front3 = ", ".join(str(tuple(cell)) for cell in d["front_4x4x4_step3"])
    return (
        "Fig 11: wavefront propagation (# processed, * wavefront edge)\n"
        "=============================================================\n"
        f"{body}\n\n{summary}\n\n"
        f"3-D wavefront at step 3: [{front3}]"
    )


def _fig12_data() -> Data:
    from repro.hardware.cell import POWERXCELL_8I
    from repro.hardware.opteron import (
        OPTERON_2210_HE,
        OPTERON_QUAD_2356,
        TIGERTON_X7350,
    )
    from repro.sweep3d.cellport import grind_time
    from repro.sweep3d.x86 import x86_grind_time

    # 5x5x400 cells per core and 10x20x400 per socket, 48 angle-octant
    # passes per cell.
    grinds = [(p.name, x86_grind_time(p), p.core_count)
              for p in (OPTERON_2210_HE, OPTERON_QUAD_2356, TIGERTON_X7350)]
    grinds.append(("PowerXCell 8i", grind_time(POWERXCELL_8I), 8))
    return {
        name: {
            "single_core_s": 10000 * 48 * g,
            "single_socket_s": 80000 / cores * 48 * g,
        }
        for name, g, cores in grinds
    }


def _fig12_text(d: Data) -> str:
    rows = [
        (name, f"{to_ms(t['single_core_s']):.1f}", f"{to_ms(t['single_socket_s']):.1f}")
        for name, t in d.items()
    ]
    return format_table(
        ["processor", "single core (ms)", "single socket (ms)"], rows,
        title="Fig 12: Sweep3D iteration time, 5x5x400/core and 10x20x400/socket",
    )


def _fig13_data() -> Data:
    from repro.sweep3d.scaling import ScalingStudy
    from repro.validation.paper_data import SCALING_NODE_COUNTS

    counts = list(SCALING_NODE_COUNTS)
    data: Data = {"nodes": counts}
    for config, points in ScalingStudy().fig13_series(counts).items():
        data[config] = [p.iteration_time for p in points]
    return data


def _fig13_text(d: Data) -> str:
    return format_series(
        "nodes", d["nodes"],
        {
            "Opteron only (s)": d["opteron"],
            "Cell measured (s)": d["cell_measured"],
            "Cell best (s)": d["cell_best"],
        },
        fmt="{:.3f}",
        title="Fig 13: Sweep3D weak scaling",
    )


def _fig14_data() -> Data:
    from repro.sweep3d.scaling import ScalingStudy
    from repro.validation.paper_data import SCALING_NODE_COUNTS

    counts = list(SCALING_NODE_COUNTS)
    return {"nodes": counts, **ScalingStudy().fig14_improvements(counts)}


def _fig14_text(d: Data) -> str:
    return format_series(
        "nodes", d["nodes"],
        {"measured": d["measured"], "best": d["best"]},
        fmt="{:.2f}",
        title="Fig 14: accelerated vs non-accelerated improvement",
    )


def _linpack_data() -> Data:
    from repro.core.machine import RoadrunnerMachine
    from repro.linpack.power import GREEN500_CELL_ONLY_MODEL

    machine = RoadrunnerMachine()
    run = machine.linpack()
    return {
        "peak_dp_pflops": machine.peak_dp_pflops,
        "rmax_pflops": run.rmax_flops / 1e15,
        "efficiency": run.efficiency,
        "problem_size": run.n,
        "green500_mflops_per_watt": machine.green500_mflops_per_watt(),
        "green500_cell_only_mflops_per_watt":
            GREEN500_CELL_ONLY_MODEL.mflops_per_watt(),
        "opteron_only_rmax_tflops": machine.linpack_opteron_only().rmax_flops / 1e12,
        "opteron_only_top500_position": machine.opteron_only_top500_position(),
    }


def _linpack_text(d: Data) -> str:
    rows = [
        ("peak DP", f"{d['peak_dp_pflops']:.2f} Pflop/s"),
        ("LINPACK Rmax", f"{d['rmax_pflops']:.3f} Pflop/s"),
        ("efficiency", f"{d['efficiency']:.1%}"),
        ("Green500", f"{d['green500_mflops_per_watt']:.0f} Mflop/s/W"),
        ("Opteron-only Rmax", f"{d['opteron_only_rmax_tflops']:.1f} Tflop/s"),
        ("Opteron-only Top 500", f"~position {d['opteron_only_top500_position']}"),
    ]
    return format_table(["claim", "reproduced"], rows,
                        title="Headline claims (LINPACK / Green500)")


def _apps_data() -> Data:
    from repro.apps.speedup import all_speedups

    return all_speedups()


def _apps_text(d: Data) -> str:
    return format_table(
        ["application", "PXC8i speedup over Cell BE"],
        [(k, f"{v:.2f}x") for k, v in d.items()],
        title="§IV-A: application speedups, pipeline-derived",
    )


def _energy_data() -> Data:
    from repro.core.energy import EnergyStudy

    study = EnergyStudy()
    return {str(n): study.energy_advantage(n) for n in (1, 64, 1024, 3060)}


def _energy_text(d: Data) -> str:
    rows = [
        (nodes, f"{adv['time_measured']:.2f}x", f"{adv['energy_measured']:.2f}x",
         f"{adv['time_best']:.2f}x", f"{adv['energy_best']:.2f}x")
        for nodes, adv in d.items()
    ]
    return format_table(
        ["nodes", "time adv.", "energy adv.", "time (best)", "energy (best)"],
        rows,
        title="Extension: Sweep3D energy-to-solution, accelerated vs not",
    )


def _resilience_data() -> Data:
    from repro.resilience.checkpoint import sweep_failure_study

    return sweep_failure_study()


def _resilience_text(study: Data) -> str:
    rows = [
        (
            f"{row['node_mtbf_hours'] / 8760:.0f}y",
            f"{row['system_mtbf_hours']:.1f}",
            f"{row['daly_interval_s'] / 60:.1f}",
            f"{row['expected_slowdown']:.3f}x",
            f"{row['expected_wallclock_hours']:.2f}",
        )
        for row in study["rows"]
    ]
    table = format_table(
        ["node MTBF", "system MTBF (h)", "Daly interval (min)",
         "slowdown", f"{study['campaign_hours']:.0f}h campaign (h)"],
        rows,
        title="Extension: checkpoint/restart economics at 3,060 nodes",
    )
    return (
        f"{table}\n\n"
        f"full-machine sweep iteration: {study['iteration_time_s']:.3f} s "
        f"({study['config']}, {study['nodes']} nodes)\n"
        f"checkpoint write {study['checkpoint_time_s']:.0f} s (Panasas "
        "PFS model, half of system memory through 204 I/O nodes), "
        f"restart {study['restart_time_s']:.0f} s; intervals are "
        "Daly-optimal (model extension beyond the paper)"
    )


#: Failure-burst sizes: one node, a triblade pair, a CU power domain.
_BURSTS = {"independent": 1, "triblade_pair": 2, "cu_domain": 180}


def _resilience_correlated_data() -> Data:
    from repro.resilience.checkpoint import sweep_failure_study

    return {name: sweep_failure_study(burst_size=b) for name, b in _BURSTS.items()}


def _resilience_correlated_text(d: Data) -> str:
    by_mtbf = zip(*(d[name]["rows"] for name in _BURSTS))
    rows = [
        (
            f"{ind['node_mtbf_hours'] / 8760:.0f}y",
            f"{ind['daly_interval_s'] / 60:.0f}",
            f"{ind['expected_slowdown']:.3f}x",
            f"{pair['daly_interval_s'] / 60:.0f}",
            f"{pair['expected_slowdown']:.3f}x",
            f"{cu['daly_interval_s'] / 60:.0f}",
            f"{cu['expected_slowdown']:.3f}x",
        )
        for ind, pair, cu in by_mtbf
    ]
    table = format_table(
        ["node MTBF",
         "indep tau (min)", "slowdown",
         "pair tau (min)", "slowdown",
         "CU tau (min)", "slowdown"],
        rows,
        title="Extension: correlated power-domain failures at 3,060 nodes",
    )
    return (
        f"{table}\n\n"
        "same per-node MTBF throughout: correlated bursts (triblade "
        "pair = 2 nodes, CU power domain = 180 nodes) make interrupting "
        "events rarer, so the Daly-optimal checkpoint interval "
        "stretches ~sqrt(burst) and the expected slowdown falls "
        "(model extension beyond the paper)"
    )


_FIGS_4_5 = Artifact("Figs 4-5: SPE instruction microbenchmarks",
                     _figs_4_5_data, _figs_4_5_text)

ARTIFACTS: dict[str, Artifact] = {
    "fig1": Artifact("Fig 1: triblade structure", _fig1_data, _fig1_text),
    "fig2": Artifact("Fig 2: fabric structure", _fig2_data, _fig2_text),
    "table1": Artifact("Table I: hop-count census", _table1_data, _table1_text),
    "table2": Artifact("Table II: system characteristics", _table2_data, _table2_text),
    "table3": Artifact("Table III: memory measurements", _table3_data, _table3_text),
    "table4": Artifact("Table IV: Sweep3D Cell implementations",
                       _table4_data, _table4_text),
    "fig3": Artifact("Fig 3: node capacity breakdown", _fig3_data, _fig3_text),
    "fig4": _FIGS_4_5,
    "fig5": _FIGS_4_5,
    "fig6": Artifact("Fig 6: latency breakdown", _fig6_data, _fig6_text),
    "fig7": Artifact("Fig 7: Cell bandwidth curves", _fig7_data, _fig7_text),
    "fig8": Artifact("Fig 8: Opteron pair bandwidth", _fig8_data, _fig8_text),
    "fig9": Artifact("Fig 9: DaCS vs InfiniBand", _fig9_data, _fig9_text),
    "fig10": Artifact("Fig 10: latency staircase", _fig10_data, _fig10_text),
    "fig11": Artifact("Fig 11: wavefront propagation", _fig11_data, _fig11_text),
    "fig12": Artifact("Fig 12: single core/socket Sweep3D", _fig12_data, _fig12_text),
    "fig13": Artifact("Fig 13: Sweep3D weak scaling", _fig13_data, _fig13_text),
    "fig14": Artifact("Fig 14: improvement factors", _fig14_data, _fig14_text),
    "linpack": Artifact("Headline LINPACK/Green500 claims",
                        _linpack_data, _linpack_text),
    "apps": Artifact("§IV-A application speedups", _apps_data, _apps_text),
    "energy": Artifact("Extension: energy-to-solution", _energy_data, _energy_text),
    "section4": Artifact("§IV measured in one campaign",
                         characterize, render_characterization),
    "resilience": Artifact("Extension: MTBF vs checkpoint economics",
                           _resilience_data, _resilience_text),
    "resilience-correlated": Artifact(
        "Extension: correlated power-domain failure economics",
        _resilience_correlated_data, _resilience_correlated_text,
    ),
}


def available() -> list[tuple[str, str]]:
    """(name, description) pairs of every producible artifact."""
    return [(name, art.description) for name, art in ARTIFACTS.items()]


def lookup(name: str) -> Artifact:
    """The artifact registered as ``name``; ``"validate"`` names the
    claim report of :mod:`repro.validation.report`."""
    if name == "validate":
        from repro.validation.report import VALIDATION

        return VALIDATION
    try:
        return ARTIFACTS[name]
    except KeyError:
        raise KeyError(
            f"unknown artifact {name!r}; available: {', '.join(sorted(ARTIFACTS))}"
        ) from None


def produce(name: str) -> str:
    """One artifact as text."""
    artifact = lookup(name)
    return artifact.render(artifact.data())


def produce_data(name: str) -> Data:
    """One artifact as JSON-serializable data."""
    return lookup(name).data()
