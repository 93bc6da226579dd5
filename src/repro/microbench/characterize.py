"""One-shot machine characterization: every §IV probe in one campaign.

Runs the instruction microbenchmarks, the memory probes, and the
communication ping-pongs against the assembled machine model and
returns a structured report — the library's equivalent of the paper's
whole §IV, regenerated in one call:

>>> from repro.microbench.characterize import characterize
>>> report = characterize()
>>> round(report["memory"]["Opteron"]["triad_gb_s"], 2)
5.41
"""

from __future__ import annotations

from typing import Any

from repro.units import KIB, MB, MIB, NS, to_gb_s, to_mb_s, to_us

__all__ = ["characterize", "render_characterization"]


def characterize(include_latency_map: bool = False) -> dict[str, Any]:
    """Run the full probe campaign; returns nested plain data."""
    from repro.comm.cml import INTERNODE_CELL_PATH, INTRANODE_CELL_PATH
    from repro.comm.dacs import DACS_MEASURED, PCIE_RAW
    from repro.comm.eib import CML_EIB_PAIR
    from repro.comm.ib import IB_DEFAULT
    from repro.comm.mpi import Location, UniformFabric
    from repro.hardware.memory import MEMORY_SYSTEMS
    from repro.hardware.spe_pipeline import (
        CELL_BE_TABLE,
        INSTRUCTION_GROUPS,
        POWERXCELL_8I_TABLE,
    )
    from repro.microbench.instr import instruction_microbenchmark
    from repro.microbench.pingpong import pingpong
    from repro.microbench.streams import memtime_probe, stream_triad_probe

    report: dict[str, Any] = {}

    # §IV-A: the SPE pipelines.
    pipelines = {}
    for table in (CELL_BE_TABLE, POWERXCELL_8I_TABLE):
        measured = instruction_microbenchmark(table)
        pipelines[table.name] = {
            g.value: {
                "latency": measured[g].latency,
                "repetition": measured[g].repetition,
            }
            for g in INSTRUCTION_GROUPS
        }
    report["pipelines"] = pipelines

    # §IV-B: memory.
    memory = {}
    for name, system in MEMORY_SYSTEMS.items():
        triad = stream_triad_probe(system, elements=50_000)
        curve = memtime_probe(system, [16 * KIB, 1 * MIB, 64 * MIB])
        memory[name] = {
            "triad_gb_s": to_gb_s(triad.modeled_bandwidth),
            "memtime_ns": {str(size): lat / NS for size, lat in curve},
        }
    report["memory"] = memory

    # §IV-C: communication layers (zero-byte latency + 1 MB bandwidth).
    comm = {}
    for name, transport in (
        ("EIB (CML intra-socket)", CML_EIB_PAIR),
        ("DaCS/PCIe (measured)", DACS_MEASURED),
        ("raw PCIe", PCIE_RAW),
        ("MPI/InfiniBand", IB_DEFAULT),
        ("Cell-to-Cell intranode", INTRANODE_CELL_PATH),
        ("Cell-to-Cell internode", INTERNODE_CELL_PATH),
    ):
        fabric = UniformFabric(transport)
        zero = pingpong(fabric, Location(0), Location(1), size=0, repetitions=3)
        big = pingpong(
            fabric, Location(0), Location(1), size=int(1 * MB), repetitions=3
        )
        comm[name] = {
            "latency_us": to_us(zero.one_way_time),
            "bandwidth_1mb_mb_s": to_mb_s(big.bandwidth),
        }
    report["communication"] = comm

    if include_latency_map:
        from repro.microbench.latency_map import measure_latency_map
        from repro.network.topology import RoadrunnerTopology

        topo = RoadrunnerTopology(cu_count=2)
        samples = [1, 10, 100, 180, 200]
        report["latency_map_us"] = {
            str(dst): to_us(lat)
            for dst, lat in measure_latency_map(topo, samples).items()
        }

    return report


def render_characterization(report: dict[str, Any]) -> str:
    """A :func:`characterize` report as readable text."""
    from repro.core.report import format_table

    parts = []
    parts.append(
        format_table(
            ["layer", "latency", "bandwidth @1MB"],
            [
                (name, f"{d['latency_us']:.2f} us", f"{d['bandwidth_1mb_mb_s']:.0f} MB/s")
                for name, d in report["communication"].items()
            ],
            title="Communication hierarchy (measured by DES ping-pong)",
        )
    )
    parts.append(
        format_table(
            ["memory system", "TRIAD", "latency (64 MiB set)"],
            [
                (
                    name,
                    f"{d['triad_gb_s']:.2f} GB/s",
                    f"{d['memtime_ns'][str(64 * MIB)]:.1f} ns",
                )
                for name, d in report["memory"].items()
            ],
            title="Memory systems (STREAM TRIAD + memtime)",
        )
    )
    fpd_cbe = report["pipelines"]["Cell BE"]["FPD"]
    fpd_pxc = report["pipelines"]["PowerXCell 8i"]["FPD"]
    parts.append(
        "FPD unit: latency "
        f"{fpd_cbe['latency']:.0f} -> {fpd_pxc['latency']:.0f} cycles, "
        f"repetition {fpd_cbe['repetition']:.0f} -> "
        f"{fpd_pxc['repetition']:.0f} (the PowerXCell 8i redesign)"
    )
    return "\n\n".join(parts)
