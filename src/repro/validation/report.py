"""The paper's checked claims, declared against the artifacts' data.

Each row of :data:`CLAIMS` names a published number, the registered
artifact (:mod:`repro.core.artifacts`) whose data reproduces it, the
key path to that value, and the relative tolerance.
:func:`run_checks` computes each artifact's data once and checks every
row against it; ``python -m repro validate`` prints the PASS/FAIL
table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.artifacts import ARTIFACTS, Artifact
from repro.validation import paper_data
from repro.validation.compare import relative_error

__all__ = ["CLAIMS", "CheckResult", "VALIDATION", "render_report", "report_data",
           "run_checks"]

#: (section, claim, artifact, key path into its data, paper value,
#: relative tolerance), in report order.  Fig 14's last point is the
#: full machine's 3,060 nodes.
CLAIMS: list[tuple[str, str, str, tuple[Any, ...], float, float]] = [
    ("Table II", "peak DP (Pflop/s)", "table2", ("peak_dp_pflops",),
     paper_data.PEAK_DP_PFLOPS, 0.01),
    ("Table II", "peak SP (Pflop/s)", "table2", ("peak_sp_pflops",),
     paper_data.PEAK_SP_PFLOPS, 0.01),
    ("Table II", "CU peak DP (Tflop/s)", "table2", ("cu_peak_dp_tflops",),
     paper_data.CU_PEAK_DP_TFLOPS, 0.005),
    ("§II", "PXC8i chip DP (Gflop/s)", "table2", ("pxc8i_chip_peak_dp_gflops",),
     paper_data.PXC8I_PEAK_DP_GFLOPS, 0.005),
    ("§II", "CBE->PXC8i DP factor", "table2", ("spe_dp_factor",),
     paper_data.DP_IMPROVEMENT_FACTOR, 0.01),
    ("headline", "LINPACK Rmax (Pflop/s)", "linpack", ("rmax_pflops",),
     paper_data.LINPACK_SUSTAINED_PFLOPS, 0.01),
    ("headline", "Green500 (Mflop/s/W)", "linpack", ("green500_mflops_per_watt",),
     paper_data.GREEN500_MFLOPS_PER_WATT, 0.01),
    ("headline", "Cell-only Green500 (Mflop/s/W)", "linpack",
     ("green500_cell_only_mflops_per_watt",),
     paper_data.GREEN500_CELL_ONLY_MFLOPS_PER_WATT, 0.01),
    ("headline", "Opteron-only Top500 position", "linpack",
     ("opteron_only_top500_position",),
     paper_data.OPTERON_ONLY_TOP500_POSITION, 0.25),
    *[
        ("Table I", f"destinations at {hops} hops", "table1",
         ("destinations_by_hops", str(hops)), count, 0.0)
        for hops, count in ((1, 7), (3, 260), (5, 1932), (7, 860))
    ],
    ("Table I", "average hops", "table1", ("average_hops",),
     paper_data.HOP_AVERAGE, 0.001),
    *[
        claim
        for name in paper_data.STREAM_TRIAD_GB_S
        for claim in (
            ("Table III", f"{name} TRIAD (GB/s)", "table3",
             (name, "stream_triad_gb_s"), paper_data.STREAM_TRIAD_GB_S[name], 0.001),
            ("Table III", f"{name} latency (ns)", "table3",
             (name, "memtime_latency_ns"), paper_data.MEMTIME_LATENCY_NS[name], 0.001),
        )
    ],
    ("Fig 6", "Cell-to-Cell zero-byte latency (us)", "fig6", ("total_us",),
     paper_data.CELL_TO_CELL_INTERNODE_LATENCY_US, 0.005),
    ("Table IV", "previous CBE (s)", "table4", ("previous_cbe_s",),
     paper_data.TABLE4_PREVIOUS_CBE_S, 0.05),
    ("Table IV", "ours CBE (s)", "table4", ("ours_cbe_s",),
     paper_data.TABLE4_OURS_CBE_S, 0.02),
    ("Table IV", "ours PXC8i (s)", "table4", ("ours_pxc8i_s",),
     paper_data.TABLE4_OURS_PXC8I_S, 0.02),
    *[
        ("§IV-A", f"{app} speedup", "apps", (app,), expected, 0.05)
        for app, expected in (
            ("VPIC", paper_data.APP_SPEEDUP_VPIC),
            ("SPaSM", paper_data.APP_SPEEDUP_SPASM),
            ("Milagro", paper_data.APP_SPEEDUP_MILAGRO),
            ("Sweep3D", paper_data.APP_SPEEDUP_SWEEP3D),
        )
    ],
    ("Fig 14", "measured improvement at 3,060 nodes", "fig14", ("measured", -1),
     paper_data.FIG14_MEASURED_IMPROVEMENT_LARGE, 0.2),
    ("Fig 14", "best improvement at 3,060 nodes", "fig14", ("best", -1),
     paper_data.FIG14_BEST_IMPROVEMENT_LARGE, 0.25),
]


@dataclass(frozen=True)
class CheckResult:
    """One validated claim."""

    section: str
    claim: str
    paper_value: str
    reproduced: str
    rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.rel_error <= self.tolerance


def run_checks() -> list[CheckResult]:
    """Evaluate every claim; returns one record per check."""
    data: dict[str, Any] = {}
    results = []
    for section, claim, artifact, key, paper, tolerance in CLAIMS:
        if artifact not in data:
            data[artifact] = ARTIFACTS[artifact].data()
        value = data[artifact]
        for k in key:
            value = value[k]
        results.append(CheckResult(section, claim, f"{paper:g}", f"{value:.4g}",
                                   relative_error(value, paper), tolerance))
    return results


def report_data(results: list[CheckResult] | None = None) -> dict[str, Any]:
    """The checks as JSON-serializable data (``--json validate``)."""
    results = results if results is not None else run_checks()
    return {
        "checks": [
            {
                "section": r.section,
                "claim": r.claim,
                "paper": r.paper_value,
                "reproduced": r.reproduced,
                "rel_error": r.rel_error,
                "passed": r.passed,
            }
            for r in results
        ],
        "passed": sum(r.passed for r in results),
        "total": len(results),
    }


def _render(report: dict[str, Any]) -> str:
    from repro.core.report import format_table

    rows = [
        (c["section"], c["claim"], c["paper"], c["reproduced"],
         f"{c['rel_error']:.1%}", "PASS" if c["passed"] else "FAIL")
        for c in report["checks"]
    ]
    table = format_table(
        ["section", "claim", "paper", "reproduced", "error", "status"],
        rows,
        title="Validation: paper vs reproduced",
    )
    return f"{table}\n\n{report['passed']}/{report['total']} checks pass"


def render_report(results: list[CheckResult] | None = None) -> str:
    """The PASS/FAIL table as text."""
    return _render(report_data(results))


#: ``python -m repro validate``: the claim report as an artifact.
VALIDATION = Artifact("run every claim check (PASS/FAIL table)", report_data, _render)
