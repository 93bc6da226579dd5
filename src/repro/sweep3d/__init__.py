"""Sweep3D: a single-group, time-independent discrete-ordinates (SN)
neutron-transport wavefront kernel (paper §V), implemented with real
numerics and executable both sequentially and as a distributed KBA sweep
on the simulated Roadrunner machine.

The package mirrors the paper's study end to end:

* :mod:`repro.sweep3d.kernel` / :mod:`repro.sweep3d.solver` — the one
  diamond-difference block kernel (plain or with the set-to-zero
  fixup, over a :mod:`repro.sweep3d.plan` wavefront schedule) and
  source iteration (validated against the naive
  :mod:`repro.sweep3d.reference`).
* :mod:`repro.sweep3d.parallel` — the MPI-decomposed sweep running on
  :class:`repro.comm.mpi.SimMPI`: real fluxes, simulated time.
* :mod:`repro.sweep3d.cellport` — the SPE-centric Cell port cost model
  (local-store blocking, DMA traffic, the pipeline-derived grind time).
* :mod:`repro.sweep3d.perfmodel` — the Hoisie et al. analytic wavefront
  model behind Figs 13-14.
"""

from repro.sweep3d.input import SweepInput
from repro.sweep3d.quadrature import AngleSet, Octant, OCTANTS, make_angle_set
from repro.sweep3d.plan import SweepPlan, get_plan, clear_plans
from repro.sweep3d.kernel import sweep_octant
from repro.sweep3d.multigroup import MultigroupInput, MultigroupResult, solve_multigroup
from repro.sweep3d.reference import reference_sweep_octant
from repro.sweep3d.solver import SweepResult, solve
from repro.sweep3d.decomposition import Decomposition2D
from repro.sweep3d.cellport import CellPortModel, SPE_GRIND, grind_times
from repro.sweep3d.masterworker import MasterWorkerModel
from repro.sweep3d.perfmodel import WavefrontModel, SweepMachineParams
from repro.sweep3d.parallel import ParallelSweep, ParallelSweepResult
from repro.sweep3d.scaling import ScalingStudy
from repro.sweep3d.x86 import x86_grind_time

__all__ = [
    "ParallelSweep",
    "ParallelSweepResult",
    "ScalingStudy",
    "x86_grind_time",
    "SweepInput",
    "AngleSet",
    "Octant",
    "OCTANTS",
    "make_angle_set",
    "SweepPlan",
    "get_plan",
    "clear_plans",
    "sweep_octant",
    "MultigroupInput",
    "MultigroupResult",
    "solve_multigroup",
    "reference_sweep_octant",
    "SweepResult",
    "solve",
    "Decomposition2D",
    "CellPortModel",
    "SPE_GRIND",
    "grind_times",
    "MasterWorkerModel",
    "WavefrontModel",
    "SweepMachineParams",
]
