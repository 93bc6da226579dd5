"""Tests for the Sweep3D numerics: quadrature, kernels, solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep3d.input import SweepInput
from repro.sweep3d.kernel import sweep_octant
from repro.sweep3d.quadrature import OCTANTS, Octant, make_angle_set
from repro.sweep3d.reference import reference_sweep_octant
from repro.sweep3d.solver import solve, sweep_all_octants


# --- quadrature ------------------------------------------------------------------

def test_eight_octants_cover_all_sign_combinations():
    signs = {o.signs for o in OCTANTS}
    assert len(signs) == 8


def test_octants_ordered_in_same_corner_pairs():
    """Sweep3D's octant order changes (sx, sy) corner only every other
    octant, so z-paired octants pipeline without a refill."""
    corners = [(o.sx, o.sy) for o in OCTANTS]
    for a in range(0, 8, 2):
        assert corners[a] == corners[a + 1]
    assert len(set(corners)) == 4


def test_octant_sign_validation():
    with pytest.raises(ValueError):
        Octant(0, 2, 1, 1)


def test_s6_ordinates_on_unit_sphere():
    ang = make_angle_set(6)
    norms = ang.mu**2 + ang.eta**2 + ang.xi**2
    assert np.allclose(norms, 1.0, atol=1e-6)


def test_angle_weights_normalized_over_8_octants():
    for mmi in (1, 3, 6, 12):
        ang = make_angle_set(mmi)
        assert 8 * ang.weight_sum == pytest.approx(1.0)


def test_angle_set_validation():
    ang = make_angle_set(6)
    with pytest.raises(ValueError):
        make_angle_set(0)
    from repro.sweep3d.quadrature import AngleSet

    with pytest.raises(ValueError):
        AngleSet(mu=ang.mu[:3], eta=ang.eta, xi=ang.xi, weights=ang.weights)
    with pytest.raises(ValueError):
        AngleSet(
            mu=np.array([1.5]), eta=np.array([0.5]),
            xi=np.array([0.5]), weights=np.array([0.125]),
        )


# --- kernel vs reference oracle ------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 1, 1), (3, 1, 2), (4, 5, 3), (2, 7, 4)])
@pytest.mark.parametrize("mmi", [1, 6])
def test_vectorized_kernel_matches_reference(shape, mmi):
    rng = np.random.default_rng(42)
    I, J, K = shape
    ang = make_angle_set(mmi)
    src = rng.random(shape)
    sig = 0.5 + rng.random()
    in_x = rng.random((J, K, mmi))
    in_y = rng.random((I, K, mmi))
    in_z = rng.random((I, J, mmi))
    ref = reference_sweep_octant(sig, src, 1.0, 0.8, 1.2, ang, in_x, in_y, in_z)
    vec = sweep_octant(sig, src, 1.0, 0.8, 1.2, ang, in_x, in_y, in_z)
    for r, v in zip(ref, vec):
        np.testing.assert_allclose(v, r, rtol=1e-13, atol=1e-13)


def test_kernel_validates_inflow_shapes():
    ang = make_angle_set(2)
    src = np.ones((2, 3, 4))
    good = dict(
        inflow_x=np.zeros((3, 4, 2)),
        inflow_y=np.zeros((2, 4, 2)),
        inflow_z=np.zeros((2, 3, 2)),
    )
    sweep_octant(1.0, src, 1, 1, 1, ang, **good)
    for key, shape in [
        ("inflow_x", (4, 3, 2)), ("inflow_y", (4, 2, 2)), ("inflow_z", (3, 2, 2))
    ]:
        bad = dict(good)
        bad[key] = np.zeros(shape)
        with pytest.raises(ValueError):
            sweep_octant(1.0, src, 1, 1, 1, ang, **bad)


def test_kernel_rejects_array_sigma_t():
    """The kernel binds a scalar cross-section; only the naive
    reference sweeps a per-cell array."""
    ang = make_angle_set(2)
    src = np.ones((2, 3, 4))
    ins = (np.zeros((3, 4, 2)), np.zeros((2, 4, 2)), np.zeros((2, 3, 2)))
    for fixup in (False, True):
        with pytest.raises(ValueError, match="scalar sigma_t"):
            sweep_octant(np.full((2, 3, 4), 1.0), src, 1, 1, 1, ang, *ins,
                         fixup=fixup)


def test_kernel_positive_inputs_give_positive_flux():
    """Diamond difference without fixup can go negative in general, but
    for a flat source in a modest-aspect cell it stays positive."""
    ang = make_angle_set(6)
    src = np.ones((4, 4, 4))
    phi, *_ = sweep_octant(
        1.0, src, 1, 1, 1, ang,
        np.zeros((4, 4, 6)), np.zeros((4, 4, 6)), np.zeros((4, 4, 6)),
    )
    assert np.all(phi > 0)


def test_kernel_linearity_in_source():
    """The sweep is linear: doubling source and inflows doubles outputs."""
    rng = np.random.default_rng(7)
    ang = make_angle_set(3)
    src = rng.random((3, 4, 2))
    args = (1.0, 1.0, 1.0, ang)
    ins = [rng.random((4, 2, 3)), rng.random((3, 2, 3)), rng.random((3, 4, 3))]
    out1 = sweep_octant(2.0, src, *args, *ins)
    out2 = sweep_octant(2.0, 2 * src, *args, *[2 * a for a in ins])
    for a, b in zip(out1, out2):
        np.testing.assert_allclose(b, 2 * a, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    i=st.integers(1, 4), j=st.integers(1, 4), k=st.integers(1, 4),
    mmi=st.integers(1, 6), seed=st.integers(0, 2**31),
)
def test_kernel_matches_reference_property(i, j, k, mmi, seed):
    rng = np.random.default_rng(seed)
    ang = make_angle_set(mmi)
    src = rng.random((i, j, k))
    in_x = rng.random((j, k, mmi))
    in_y = rng.random((i, k, mmi))
    in_z = rng.random((i, j, mmi))
    ref = reference_sweep_octant(1.0, src, 1, 1, 1, ang, in_x, in_y, in_z)
    vec = sweep_octant(1.0, src, 1, 1, 1, ang, in_x, in_y, in_z)
    for r, v in zip(ref, vec):
        np.testing.assert_allclose(v, r, rtol=1e-12, atol=1e-12)


# --- solver ---------------------------------------------------------------------------

def small_input(**kw):
    defaults = dict(it=6, jt=5, kt=4, mk=2, mmi=6, sigma_t=1.0, sigma_s=0.5, q=1.0)
    defaults.update(kw)
    return SweepInput(**defaults)


def test_solver_converges():
    res = solve(small_input(), max_iterations=100)
    assert res.converged
    assert res.rel_change < 1e-6


def test_particle_balance_closes_to_roundoff():
    """leakage + sigma_t * sum(phi) V = swept source V — exact for
    diamond differencing, every iteration."""
    res = solve(small_input(), max_iterations=5)
    assert res.balance_residual < 1e-12


def test_flux_positive_and_peaked_in_center():
    res = solve(small_input(it=7, jt=7, kt=7, mk=1), max_iterations=100)
    phi = res.phi
    assert np.all(phi > 0)
    # Vacuum boundaries: the center outshines every face cell.
    center = phi[3, 3, 3]
    assert center > phi[0, 3, 3]
    assert center > phi[3, 0, 3]
    assert center > phi[3, 3, 0]


def test_flux_symmetry():
    """A symmetric problem yields a flux symmetric under axis flips."""
    res = solve(small_input(it=6, jt=6, kt=6, mk=2), max_iterations=100)
    phi = res.phi
    np.testing.assert_allclose(phi, np.flip(phi, axis=0), rtol=1e-10)
    np.testing.assert_allclose(phi, np.flip(phi, axis=1), rtol=1e-10)
    np.testing.assert_allclose(phi, np.flip(phi, axis=2), rtol=1e-10)


def test_optically_thick_interior_approaches_infinite_medium():
    """Deep inside an optically thick domain the flux approaches the
    infinite-medium value q / (sigma_t - sigma_s).  Cell thickness is
    kept near sigma_t*dx ~ 2*mu so the diamond-difference boundary
    layer damps quickly ((s*d - 2mu)/(s*d + 2mu) per cell)."""
    inp = small_input(
        it=13, jt=13, kt=13, mk=1, sigma_t=2.0, sigma_s=1.0, q=4.0
    )
    res = solve(inp, max_iterations=300)
    expected = inp.q / (inp.sigma_t - inp.sigma_s)
    assert res.phi[6, 6, 6] == pytest.approx(expected, rel=0.01)


def test_no_scattering_converges_in_one_sweep():
    inp = small_input(sigma_s=0.0)
    res = solve(inp, max_iterations=10)
    assert res.converged
    assert res.iterations <= 2


def test_leakage_positive_with_vacuum_boundaries():
    res = solve(small_input(), max_iterations=20)
    assert res.leakage > 0


def test_solver_rejects_bad_max_iterations():
    with pytest.raises(ValueError):
        solve(small_input(), max_iterations=0)


def test_sweep_all_octants_shape_and_additivity():
    inp = small_input()
    ang = make_angle_set(inp.mmi)
    src = np.ones((inp.it, inp.jt, inp.kt))
    phi, leak, _ = sweep_all_octants(inp, src, ang)
    assert phi.shape == (inp.it, inp.jt, inp.kt)
    phi2, leak2, _ = sweep_all_octants(inp, 2 * src, ang)
    np.testing.assert_allclose(phi2, 2 * phi, rtol=1e-12)
    assert leak2 == pytest.approx(2 * leak)


# --- input deck ------------------------------------------------------------------------

def test_input_validation():
    with pytest.raises(ValueError):
        SweepInput(it=0)
    with pytest.raises(ValueError):
        SweepInput(kt=10, mk=3)  # not divisible
    with pytest.raises(ValueError):
        SweepInput(mk=0)
    with pytest.raises(ValueError):
        SweepInput(sigma_s=1.0, sigma_t=1.0)  # needs sigma_s < sigma_t
    with pytest.raises(ValueError):
        SweepInput(q=-1.0)
    with pytest.raises(ValueError):
        SweepInput(mmi=0)
    with pytest.raises(ValueError):
        SweepInput(dx=0.0)


@pytest.mark.parametrize("field", ["dx", "dy", "dz", "sigma_t", "q", "epsi"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_input_rejects_non_finite_values(field, value):
    """A NaN width or source would sweep to a NaN flux that reports
    convergence after one iteration; an infinite cross-section to an
    all-zero one."""
    with pytest.raises(ValueError, match="finite"):
        SweepInput(**{field: value})


def test_solve_rejects_non_finite_external_source():
    inp = small_input()
    source = np.ones((inp.it, inp.jt, inp.kt))
    source[0, 1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        solve(inp, external_source=source)


def test_paper_configurations():
    scaling = SweepInput.paper_scaling()
    assert (scaling.it, scaling.jt, scaling.kt) == (5, 5, 400)
    assert scaling.mk == 20 and scaling.mmi == 6
    assert scaling.k_blocks == 20
    table4 = SweepInput.paper_table4()
    assert (table4.it, table4.jt, table4.kt) == (50, 50, 50)
    assert table4.mk == 10
    assert table4.angle_work == 50 * 50 * 50 * 6 * 8


def test_derived_quantities():
    inp = SweepInput(it=4, jt=5, kt=12, mk=3, mmi=2)
    assert inp.cells == 240
    assert inp.k_blocks == 4
    assert inp.cells_per_block == 60
    assert inp.block_angle_work() == 120
    assert inp.angle_work == 240 * 2 * 8


def test_with_subgrid_keeps_or_fixes_mk():
    inp = SweepInput(it=5, jt=5, kt=400, mk=20)
    bigger = inp.with_subgrid(10, 20, 400)
    assert bigger.mk == 20
    odd = inp.with_subgrid(5, 5, 7)  # 7 not divisible by 20 -> mk = kt
    assert odd.mk == 7
