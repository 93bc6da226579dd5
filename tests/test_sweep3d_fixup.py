"""Tests for the kernel's negative-flux fixup scheme."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sweep3d.input import SweepInput
from repro.sweep3d.kernel import sweep_octant
from repro.sweep3d.quadrature import OCTANTS, make_angle_set
from repro.sweep3d.solver import _flip, solve, sweep_all_octants


def fixup_kernel(*args):
    return sweep_octant(*args, fixup=True)


def zero_inflows(I, J, K, M):
    return (
        np.zeros((J, K, M)),
        np.zeros((I, K, M)),
        np.zeros((I, J, M)),
    )


def test_fixup_matches_plain_kernel_when_no_negatives():
    """With zero inflow and a flat source plain DD stays non-negative,
    so the two kernels must agree exactly."""
    ang = make_angle_set(6)
    src = np.ones((4, 4, 4))
    ins = zero_inflows(4, 4, 4, 6)
    plain = sweep_octant(1.0, src, 1, 1, 1, ang, *ins)
    fixed = fixup_kernel(1.0, src, 1, 1, 1, ang, *ins)
    for p, f in zip(plain, fixed):
        np.testing.assert_allclose(f, p, rtol=1e-13)


def test_plain_kernel_goes_negative_in_thick_cells():
    """The failure mode the fixup exists for: a strong incoming flux
    into an optically thick absorber extrapolates negative outflow."""
    ang = make_angle_set(6)
    src = np.zeros((3, 3, 3))
    in_x = np.full((3, 3, 6), 10.0)
    in_y = np.zeros((3, 3, 6))
    in_z = np.zeros((3, 3, 6))
    _, out_x, out_y, out_z = sweep_octant(
        8.0, src, 1, 1, 1, ang, in_x, in_y, in_z
    )
    assert min(out_x.min(), out_y.min(), out_z.min()) < 0


def test_fixup_keeps_everything_nonnegative():
    ang = make_angle_set(6)
    src = np.zeros((3, 3, 3))
    in_x = np.full((3, 3, 6), 10.0)
    in_y = np.zeros((3, 3, 6))
    in_z = np.zeros((3, 3, 6))
    phi, out_x, out_y, out_z = fixup_kernel(
        8.0, src, 1, 1, 1, ang, in_x, in_y, in_z
    )
    assert phi.min() >= 0
    assert out_x.min() >= 0 and out_y.min() >= 0 and out_z.min() >= 0


def test_fixup_preserves_cell_balance():
    """The rebalance keeps the exact per-sweep particle balance the
    solver checks."""
    inp = SweepInput(it=5, jt=5, kt=5, mk=1, mmi=6, sigma_t=6.0, sigma_s=3.0)
    res = solve(inp, max_iterations=5, fixup=True)
    assert res.balance_residual < 1e-12


def test_fixup_solver_converges_and_is_nonnegative():
    inp = SweepInput(it=6, jt=6, kt=6, mk=2, mmi=6, sigma_t=10.0, sigma_s=2.0)
    res = solve(inp, max_iterations=100, fixup=True)
    assert res.converged
    assert res.phi.min() >= 0


def test_fixup_and_plain_agree_on_benign_problem():
    inp = SweepInput(it=5, jt=5, kt=5, mk=1, mmi=6, sigma_t=1.0, sigma_s=0.5)
    plain = solve(inp, max_iterations=50, fixup=False)
    fixed = solve(inp, max_iterations=50, fixup=True)
    np.testing.assert_allclose(fixed.phi, plain.phi, rtol=1e-10)


@pytest.mark.parametrize("fixup", [False, True])
def test_vacuum_sweep_matches_per_octant_loop(fixup):
    """A vacuum sweep's 8-octant stack is the same sweep as eight
    one-block calls: bit-identical octant-summed flux and leakage, with
    the rebalance engaging in some cells and not others."""
    rng = np.random.default_rng(5)
    engaged = False
    for I, J, K, mmi in [(4, 4, 4, 6), (5, 3, 2, 3), (1, 4, 3, 2), (3, 1, 5, 4)]:
        ang = make_angle_set(mmi)
        M = ang.n_angles
        src = rng.uniform(0.0, 0.3, (I, J, K))
        for sigma in (8.0, 1.0):
            inp = SweepInput(it=I, jt=J, kt=K, mk=K, mmi=mmi, dx=0.9, dy=1.1,
                             dz=1.3, sigma_t=sigma, sigma_s=0.0)
            phi, leakage, reflected = sweep_all_octants(inp, src, ang, fixup=fixup)
            phi_ref = np.zeros((I, J, K))
            leak_ref = 0.0
            for octant in OCTANTS:
                args = (sigma, _flip(src, octant.signs), 0.9, 1.1, 1.3, ang,
                        *zero_inflows(I, J, K, M))
                plain = sweep_octant(*args)
                engaged |= any((p < 0).any() for p in plain[1:])
                phi_o, *outs = sweep_octant(*args, fixup=True) if fixup else plain
                phi_ref += _flip(phi_o, octant.signs)
                for out, area, cosine in zip(
                    outs, (1.1 * 1.3, 0.9 * 1.3, 0.9 * 1.1),
                    (ang.mu, ang.eta, ang.xi),
                ):
                    leak_ref += float(
                        area * np.einsum("abm,m->", out, ang.weights * cosine)
                    )
            assert np.array_equal(phi, phi_ref)
            assert leakage == leak_ref
            assert reflected == 0.0
    assert engaged  # the rebalance had work to do somewhere


def test_banked_face_memory_feeds_the_octant_loop():
    """Banked mirror outflows are inflows, so a vacuum sweep with a
    non-empty ``face_memory`` runs the octants in order, sweeps the
    banked face in and counts it as reflected influx: the per-sweep
    balance closes on it."""
    inp = SweepInput(it=3, jt=3, kt=3, mk=3, mmi=2)
    ang = make_angle_set(inp.mmi)
    src = np.ones((3, 3, 3))
    bank = np.ones((3, 3, ang.n_angles))
    for fixup in (False, True):
        phi0, _, influx0 = sweep_all_octants(inp, src, ang, fixup=fixup)
        phi, leak, influx = sweep_all_octants(
            inp, src, ang, fixup=fixup, face_memory={(0, "x"): bank}
        )
        expect = float(inp.dy * inp.dz * np.einsum(
            "abm,m->", bank, ang.weights * ang.mu))
        assert influx0 == 0.0 and influx == expect
        assert not np.array_equal(phi, phi0)
        removal = inp.sigma_t * phi.sum() * inp.dx * inp.dy * inp.dz
        swept = src.sum() * inp.dx * inp.dy * inp.dz + influx
        assert abs(leak + removal - swept) < 1e-12 * swept


@settings(max_examples=30, deadline=None)
@given(
    sigma=st.floats(min_value=0.2, max_value=20.0),
    inflow=st.floats(min_value=0.0, max_value=50.0),
    seed=st.integers(0, 2**31),
)
@example(sigma=8.0, inflow=12.0, seed=170283)  # needs the 4th fixup pass
def test_fixup_nonnegativity_property(sigma, inflow, seed):
    """For ANY non-negative source/inflow, the fixup kernel never emits
    a negative flux anywhere."""
    rng = np.random.default_rng(seed)
    ang = make_angle_set(3)
    src = rng.random((3, 2, 2))
    in_x = inflow * rng.random((2, 2, 3))
    in_y = inflow * rng.random((3, 2, 3))
    in_z = inflow * rng.random((3, 2, 3))
    phi, ox, oy, oz = fixup_kernel(
        sigma, src, 1.0, 1.0, 1.0, ang, in_x, in_y, in_z
    )
    assert phi.min() >= -1e-14
    assert min(ox.min(), oy.min(), oz.min()) >= -1e-14


@settings(max_examples=30, deadline=None)
@given(
    sigma=st.floats(min_value=0.3, max_value=15.0),
    inflow=st.floats(min_value=0.0, max_value=30.0),
    seed=st.integers(0, 2**31),
)
def test_both_kernels_preserve_octant_balance(sigma, inflow, seed):
    """The telescoped single-octant particle balance

        sum_d (c_d/2)(outflow_d - inflow_d) + sigma * sum(psi_c) = sum(S)

    holds exactly for the plain kernel AND for the fixup kernel on
    arbitrary non-negative inputs (the rebalance is conservative)."""
    rng = np.random.default_rng(seed)
    ang = make_angle_set(1)  # single angle: psi_c = phi / w
    src = rng.random((3, 4, 2))
    in_x = inflow * rng.random((4, 2, 1))
    in_y = inflow * rng.random((3, 2, 1))
    in_z = inflow * rng.random((3, 4, 1))
    for kernel in (sweep_octant, fixup_kernel):
        phi, ox, oy, oz = kernel(
            sigma, src, 1.0, 1.0, 1.0, ang, in_x, in_y, in_z
        )
        psi_sum = phi.sum() / ang.weights[0]
        balance = (
            float(ang.mu[0]) * (ox.sum() - in_x.sum())
            + float(ang.eta[0]) * (oy.sum() - in_y.sum())
            + float(ang.xi[0]) * (oz.sum() - in_z.sum())
            + sigma * psi_sum
            - src.sum()
        )
        scale = max(abs(src.sum()), sigma * abs(psi_sum), 1.0)
        assert abs(balance) / scale < 1e-12, kernel.__name__
