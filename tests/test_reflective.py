"""Tests for reflective boundary conditions.

The fully reflective box is the strongest verification problem a sweep
code has: with a uniform source it must reproduce the infinite-medium
solution phi = q / (sigma_t - sigma_s) in *every* cell.
"""

import dataclasses

import numpy as np
import pytest

from repro.sweep3d.input import SweepInput
from repro.sweep3d.solver import ALL_REFLECTIVE, FACES, solve


def base_input(**kw):
    defaults = dict(
        it=4, jt=4, kt=4, mk=2, mmi=6, sigma_t=1.0, sigma_s=0.5, q=2.0,
        epsi=1e-9,
    )
    defaults.update(kw)
    return SweepInput(**defaults)


def test_fully_reflective_box_is_the_infinite_medium():
    inp = base_input()
    res = solve(inp, max_iterations=500, reflective=ALL_REFLECTIVE)
    assert res.converged
    exact = inp.q / (inp.sigma_t - inp.sigma_s)
    np.testing.assert_allclose(res.phi, exact, rtol=1e-7)


def test_fully_reflective_box_leaks_nothing():
    res = solve(base_input(), max_iterations=500, reflective=ALL_REFLECTIVE)
    assert res.leakage == 0.0


def test_reflective_balance_exact_every_iteration():
    res = solve(base_input(), max_iterations=5, reflective=ALL_REFLECTIVE)
    assert res.balance_residual < 1e-12


def test_partial_reflection_balance_and_leakage():
    x_mirrors = frozenset({("x", "low"), ("x", "high")})
    res = solve(base_input(), max_iterations=300, reflective=x_mirrors)
    assert res.converged
    assert res.balance_residual < 1e-12
    assert res.leakage > 0  # y and z faces still leak


def test_reflection_raises_the_flux():
    """Closing faces keeps particles in: flux rises monotonically with
    the number of mirrored faces."""
    inp = base_input()
    vacuum = solve(inp, max_iterations=300).phi.mean()
    x_only = solve(
        inp, max_iterations=300,
        reflective=frozenset({("x", "low"), ("x", "high")}),
    ).phi.mean()
    closed = solve(inp, max_iterations=500, reflective=ALL_REFLECTIVE).phi.mean()
    assert vacuum < x_only < closed


def test_partial_reflection_symmetry():
    """Mirroring only the x faces preserves the y/z vacuum symmetry and
    flattens the profile along x."""
    inp = base_input(it=6, jt=6, kt=6)
    res = solve(
        inp, max_iterations=400,
        reflective=frozenset({("x", "low"), ("x", "high")}),
    )
    phi = res.phi
    np.testing.assert_allclose(phi, np.flip(phi, axis=1), rtol=1e-8)
    np.testing.assert_allclose(phi, np.flip(phi, axis=2), rtol=1e-8)
    # Along x the profile is (near-)uniform: reflection removed the sag.
    x_spread = phi.max(axis=0) / phi.min(axis=0)
    assert x_spread.max() < 1.001


def test_reflective_with_fixup_kernel():
    inp = base_input(sigma_t=4.0, sigma_s=2.0)
    res = solve(
        inp, max_iterations=500, reflective=ALL_REFLECTIVE, fixup=True
    )
    assert res.converged
    exact = inp.q / (inp.sigma_t - inp.sigma_s)
    np.testing.assert_allclose(res.phi, exact, rtol=1e-6)


def test_unknown_face_rejected():
    from repro.sweep3d.quadrature import make_angle_set
    from repro.sweep3d.solver import sweep_all_octants

    inp = base_input()
    with pytest.raises(ValueError):
        sweep_all_octants(
            inp,
            np.ones((inp.it, inp.jt, inp.kt)),
            make_angle_set(inp.mmi),
            reflective=frozenset({("x", "middle")}),
        )


def test_faces_constant_covers_all_six():
    assert len(FACES) == 6
    assert ALL_REFLECTIVE == FACES
