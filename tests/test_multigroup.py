"""Tests for the multigroup extension of the sweep solver."""

import dataclasses

import numpy as np
import pytest

from repro.sweep3d.input import SweepInput
from repro.sweep3d.multigroup import (
    MultigroupInput,
    solve_multigroup,
)
from repro.sweep3d.solver import solve

BASE = SweepInput(it=6, jt=6, kt=6, mk=2, mmi=6, sigma_t=1.0, sigma_s=0.0)


def two_group(coupling=0.3):
    return MultigroupInput(
        base=BASE,
        sigma_t=(1.0, 2.0),
        sigma_s=((0.4, 0.0), (coupling, 0.8)),
        q=(1.0, 0.0),
    )


def test_validation():
    with pytest.raises(ValueError):
        MultigroupInput(BASE, sigma_t=(), sigma_s=(), q=())
    with pytest.raises(ValueError):
        MultigroupInput(BASE, sigma_t=(1.0,), sigma_s=((0.5,),), q=(1.0, 2.0))
    with pytest.raises(ValueError):  # upscatter forbidden
        MultigroupInput(
            BASE, sigma_t=(1.0, 1.0),
            sigma_s=((0.2, 0.1), (0.0, 0.2)), q=(1.0, 0.0),
        )
    with pytest.raises(ValueError):  # within-group scatter >= sigma_t
        MultigroupInput(BASE, sigma_t=(1.0,), sigma_s=((1.0,),), q=(1.0,))
    with pytest.raises(ValueError):  # negative cross-section
        MultigroupInput(BASE, sigma_t=(1.0,), sigma_s=((-0.1,),), q=(1.0,))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("sigma_t", (NAN, 2.0)),
        ("sigma_t", (1.0, INF)),
        ("sigma_s", ((NAN, 0.0), (0.3, 0.8))),
        ("sigma_s", ((0.4, 0.0), (NAN, 0.8))),
        ("sigma_s", ((0.4, 0.0), (INF, 0.8))),
        ("q", (NAN, 0.0)),
        ("q", (1.0, INF)),
    ],
    ids=["sigma_t-nan", "sigma_t-inf", "within-nan", "downscatter-nan",
         "downscatter-inf", "q-nan", "q-inf"],
)
def test_validation_rejects_non_finite_values(field, value):
    """Caught at construction, not inside one group's solve under the
    name of an argument the caller never passed."""
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(two_group(), **{field: value})


def test_single_group_reduces_to_scalar_solver():
    mg = MultigroupInput(BASE, sigma_t=(1.0,), sigma_s=((0.5,),), q=(1.0,))
    result = solve_multigroup(mg)
    import dataclasses

    single = solve(dataclasses.replace(BASE, sigma_t=1.0, sigma_s=0.5, q=1.0))
    np.testing.assert_allclose(result.phi[0], single.phi, rtol=1e-12)
    assert result.converged


def test_decoupled_groups_solve_independently():
    mg = MultigroupInput(
        BASE,
        sigma_t=(1.0, 2.0),
        sigma_s=((0.4, 0.0), (0.0, 0.8)),
        q=(1.0, 3.0),
    )
    result = solve_multigroup(mg)
    import dataclasses

    for g, (st, ss, q) in enumerate([(1.0, 0.4, 1.0), (2.0, 0.8, 3.0)]):
        single = solve(dataclasses.replace(BASE, sigma_t=st, sigma_s=ss, q=q))
        np.testing.assert_allclose(result.phi[g], single.phi, rtol=1e-12)


def test_downscatter_feeds_the_slow_group():
    """Group 2 has no fixed source; everything it holds arrived by
    downscatter from group 1."""
    coupled = solve_multigroup(two_group(coupling=0.3))
    uncoupled = solve_multigroup(two_group(coupling=0.0))
    assert coupled.phi[1].max() > 0
    assert uncoupled.phi[1].max() == 0
    # The fast group is unaffected by what happens below it.
    np.testing.assert_allclose(coupled.phi[0], uncoupled.phi[0], rtol=1e-12)


def test_downscatter_scales_linearly():
    weak = solve_multigroup(two_group(coupling=0.15))
    strong = solve_multigroup(two_group(coupling=0.30))
    np.testing.assert_allclose(strong.phi[1], 2 * weak.phi[1], rtol=1e-10)


def test_infinite_medium_group_balance():
    """Optically thick interior: phi_g matches the algebraic two-group
    infinite-medium solution."""
    base = SweepInput(
        it=13, jt=13, kt=13, mk=1, mmi=6,
        sigma_t=1.0, sigma_s=0.0, q=1.0,
    )
    mg = MultigroupInput(
        base,
        sigma_t=(2.0, 2.0),
        sigma_s=((1.0, 0.0), (0.5, 1.0)),
        q=(4.0, 0.0),
    )
    result = solve_multigroup(mg, max_iterations=300)
    c = 6
    phi1 = 4.0 / (2.0 - 1.0)                 # q1 / (st1 - ss11)
    phi2 = 0.5 * phi1 / (2.0 - 1.0)          # downscatter / (st2 - ss22)
    assert result.phi[0][c, c, c] == pytest.approx(phi1, rel=0.02)
    assert result.phi[1][c, c, c] == pytest.approx(phi2, rel=0.02)


def test_total_flux_sums_groups():
    result = solve_multigroup(two_group())
    np.testing.assert_allclose(
        result.total_flux(), result.phi[0] + result.phi[1], rtol=1e-14
    )


def test_group_balance_residuals_tiny():
    result = solve_multigroup(two_group())
    for r in result.group_results:
        assert r.balance_residual < 1e-10


def test_solver_external_source_validation():
    with pytest.raises(ValueError):
        solve(BASE, external_source=np.ones((2, 2, 2)))
