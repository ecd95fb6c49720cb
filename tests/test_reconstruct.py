"""Minimax physical-state reconstruction: certified brackets and an SDP oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecomb import (
    CovarianceMatrix,
    NonConvergenceWarning,
    reconstruct_physical,
    two_mode_squeezed_covariance,
)
from modecomb.bases import symplectic_form


def clarabel_objective(v_meas, sigma):
    """Reference minimax objective via the real semidefinite embedding."""
    cp = pytest.importorskip("cvxpy")
    n = v_meas.shape[0] // 2
    omega = symplectic_form(n)
    v = cp.Variable(v_meas.shape, symmetric=True)
    t = cp.Variable(nonneg=True)
    big = cp.bmat([[v, -omega], [omega, v]])
    problem = cp.Problem(
        cp.Minimize(t),
        [big >> 0, cp.abs(v - v_meas) <= t * sigma],
    )
    problem.solve(solver=cp.CLARABEL)
    return float(t.value)


def physical_case(rng, n_modes):
    if n_modes == 1:
        return np.diag(np.full(2, rng.uniform(1.0, 3.0)))
    return two_mode_squeezed_covariance(rng.uniform(0.2, 0.9)).v


def perturbed_case(rng, n_modes, noise=0.05):
    base = physical_case(rng, n_modes)
    pert = rng.normal(0.0, noise, base.shape)
    return base + (pert + pert.T) / 2.0


def test_physical_input_is_returned_unchanged():
    v = two_mode_squeezed_covariance(0.5)
    res = reconstruct_physical(v, sigma=0.1)
    assert res.objective == 0.0
    assert res.converged
    assert np.array_equal(res.v.v, v.v)


def test_uniform_inflation_case():
    # diag(0.5): nearest physical point in units of sigma = 0.1 is vacuum
    res = reconstruct_physical(np.diag([0.5, 0.5]), sigma=0.1, t_width=1e-6)
    assert res.objective == pytest.approx(5.0, abs=1e-4)
    assert res.objective - 1e-6 <= res.t_lower <= res.objective
    assert np.max(np.abs(res.v.v - np.eye(2))) < 1e-4
    assert res.converged


def test_idempotence_and_sigma_scaling():
    rng = np.random.default_rng(9)
    vm = perturbed_case(rng, 2)
    res = reconstruct_physical(vm, sigma=0.05, t_width=1e-6)
    again = reconstruct_physical(res.v, sigma=0.05, t_width=1e-6)
    assert again.objective == 0.0
    assert np.array_equal(again.v.v, res.v.v)
    doubled = reconstruct_physical(vm, sigma=0.10, t_width=1e-6)
    # scaling all sigmas halves the objective but not the optimal point
    assert doubled.objective == pytest.approx(res.objective / 2.0, abs=2e-4)
    assert np.max(np.abs(doubled.v.v - res.v.v)) < 2e-3


def test_zero_sigma_floor_warns():
    with pytest.warns(NonConvergenceWarning):
        res = reconstruct_physical(np.diag([0.5, 0.5]), sigma=0.0)
    assert res.sigma_floored


def test_against_sdp_oracle():
    rng = np.random.default_rng(20260814)
    for i in range(10):
        vm = perturbed_case(rng, 1 + (i % 2))
        sigma = 0.05
        res = reconstruct_physical(vm, sigma=sigma, t_width=1e-5)
        t_star = clarabel_objective(vm, np.full(vm.shape, sigma))
        assert res.objective == pytest.approx(t_star, abs=1e-4)
        assert res.v.min_physicality_eigenvalue() >= -1e-8
        # the reported objective is realized by the returned matrix
        realized = np.max(np.abs(res.v.v - vm) / sigma)
        assert realized <= res.objective + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.02, 0.3))
def test_result_is_physical_and_in_box(seed, noise):
    rng = np.random.default_rng(seed)
    vm = perturbed_case(rng, 2, noise=noise)
    res = reconstruct_physical(vm, sigma=0.05, t_width=1e-4)
    assert res.v.min_physicality_eigenvalue() >= -1e-8
    realized = np.max(np.abs(res.v.v - vm) / 0.05)
    assert realized <= res.objective + 1e-9


def test_criterion_06_instances_are_bracketed():
    # the instances of acceptance criterion 06, certified without a solver
    rng = np.random.default_rng(20260814)
    for i in range(100):
        vm = perturbed_case(rng, 1 + (i % 2))
        res = reconstruct_physical(vm, sigma=0.05, t_width=1e-5)
        assert res.converged, i
        assert res.v.min_physicality_eigenvalue() >= 0.0, i
        assert res.t_lower <= res.objective, i
        assert res.objective - res.t_lower <= 1e-4, i
        assert np.max(np.abs(res.v.v - vm) / 0.05) == res.objective


def test_exhausted_budget_is_flagged_and_stays_certified():
    vm = perturbed_case(np.random.default_rng(5), 2, noise=0.2)
    with pytest.warns(NonConvergenceWarning):
        res = reconstruct_physical(vm, sigma=0.05, t_width=1e-9, max_iter=3)
    assert not res.converged
    assert "iteration_cap_reached" in res.flags
    assert res.iterations <= 3
    assert res.v.min_physicality_eigenvalue() >= 0.0
    assert res.t_lower <= res.objective


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 2), st.floats(0.02, 0.3))
def test_lower_bound_never_exceeds_the_true_state(seed, n_modes, noise):
    # weak duality: the physical state the noise was added to lies within
    # max |V_true - V_meas| / sigma of the data, so no certified lower
    # bound may exceed that
    rng = np.random.default_rng(seed)
    v_true = physical_case(rng, n_modes)
    pert = rng.normal(0.0, noise, v_true.shape)
    vm = v_true + (pert + pert.T) / 2.0
    sigma = rng.uniform(0.02, 0.1, vm.shape)
    sigma = (sigma + sigma.T) / 2.0
    res = reconstruct_physical(vm, sigma=sigma, t_width=1e-4)
    assert res.t_lower <= np.max(np.abs(v_true - vm) / sigma)
    assert res.t_lower <= res.objective
