"""Minimax physical-state reconstruction: certified brackets and an SDP oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecomb import (
    CovarianceMatrix,
    DimensionMismatchError,
    NonConvergenceWarning,
    reconstruct_intervals,
    reconstruct_physical,
    two_mode_squeezed_covariance,
)
from modecomb import reconstruct as rc
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


def reference_barrier(arr, sig, t_width, max_iter):
    """The earlier per-matrix path-following search, kept as an oracle.

    One matrix at a time, with the Hessian gathered as four complex
    (npar, npar) products and scalar line searches.  Returns (v,
    objective, t_lower, eigendecompositions); (arr, 0, 0, 0) when ``arr``
    is already physical.
    """
    m = arr.shape[0]
    h0 = arr + 1j * symplectic_form(m // 2)
    w, u = np.linalg.eigh(h0)
    if w[0] >= -rc.FEAS_TOL:
        return arr, 0.0, 0.0, 0

    def dual_bound(z):
        return -np.vdot(h0, z).real / float(np.vdot(sig, np.abs(z.real)))

    iu, ju = np.triu_indices(m)
    half = np.where(iu == ju, 0.5, 1.0)
    hh = 2.0 * np.outer(half, half)
    gather = np.stack([iu[:, None] * m + ju, ju[:, None] * m + iu,
                       iu[:, None] * m + iu, ju[:, None] * m + ju])
    sp = sig[iu, ju]
    npar = iu.size
    t_lower = max(0.0, dual_bound(np.outer(u[:, 0], u[:, 0].conj())))
    d = np.where(iu == ju, -rc.START_LIFT * w[0], 0.0)
    t = 2.0 * float(np.max(np.abs(d) / sp))
    tau = (m + 2 * npar) / t
    dmat = np.zeros((m, m))
    best, t_upper = None, np.inf
    hess = np.empty((npar + 1, npar + 1))
    grad = np.empty(npar + 1)
    iters = 0
    while True:
        dmat[iu, ju] = d
        dmat[ju, iu] = d
        w, u = np.linalg.eigh(h0 + dmat)
        iters += 1
        a = t * sp - d
        b = t * sp + d
        if min(w[0], a.min(), b.min()) <= 0.0:
            break
        y = (u / w) @ u.conj().T
        point = arr + dmat
        realized = float(np.max(np.abs(point - arr) / sig))
        if realized < t_upper:
            best, t_upper = point, realized
        t_lower = max(t_lower, dual_bound(y))
        if (t_upper - t_lower <= max(t_width, rc.GAP_REL * t_upper)
                or iters + 2 > max_iter):
            break
        ia2, ib2 = 1.0 / a**2, 1.0 / b**2
        pull = sp @ (1.0 / a + 1.0 / b)
        grad[1:] = 1.0 / a - 1.0 / b - 2.0 * half * y.real[iu, ju]
        g = y.ravel()[gather]
        hess[1:, 1:] = hh * (g[0].conj() * g[1] + g[2].conj() * g[3]).real
        hess.flat[npar + 2::npar + 2] += ia2 + ib2
        hess[0, 0] = sp**2 @ (ia2 + ib2)
        hess[0, 1:] = hess[1:, 0] = sp * (ib2 - ia2)
        decrement = 0.0
        while decrement <= rc.CENTERED:
            grad[0] = tau - pull
            step = np.linalg.solve(hess, -grad)
            decrement = float(np.sqrt(max(-grad @ step, 0.0)))
            if decrement <= rc.CENTERED:
                tau *= rc.TAU_GROWTH
        dmat[iu, ju] = step[1:]
        dmat[ju, iu] = step[1:]
        v = u / np.sqrt(w)
        mu = np.linalg.eigvalsh(v.conj().T @ dmat @ v)
        iters += 1
        rates = np.concatenate(
            (mu, (step[0] * sp - step[1:]) / a, (step[0] * sp + step[1:]) / b))
        neg = rates < 0.0
        alpha = min(1.0, rc.BOUNDARY * float(np.min(-1.0 / rates[neg]))) if neg.any() else 1.0
        slope = tau * step[0]
        while (alpha * slope - float(np.sum(np.log1p(alpha * rates)))
               > -rc.ARMIJO * alpha * decrement**2):
            alpha *= 0.5
            if alpha < 1e-12:
                alpha = 0.0
                break
        if alpha == 0.0:
            break
        t += alpha * step[0]
        d = d + alpha * step[1:]
    return best, t_upper, t_lower, iters


def assert_same_row(got, i, ref):
    """Row i of a stacked result agrees with ``ref`` element for element, bit for bit."""
    assert got.objective[i] == ref.objective
    assert got.t_lower[i] == ref.t_lower
    assert got.iterations[i] == ref.iterations
    assert got.converged[i] == ref.converged
    assert got.flags[i] == ref.flags
    assert got.sigma_floored[i] == ref.sigma_floored
    assert np.array_equal(got.v.v[i], ref.v.v)


def criterion_06_stacks():
    """The 100 instances of criterion 06, stacked by mode count."""
    rng = np.random.default_rng(20260814)
    cases = [perturbed_case(rng, 1 + (i % 2)) for i in range(100)]
    return [np.array(cases[0::2]), np.array(cases[1::2])]


def test_lockstep_matches_the_per_matrix_search_on_criterion_06():
    for stack in criterion_06_stacks():
        result = reconstruct_intervals(stack, sigma=0.05, t_width=1e-5)
        for i, vm in enumerate(stack):
            assert_same_row(result, i, reconstruct_physical(vm, sigma=0.05, t_width=1e-5))
            v, objective, t_lower, iters = reference_barrier(
                vm, np.full(vm.shape, 0.05), 1e-5, rc.MAX_ITER)
            assert (result.objective[i], result.t_lower[i], result.iterations[i]) == (
                objective, t_lower, iters)
            assert np.array_equal(result.v.v[i], v)


def test_lockstep_mixes_fast_path_and_exhausted_budgets():
    rng = np.random.default_rng(5)
    stack = np.array([two_mode_squeezed_covariance(0.5).v,
                      perturbed_case(rng, 2, noise=0.2),
                      perturbed_case(rng, 2, noise=0.3)])
    sigma = rng.uniform(0.03, 0.08, stack.shape)
    sigma = (sigma + np.swapaxes(sigma, 1, 2)) / 2.0
    with pytest.warns(NonConvergenceWarning) as caught:
        result = reconstruct_intervals(stack, sigma=sigma, t_width=1e-9, max_iter=3)
    # one warning per exhausted interval, each naming it
    assert sorted(str(w.message).split(":")[0] for w in caught) == [
        "interval 1", "interval 2"]
    assert result.iterations[0] == 0 and result.converged[0]
    for i in range(len(stack)):
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            single = reconstruct_physical(stack[i], sigma=sigma[i], t_width=1e-9, max_iter=3)
        assert_same_row(result, i, single)
        # the one-matrix result stays scalar
        assert type(single.objective) is float and type(single.converged) is bool
        assert single.v.v.shape == stack[i].shape
        assert len(alone) == (i > 0)
        assert all(not str(w.message).startswith("interval") for w in alone)
        v, objective, t_lower, iters = reference_barrier(stack[i], sigma[i], 1e-9, 3)
        assert (result.objective[i], result.t_lower[i], result.iterations[i]) == (
            objective, t_lower, iters)
        assert np.array_equal(result.v.v[i], v)
    for i in (1, 2):
        assert not result.converged[i] and result.flags[i] == ["iteration_cap_reached"]


def test_stack_shape_and_sigma_checks():
    with pytest.raises(DimensionMismatchError):
        reconstruct_intervals(np.eye(4))
    with pytest.raises(DimensionMismatchError):
        reconstruct_intervals(np.eye(4)[None], sigma=np.ones((4, 4)))
    empty = reconstruct_intervals(np.zeros((0, 4, 4)))
    assert empty.v.v.shape == (0, 4, 4) and empty.flags == []
    assert all(x.shape == (0,) for x in (empty.objective, empty.t_lower, empty.iterations,
                                         empty.converged, empty.sigma_floored))
