"""Covariance matrices, the amplifier chain, sampling, and squeezing ratios."""

import numpy as np
import pytest
from scipy.constants import hbar as HBAR
from scipy.constants import k as KB
from scipy.stats import multivariate_normal

from modecomb import (
    AmplifierModel,
    CovarianceMatrix,
    DimensionMismatchError,
    EmptySamplesError,
    GainBelowUnityError,
    ModeSpec,
    NotPSDError,
    NumericalError,
    QuadratureSamples,
    amplify,
    bose_occupation,
    build_coupling_matrix,
    correlation_quantity,
    deamplify,
    drift_compensation_angle,
    histogram2d_subtracted,
    output_covariance,
    sample,
    sample_covariance,
    scattering_matrices,
    squeezing_stats,
    thermal_covariance,
    two_mode_squeezed_covariance,
)
from modecomb.bases import mode_rotation
from modecomb.gaussian_state import (
    _bin_probabilities,
    _gauss_legendre,
    sample_covariance_stack,
)
from modecomb.cli import _write_covariance

TWO_PI = 2.0 * np.pi


def lossless_pair_output(x, gamma_hz=40e3):
    modes = [
        ModeSpec.from_hz(0, 3.8245e9, gamma_hz, 0.0),
        ModeSpec.from_hz(1, 3.8375e9, gamma_hz, 0.0),
    ]
    eps = x * TWO_PI * gamma_hz / 2.0
    cm = build_coupling_matrix(modes, couplings={(0, 1): eps})
    pair = scattering_matrices(cm, np.full(2, TWO_PI * gamma_hz), np.zeros(2))
    return output_covariance(pair.to_quadrature(), CovarianceMatrix.vacuum(2))


def test_bose_occupation():
    assert np.all(bose_occupation(TWO_PI * 3.8e9, 0.0) == 0.0)
    omega = TWO_PI * 3.8e9
    t = 0.12
    x = HBAR * omega / (KB * t)
    assert bose_occupation(omega, t) == pytest.approx(1.0 / np.expm1(x), rel=1e-12)


def test_thermal_covariance_diagonal():
    modes = [
        ModeSpec.from_hz(0, 3.8245e9, 20e3, 20e3),
        ModeSpec.from_hz(1, 3.8375e9, 20e3, 20e3),
    ]
    v = thermal_covariance(modes, 0.0)
    assert np.array_equal(v.v, np.eye(4))
    t = 0.15
    v = thermal_covariance(modes, t)
    for j, m in enumerate(modes):
        # diagonal is coth(hbar w / 2 kB T) = 2 n + 1
        coth = 1.0 / np.tanh(HBAR * m.omega / (2.0 * KB * t))
        assert v.v[2 * j, 2 * j] == pytest.approx(coth, rel=1e-12)
        assert v.v[2 * j + 1, 2 * j + 1] == pytest.approx(coth, rel=1e-12)
    assert np.count_nonzero(v.v - np.diag(np.diag(v.v))) == 0


def test_two_mode_squeezed_covariance_spectrum():
    r = 0.7
    v = two_mode_squeezed_covariance(r)
    evals = np.sort(np.linalg.eigvalsh(v.v))
    assert evals[:2] == pytest.approx(np.full(2, np.exp(-2.0 * r)), rel=1e-12)
    assert evals[2:] == pytest.approx(np.full(2, np.exp(2.0 * r)), rel=1e-12)
    assert np.linalg.det(v.v) == pytest.approx(1.0, rel=1e-12)
    assert v.min_physicality_eigenvalue() >= -1e-9
    # a squeezing phase only rotates the cross block
    vp = two_mode_squeezed_covariance(r, phase=0.4)
    assert np.linalg.norm(vp.v[:2, 2:]) == pytest.approx(
        np.linalg.norm(v.v[:2, 2:]), rel=1e-12
    )


def test_covariance_validation():
    with pytest.raises(DimensionMismatchError):
        CovarianceMatrix(1, np.eye(4))
    bad = np.eye(4)
    bad[0, 1] = 0.5
    with pytest.raises(DimensionMismatchError):
        CovarianceMatrix(2, bad)
    v = CovarianceMatrix.vacuum(3)
    assert v.min_physicality_eigenvalue() == pytest.approx(0.0, abs=1e-12)
    sub = v.submatrix([2, 0])
    assert sub.n_modes == 2
    with pytest.raises(DimensionMismatchError):
        v.submatrix([3])
    with pytest.raises(DimensionMismatchError):
        v.rotate([0.1])


def test_output_covariance_requires_quadrature_basis():
    modes = [
        ModeSpec.from_hz(0, 3.8245e9, 40e3, 0.0),
        ModeSpec.from_hz(1, 3.8375e9, 40e3, 0.0),
    ]
    cm = build_coupling_matrix(modes, couplings={(0, 1): TWO_PI * 5e3})
    ladder = scattering_matrices(cm, np.full(2, TWO_PI * 40e3), np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        output_covariance(ladder, CovarianceMatrix.vacuum(2))


def test_lossless_network_output_is_tms():
    x = 0.6
    v = lossless_pair_output(x)
    # pure state: unit determinant and symplectic eigenvalues 1
    assert np.linalg.det(v.v) == pytest.approx(1.0, abs=1e-9)
    assert v.min_physicality_eigenvalue() > -1e-9
    # squeezing parameter from the closed form e^{-2r} = ((1-x)/(1+x))^2
    evals = np.linalg.eigvalsh(v.v)
    assert evals[0] == pytest.approx(((1.0 - x) / (1.0 + x)) ** 2, abs=1e-10)
    c = correlation_quantity(v)
    r = 0.5 * np.arcsinh(c / np.sqrt(2.0))
    assert np.exp(-2.0 * r) == pytest.approx(evals[0], abs=1e-10)


def test_amplifier_model_and_roundtrip():
    amp = AmplifierModel.uniform(2, 100.0, 0.5)
    assert amp.n_diagonal() == pytest.approx(np.full(4, 99.0 * 2.0), rel=1e-12)
    v = two_mode_squeezed_covariance(0.5)
    meas = amplify(v, amp)
    # diagonal gains G v + (G-1)(2n+1)
    assert meas.v[0, 0] == pytest.approx(100.0 * v.v[0, 0] + 198.0, rel=1e-12)
    back = deamplify(meas, amp)
    assert np.max(np.abs(back.v - v.v)) < 1e-9
    with pytest.raises(GainBelowUnityError):
        AmplifierModel.uniform(2, 0.5, 0.0)
    with pytest.raises(ValueError):
        AmplifierModel.uniform(2, 10.0, -0.1)
    with pytest.raises(ValueError):
        AmplifierModel.uniform(
            2, 10.0, 0.1, sigma_gain=0.1, sigma_noise=0.1, cov_gain_noise=1.0
        )


def test_correlation_quantity_rotation_invariant():
    v = two_mode_squeezed_covariance(0.8)
    assert correlation_quantity(v) == pytest.approx(
        np.sqrt(2.0) * np.sinh(1.6), rel=1e-12
    )
    rng = np.random.default_rng(5)
    for _ in range(5):
        rot = mode_rotation(rng.uniform(0.0, np.pi, 2))
        vr = CovarianceMatrix(2, rot @ v.v @ rot.T)
        assert correlation_quantity(vr) == pytest.approx(
            correlation_quantity(v), rel=1e-10
        )


def test_sampling_determinism_and_sem():
    v = two_mode_squeezed_covariance(0.4)
    a = sample(v, 1000, seed=42)
    b = sample(v, 1000, seed=42)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, sample(v, 1000, seed=43).data)
    cm, sem = a.covariance_with_sem()
    d = np.diag(cm.v)
    expected = np.sqrt((np.outer(d, d) + cm.v**2) / (a.n_samples - 1.0))
    assert sem == pytest.approx(expected, rel=1e-12)
    with pytest.raises(EmptySamplesError):
        sample(v, 0, seed=1)
    bad = np.eye(4)
    bad[0, 0] = -1.0
    with pytest.raises(NotPSDError):
        sample(CovarianceMatrix(2, bad), 10, seed=1)


# A fixed 4-mode covariance with every element non-zero, and the common
# drift angle of each of three intervals.
_A = np.random.default_rng(2024).normal(size=(8, 8))
WISHART_V = _A @ _A.T / 8.0 + np.eye(8)
DRIFT = np.array([0.3, 1.7, 4.0])


def drifted(k):
    """WISHART_V turned by the drift angle of each of the first k intervals."""
    r = mode_rotation(np.repeat(DRIFT[:k, None], 4, axis=1))
    return r @ WISHART_V @ np.swapaxes(r, -1, -2)


def pooled_moments(sigmas, m):
    """Closed-form mean and element variance of the pooled sample covariance.

    m zero-mean rows per Sigma_i, ddof=1 about the grand mean of all
    N = K m rows.  The scatter is X^T C X with C = I - 11^T / N, so
    Isserlis' theorem gives Var(T_ab) = sum_rs C_rs^2 (S_r,aa S_s,bb +
    S_r,ab S_s,ab); K = 1 is the Wishart (V_aa V_bb + V_ab^2) / (m - 1).
    """
    k, n = sigmas.shape[0], sigmas.shape[0] * m
    d = np.diagonal(sigmas, axis1=-2, axis2=-1)
    within = np.sum(d[:, :, None] * d[:, None, :] + sigmas**2, axis=0)
    b = sigmas.sum(axis=0)
    between = np.outer(np.diag(b), np.diag(b)) + b**2
    return sigmas.mean(axis=0), ((1 - 2 / n) * m * within + between / k**2) / (n - 1) ** 2


def pooled_trace_variance(sigmas, m, p):
    """Var tr(P V_hat) in the setting of ``pooled_moments``, P symmetric.

    Var tr(P T) = 2 sum_rs C_rs^2 tr(P S_r P S_s).
    """
    k, n = sigmas.shape[0], sigmas.shape[0] * m
    ps = p @ sigmas
    pb = p @ sigmas.sum(axis=0)
    within = np.einsum("kij,kji->", ps, ps)
    return 2.0 * ((1 - 2 / n) * m * within + np.trace(pb @ pb) / k**2) / (n - 1) ** 2


@pytest.mark.parametrize("k, m", [(1, 5), (1, 40), (3, 6)])
@pytest.mark.parametrize("path", ["records", "draw"])
def test_sample_covariance_has_the_distribution_of_records(path, k, m):
    # "records": sample + np.cov, the K intervals' drift-rotated rows
    # stacked; "draw": one sample_covariance call on the K rotated
    # covariances.  m = 5 < 8 rows also covers the singular Wishart.
    sigmas = drifted(k)
    seeds = range(400)
    if path == "draw":
        v = CovarianceMatrix(4, sigmas if k > 1 else sigmas[0])
        x = np.array([sample_covariance(v, m, [s]).v for s in seeds])
    else:
        v = CovarianceMatrix(4, WISHART_V)
        x = np.array([QuadratureSamples(4, np.vstack([
            sample(v, m, [s, i]).rotate(np.full(4, DRIFT[i])).data for i in range(k)
        ])).covariance().v for s in seeds])
    mean, var = pooled_moments(sigmas, m)
    iu = np.triu_indices(8)
    z = (x.mean(axis=0) - mean) / np.sqrt(var / len(seeds))
    ratio = x.var(axis=0, ddof=1) / var
    # tr(mean^-1 V_hat) has mean 8 exactly and a small spread, so it sees a
    # bias of mean / (K m - 1), such as a scatter taken about zero instead
    # of the grand mean or a Wishart with m instead of m - 1 degrees of
    # freedom, at 10 or more standard errors.
    p = np.linalg.inv(mean)
    t = np.einsum("ij,sji->s", p, x)
    t_var = pooled_trace_variance(sigmas, m, p)
    z_t = (t.mean() - 8.0) / np.sqrt(t_var / len(seeds))
    # Over 30 other sets of 400 seeds, both paths and all three (k, m):
    # max |z| <= 3.9, median ratio 0.93-1.07, |z_t| <= 3.3, and
    # var(t) / t_var 0.81-1.17.
    assert np.abs(z[iu]).max() < 5.0
    assert 0.85 < np.median(ratio[iu]) < 1.15
    assert abs(z_t) < 5.0
    assert 0.7 < t.var(ddof=1) / t_var < 1.4


def test_sample_covariance_seeds_and_checks():
    v = CovarianceMatrix(4, WISHART_V)
    a = sample_covariance(v, 1000, [3, 1]).v
    assert np.array_equal(a, sample_covariance(v, 1000, [3, 1]).v)
    assert not np.array_equal(a, sample_covariance(v, 1000, [3, 2]).v)
    assert sample_covariance(CovarianceMatrix(4, drifted(3)), 10, 0).v.shape == (8, 8)
    with pytest.raises(EmptySamplesError):
        sample_covariance(v, 1, seed=1)
    bad = np.eye(4)
    bad[0, 0] = -1.0
    with pytest.raises(NotPSDError):
        sample_covariance(CovarianceMatrix(2, np.stack([np.eye(4), bad])), 10, seed=1)


@pytest.mark.parametrize("m", [2, 5, 100_000])
def test_sample_covariance_stack_rows_are_single_draws(m):
    # row i is bit for bit the one-interval draw of seed i, also for the
    # singular Wishart (m - 1 < 8) and at the demo's row count
    v = CovarianceMatrix(4, 1e8 * WISHART_V)
    seeds = [[9, 0, i] for i in range(6)]
    stack = sample_covariance_stack(v, m, seeds)
    assert stack.v.shape == (6, 8, 8)
    for row, seed in zip(stack.v, seeds):
        assert np.array_equal(row, sample_covariance(v, m, seed).v)


@pytest.mark.parametrize("m", [1, 5, 100_000])
def test_sample_covariance_stack_pools_are_one_pool_draws(m):
    # pool p of a (P, K) stack is bit for bit the pooled draw of its K
    # intervals, also with one row per interval and for the singular Wishart
    v = CovarianceMatrix(4, 1e8 * np.stack([drifted(3), 2.0 * drifted(3)[::-1]]))
    seeds = [[9, 1, p] for p in range(2)]
    stack = sample_covariance_stack(v, m, seeds)
    assert stack.v.shape == (2, 8, 8)
    for p, seed in enumerate(seeds):
        assert np.array_equal(stack.v[p], sample_covariance(CovarianceMatrix(4, v.v[p]), m, seed).v)


def test_sample_covariance_stack_checks():
    v = CovarianceMatrix(4, WISHART_V)
    pools = CovarianceMatrix(4, np.stack([drifted(3), drifted(3)]))
    # K m rows per pool must be at least two
    with pytest.raises(EmptySamplesError):
        sample_covariance_stack(v, 1, [[1]])
    with pytest.raises(EmptySamplesError):
        sample_covariance_stack(CovarianceMatrix(4, drifted(1)[None]), 1, [[1]])
    assert sample_covariance_stack(pools, 1, [[1], [2]]).v.shape == (2, 8, 8)
    with pytest.raises(EmptySamplesError):
        sample_covariance_stack(v, 10, [])
    # one seed per pool, and a stack must say which axis holds the pools
    for stack, seeds in ((pools, [[1]]), (pools, [[1], [2], [3]]),
                         (CovarianceMatrix(4, drifted(2)), [[1], [2]])):
        with pytest.raises(DimensionMismatchError, match="one seed per pool"):
            sample_covariance_stack(stack, 10, seeds)


def test_drift_compensation_angle_recovery():
    v = two_mode_squeezed_covariance(0.6)
    beta = 0.35
    drifted = v.rotate([beta, beta])
    alpha = drift_compensation_angle(drifted, (0, 1))
    undone = drifted.rotate([alpha, alpha])
    assert np.max(np.abs(undone.v - v.v)) < 1e-12
    # in the compensated frame the pair's I-Q cross terms vanish
    assert abs(undone.v[0, 3]) < 1e-12
    assert abs(undone.v[1, 2]) < 1e-12


def test_squeezing_stats_against_ideal_tms():
    r = 0.6
    v = two_mode_squeezed_covariance(r)
    on = sample(v, 200_000, seed=11)
    off = sample(CovarianceMatrix.vacuum(2), 200_000, seed=12)
    r_e, r_p = squeezing_stats(on.covariance(), off.covariance(), (0, 1))
    assert r_e == pytest.approx(np.exp(2.0 * r), rel=0.02)
    # single-mode reference: ideal TMS gives sqrt(2) e^{-r}
    assert r_p == pytest.approx(np.sqrt(2.0) * np.exp(-r), rel=0.02)


def test_stacked_rotation_and_squeezing_match_one_matrix_calls():
    rng = np.random.default_rng(41)
    # one matrix: the dense product with the rotation matrix itself
    angles = rng.uniform(-np.pi, np.pi, 4)
    r = mode_rotation(angles)
    turned = CovarianceMatrix(4, WISHART_V).rotate(angles)
    assert np.array_equal(turned.v, CovarianceMatrix(4, r @ WISHART_V @ r.T).v)
    # angles (3, 5, N) broadcast against a (3, 1) stack of matrices
    v = drifted(3)
    angles = rng.uniform(-np.pi, np.pi, (3, 5, 4))
    turned = CovarianceMatrix(4, v[:, None]).rotate(angles)
    assert turned.v.shape == (3, 5, 8, 8)
    for p in range(3):
        for k in range(5):
            one = CovarianceMatrix(4, v[p]).rotate(angles[p, k]).v
            assert np.array_equal(turned.v[p, k], one), (p, k)
    # a (2, 3) stack of pump-on and pump-off states of the pair (3, 1)
    on = CovarianceMatrix(4, np.stack([v, 2.0 * v[::-1]]))
    off = CovarianceMatrix(4, np.eye(8) * rng.uniform(1.0, 3.0, (2, 3, 1, 1)))
    pair = (3, 1)
    alpha = drift_compensation_angle(on, pair)
    r_e, r_p = squeezing_stats(on, off, pair)
    assert alpha.shape == r_e.shape == r_p.shape == (2, 3)
    for i in np.ndindex(2, 3):
        one_on, one_off = CovarianceMatrix(4, on.v[i]), CovarianceMatrix(4, off.v[i])
        one_alpha = drift_compensation_angle(one_on, pair)
        one_r_e, one_r_p = squeezing_stats(one_on, one_off, pair)
        assert type(one_alpha) is type(one_r_e) is type(one_r_p) is float
        assert (alpha[i], r_e[i], r_p[i]) == (one_alpha, one_r_e, one_r_p), i


def column_squeezing_ratios(on, off, pair):
    """R_e, R_p from the variances of rotated sample columns."""
    j, k = pair
    angles = np.zeros(on.n_modes)
    angles[j] = angles[k] = drift_compensation_angle(on.covariance(), pair)
    a, b = on.rotate(angles).data, off.rotate(angles).data
    combos = np.var([a[:, 2 * j] + a[:, 2 * k], a[:, 2 * j] - a[:, 2 * k]], axis=1, ddof=1)
    ref = (np.var(b[:, 2 * j], ddof=1) + np.var(b[:, 2 * k], ddof=1)) / 2.0
    return np.sqrt(combos.max() / combos.min()), np.sqrt(combos.min() / ref)


def test_squeezing_stats_works_on_sample_covariances():
    v = amplify(two_mode_squeezed_covariance(0.5, phase=0.3), AmplifierModel.uniform(2, 4.0, 0.2))
    on = sample(v, 20_000, seed=21)
    off = sample(amplify(CovarianceMatrix.vacuum(2), AmplifierModel.uniform(2, 4.0, 0.2)),
                 20_000, seed=22)
    r_e, r_p = squeezing_stats(on.covariance(), off.covariance(), (0, 1))
    assert (r_e, r_p) == pytest.approx(column_squeezing_ratios(on, off, (0, 1)), rel=1e-12)
    with pytest.raises(EmptySamplesError):
        sample(v, 1, seed=1).covariance()


def test_single_matrix_methods_reject_stacks(tmp_path):
    # 2 modes stacked 4 deep: v has shape (4, 4, 4), so a method that sized
    # itself from v.shape[0] would take the stack for one 4 x 4 matrix
    stack = CovarianceMatrix(2, np.stack([two_mode_squeezed_covariance(r).v
                                          for r in (0.1, 0.2, 0.3, 0.4)]))
    for call in (
        stack.min_physicality_eigenvalue,
        lambda: stack.submatrix([1]),
        lambda: _write_covariance(tmp_path, "stack.csv", stack),
    ):
        with pytest.raises(DimensionMismatchError, match="stack"):
            call()
    assert not (tmp_path / "stack.csv").exists()
    # the stack-aware functions still take it
    assert correlation_quantity(stack).shape == (4,)
    assert stack.rotate([0.1, 0.2]).v.shape == (4, 4, 4)
    assert amplify(stack, AmplifierModel.uniform(2, 4.0, 0.0)).v.shape == (4, 4, 4)


AXES = {"I+I-": (0, 2), "Q+Q-": (1, 3), "I+Q-": (0, 3)}


def rectangle_probabilities(block, edges):
    """Reference bin probabilities of a zero-mean bivariate normal: the
    bivariate CDF at the four corners of every bin."""
    x, y = np.meshgrid(edges, edges, indexing="ij")
    cdf = multivariate_normal.cdf(np.stack([x, y], -1), mean=[0.0, 0.0], cov=block)
    return cdf[1:, 1:] - cdf[:-1, 1:] - cdf[1:, :-1] + cdf[:-1, :-1]


def drift_stack(v, angles):
    """One copy of ``v`` per angle, every mode rotated by that angle."""
    r = mode_rotation(np.repeat(np.asarray(angles)[:, None], v.n_modes, axis=1))
    return CovarianceMatrix(v.n_modes, r @ v.v @ np.swapaxes(r, -1, -2))


def thermal_like(n_modes, variance):
    return CovarianceMatrix(n_modes, variance * np.eye(2 * n_modes))


def test_histogram2d_subtracted():
    v = two_mode_squeezed_covariance(0.4)
    hists = histogram2d_subtracted(v, CovarianceMatrix.vacuum(2), (0, 1), 20_000, seed=3,
                                   bin_width=0.5, span=6.0)
    assert set(hists) == {"I+I-", "Q+Q-", "I+Q-"}
    h = hists["I+I-"]
    assert np.array_equal(h.edges, np.linspace(-6.0, 6.0, 25))
    assert h.counts.shape == h.expected.shape == (2, 24, 24)
    assert h.counts.dtype == float
    on, off = h.counts
    assert 19_000 < on.sum() <= 20_000
    # pump-on I-I correlations tilt the histogram along the diagonal
    assert np.trace(on) > np.trace(off)
    assert np.trace(h.expected[0]) > np.trace(h.expected[1])


@pytest.mark.parametrize("n", range(1, 9))
def test_golub_welsch_nodes_match_leggauss(n):
    nodes, weights = _gauss_legendre(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - want_nodes)) <= 1e-15
    assert np.max(np.abs(weights - want_weights)) <= 1e-15


# the demo's middle-detuning model blocks (40 dB gain), pump on and pump off
DEMO_ON = np.array([[234590.5367364354, -220408.16326703483],
                    [-220408.16326703483, 234590.5367364284]])
DEMO_ON_II = np.diag([234590.5367364354, 234590.5367364284])
DEMO_OFF = np.diag([22998.700000081924, 22998.70000007494])


@pytest.mark.parametrize("block", [
    DEMO_ON, DEMO_ON_II, DEMO_OFF, DEMO_ON / 1e4, DEMO_ON_II / 1e4, DEMO_OFF / 1e4,
    # two-mode squeezed (r = 1.2): narrow SD 0.30, 1.3% of the mass beyond +-6
    two_mode_squeezed_covariance(1.2).v[np.ix_([0, 2], [0, 2])],
    two_mode_squeezed_covariance(1.2).v[np.ix_([0, 3], [0, 3])],
    2.5 * two_mode_squeezed_covariance(0.6, phase=0.3).v[np.ix_([1, 3], [1, 3])],
], ids=["on", "on-II", "off", "on/G", "on-II/G", "off/G", "tms-II", "tms-IQ", "tms-phase"])
def test_bin_probabilities_match_bivariate_normal_rectangles(block):
    edges = np.linspace(-6.0, 6.0, 49)
    got = _bin_probabilities(block[None], edges)[0]
    assert np.max(np.abs(got - rectangle_probabilities(block, edges))) <= 1e-10


@pytest.mark.parametrize("bin_width, span", [(0.25, 6.0), (0.375, 6.0), (0.5, 2.0), (0.3, 1.8)])
def test_histogram2d_subtracted_matches_pooled_histogram2d(bin_width, span):
    # Drawn counts and the records oracle (``sample``, then np.histogram2d
    # per interval) must both fit the reference rows * p of two
    # drift-rotated intervals. Cells expected below 5 rows are pooled with
    # the rows outside the window; summed over 20 seeds and all 6 tables,
    # Pearson's chi-square stays within 5 SD of its degrees of freedom.
    v_on = drift_stack(CovarianceMatrix(2, 1.5 * two_mode_squeezed_covariance(0.3).v),
                       [0.4, 2.1])
    v_off = drift_stack(thermal_like(2, 1.3), [0.4, 2.1])
    rows = 3000
    n_bins = max(1, int(round(2.0 * span / bin_width)))
    edges = np.linspace(-span, span, n_bins + 1)
    want = {(label, s): sum(rows * rectangle_probabilities(v.v[i][np.ix_(ab, ab)], edges)
                            for i in range(2))
            for label, ab in AXES.items() for s, v in enumerate((v_on, v_off))}
    chi2 = {"drawn": 0.0, "records": 0.0}
    dof = 0
    for seed in range(20):
        hists = histogram2d_subtracted(v_on, v_off, (0, 1), rows, [seed, 0],
                                       bin_width=bin_width, span=span)
        records = [[sample(CovarianceMatrix(2, v.v[i]), rows, [seed, 1, s, i]).data
                    for i in range(2)] for s, v in enumerate((v_on, v_off))]
        for (label, s), expected in want.items():
            a, b = AXES[label]
            h = hists[label]
            assert np.array_equal(h.edges, edges)
            assert np.allclose(h.expected[s], expected, rtol=0.0, atol=1e-10 * rows)
            oracle = sum(np.histogram2d(x[:, a], x[:, b], bins=[edges, edges])[0]
                         for x in records[s])
            big = expected >= 5.0
            rest = 2 * rows - expected[big].sum()
            dof += big.sum()  # cells kept plus the pooled cell, less one
            for name, counts in (("drawn", h.counts[s]), ("records", oracle)):
                kept = counts[big]
                chi2[name] += np.sum((kept - expected[big]) ** 2 / expected[big])
                chi2[name] += (2 * rows - kept.sum() - rest) ** 2 / rest
    for name, value in chi2.items():
        assert abs(value - dof) <= 5.0 * np.sqrt(2.0 * dof), (name, value, dof)


def test_histogram2d_subtracted_keeps_rows_with_both_values_inside():
    # pair (2, 0) of 3 modes is reversed and skips mode 1: I+ is row 4, Q+
    # row 5, I- row 0, Q- row 1. Q+ is wide, so Q+Q- and I+Q- keep fewer rows.
    span, bin_width, rows = 2.0, 0.25, 4000
    variances = np.array([1.0, 1.5, 9.0, 9.0, 0.8, 25.0])
    v = CovarianceMatrix(3, np.diag(variances))
    v.v[4, 0] = v.v[0, 4] = 0.5
    v.v[5, 1] = v.v[1, 5] = -2.0
    cols = {"I+I-": [4, 0], "Q+Q-": [5, 1], "I+Q-": [4, 1]}
    edges = np.linspace(-span, span, 17)
    hists = histogram2d_subtracted(v, thermal_like(3, 1.0), (2, 0), rows, seed=5,
                                   bin_width=bin_width, span=span)
    again = histogram2d_subtracted(v, thermal_like(3, 1.0), (2, 0), rows, seed=5,
                                   bin_width=bin_width, span=span)
    other = histogram2d_subtracted(v, thermal_like(3, 1.0), (2, 0), rows, seed=6,
                                   bin_width=bin_width, span=span)
    inside = {}
    for label, ab in cols.items():
        h = hists[label]
        want = rows * rectangle_probabilities(v.v[np.ix_(ab, ab)], edges)
        assert np.allclose(h.expected[0], want, rtol=0.0, atol=1e-10 * rows), label
        # every row is in exactly one bin or outside
        assert np.array_equal(h.counts.sum(axis=(1, 2)) + h.outside, [rows, rows])
        assert np.all(h.counts == np.round(h.counts)) and np.all(h.counts >= 0)
        for name in ("edges", "counts", "expected", "outside"):
            assert np.array_equal(getattr(h, name), getattr(again[label], name))
        assert not np.array_equal(h.counts, other[label].counts)
        inside[label] = h.counts[0].sum()
    assert inside["Q+Q-"] < inside["I+I-"] and inside["I+Q-"] < inside["I+I-"]


def test_drift_stack_draws_one_table_per_interval():
    base = two_mode_squeezed_covariance(0.5)
    off = thermal_like(2, 1.0)
    angles = [0.0, 0.7, 1.9, 0.7]
    stack = drift_stack(base, angles)
    hists = histogram2d_subtracted(stack, off, (0, 1), 500, seed=9)
    for label in AXES:
        # each interval's own probabilities, not those of a pooled covariance
        single = sum(histogram2d_subtracted(CovarianceMatrix(2, m), off, (0, 1), 500,
                                            seed=9)[label].expected[0] for m in stack.v)
        assert np.allclose(hists[label].expected[0], single, rtol=1e-12, atol=0.0)
        # four pump-on intervals, one pump-off interval
        assert np.array_equal(hists[label].counts.sum(axis=(1, 2)) + hists[label].outside,
                              [2000, 500])
    # identical intervals merge into one table that draws all of their rows
    same_on, same_off = drift_stack(base, [0.7] * 3), drift_stack(off, [0.7] * 3)
    merged = histogram2d_subtracted(same_on, same_off, (0, 1), 500, seed=9)
    single = histogram2d_subtracted(CovarianceMatrix(2, same_on.v[0]),
                                    CovarianceMatrix(2, same_off.v[0]), (0, 1), 1500, seed=9)
    for label in AXES:
        assert np.array_equal(merged[label].counts, single[label].counts)
        assert np.array_equal(merged[label].expected, single[label].expected)


@pytest.mark.parametrize("bin_width, span", [(0.35, 6.0), (0.3, 1.7), (13.0, 6.0)])
def test_partial_bins_are_refused(bin_width, span):
    # 0.35 on +-6 would round to 34 bins of 0.353, 0.3 on +-1.7 to 11 of 0.309
    v = two_mode_squeezed_covariance(0.3)
    with pytest.raises(ValueError, match="into whole bins"):
        histogram2d_subtracted(v, v, (0, 1), 100, seed=1, bin_width=bin_width, span=span)


def test_narrow_state_is_refused():
    # two-mode squeezing r = 1.5: the I+I- block's narrow-axis SD is e^-1.5 = 0.22
    v = two_mode_squeezed_covariance(1.5)
    with pytest.raises(NumericalError, match="narrow-axis SD of 0.223"):
        histogram2d_subtracted(v, thermal_like(2, 1.0), (0, 1), 100, seed=1)
    histogram2d_subtracted(v, thermal_like(2, 1.0), (0, 1), 100, seed=1, bin_width=0.2)


@pytest.mark.parametrize("pair", [(-1, 0), (0, 0), (0, 2)])
def test_mode_pair_functions_refuse_bad_pairs(pair):
    v = two_mode_squeezed_covariance(0.4)
    for call in (
        lambda: histogram2d_subtracted(v, v, pair, 10, seed=5),
        lambda: squeezing_stats(v, CovarianceMatrix.vacuum(2), pair),
        lambda: drift_compensation_angle(v, pair),
    ):
        with pytest.raises(DimensionMismatchError, match="distinct modes of 2"):
            call()
