"""Covariance matrices, the amplifier chain, sampling, and squeezing ratios."""

import warnings

import numpy as np
import pytest
from scipy.constants import hbar as HBAR
from scipy.constants import k as KB

from modecomb import (
    AmplifierModel,
    CovarianceMatrix,
    DimensionMismatchError,
    EmptySamplesError,
    GainBelowUnityError,
    ModeSpec,
    NotPSDError,
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
        lambda: stack.rotate([0.1, 0.2]),
        lambda: _write_covariance(tmp_path, "stack.csv", stack),
    ):
        with pytest.raises(DimensionMismatchError, match="stack"):
            call()
    assert not (tmp_path / "stack.csv").exists()
    # the stack-aware functions still take it
    assert correlation_quantity(stack).shape == (4,)
    assert amplify(stack, AmplifierModel.uniform(2, 4.0, 0.0)).v.shape == (4, 4, 4)


def test_histogram2d_subtracted():
    v = two_mode_squeezed_covariance(0.4)
    on = sample(v, 20_000, seed=3)
    off = sample(CovarianceMatrix.vacuum(2), 20_000, seed=4)
    hists = histogram2d_subtracted(iter([(True, on), (False, off)]), (0, 1),
                                   bin_width=0.5, span=6.0)
    assert set(hists) == {"I+I-", "Q+Q-", "I+Q-"}
    edges, h_on, h_off = hists["I+I-"]
    assert edges.shape == (25,)
    assert h_on.shape == (24, 24)
    assert h_on.dtype == float
    assert h_on.sum() <= 20_000
    assert h_on.sum() > 19_000
    # pump-on I-I correlations tilt the histogram along the diagonal
    idx = np.arange(24)
    diag_on = sum(h_on[i, i] for i in idx)
    diag_off = sum(h_off[i, i] for i in idx)
    assert diag_on > diag_off


@pytest.mark.parametrize("bin_width, span", [(0.25, 6.0), (0.35, 6.0), (0.5, 2.0), (0.3, 1.7)])
def test_histogram2d_subtracted_matches_pooled_histogram2d(bin_width, span):
    n_bins = max(1, int(round(2.0 * span / bin_width)))
    edges = np.linspace(-span, span, n_bins + 1)
    # every edge, its float neighbours, +-span, beyond span, signed zeros and
    # non-finite values, which are dropped without a warning
    hard = np.concatenate([edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf),
                           [span, -span, 1.5 * span, -1.5 * span, 0.0, -0.0,
                            np.nan, np.inf, -np.inf]])
    rng = np.random.default_rng(17)
    blocks = []
    for b in range(6):
        data = rng.normal(scale=span / 2, size=(hard.size * 3, 4))
        # the hard values sit in every column, paired with each other
        data[: hard.size] = np.column_stack([hard, rng.permutation(hard),
                                             hard[::-1], rng.permutation(hard)])
        blocks.append((b % 3 != 2, QuadratureSamples(2, data)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hists = histogram2d_subtracted(iter(blocks), (0, 1),
                                       bin_width=bin_width, span=span)
    cols = {"I+I-": (0, 2), "Q+Q-": (1, 3), "I+Q-": (0, 3)}
    for label, (a, b) in cols.items():
        got_edges, h_on, h_off = hists[label]
        assert np.array_equal(got_edges, edges)
        for got, is_on in ((h_on, True), (h_off, False)):
            pooled = np.vstack([s.data for on, s in blocks if on == is_on])
            want, _, _ = np.histogram2d(pooled[:, a], pooled[:, b], bins=[edges, edges])
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), label


def test_histogram2d_subtracted_keeps_rows_with_both_values_inside():
    # pair (2, 0) of 3 modes is reversed and skips mode 1: I+ is column 4,
    # Q+ column 5, I- column 0, Q- column 1
    span, bin_width = 2.0, 0.25
    edges = np.linspace(-span, span, 17)
    rng = np.random.default_rng(23)
    hard = np.concatenate([edges, [np.nan, np.inf, -np.inf, 1.5 * span, -1.5 * span]])

    def block(is_on, data):
        return is_on, QuadratureSamples(3, data)

    mixed = rng.normal(scale=span, size=(400, 6))
    mixed[: hard.size, [4, 0, 5, 1]] = np.column_stack(
        [hard, rng.permutation(hard), rng.permutation(hard), hard[::-1]])
    no_q_minus = rng.normal(scale=span / 2, size=(300, 6))
    no_q_minus[:, 1] = np.nan  # Q+Q- and I+Q- keep no row of this block
    no_q_plus = rng.normal(scale=span / 2, size=(300, 6))
    no_q_plus[:, 5] = 3.0 * span  # Q+Q- keeps no row of this block
    outside = rng.choice([-1.0, 1.0], size=(200, 6)) * (
        np.nextafter(span, np.inf) + rng.exponential(span, size=(200, 6)))
    blocks = [block(True, mixed), block(False, rng.normal(scale=span, size=(400, 6))),
              block(True, no_q_minus), block(False, no_q_plus),
              block(True, outside), block(False, outside)]
    cols = {"I+I-": (4, 0), "Q+Q-": (5, 1), "I+Q-": (4, 1)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hists = histogram2d_subtracted(iter(blocks), (2, 0), bin_width=bin_width, span=span)
        empty = histogram2d_subtracted(iter([]), (2, 0), bin_width=bin_width, span=span)
    for label, (a, b) in cols.items():
        got_edges, h_on, h_off = hists[label]
        assert np.array_equal(got_edges, edges)
        for got, is_on in ((h_on, True), (h_off, False)):
            pooled = np.vstack([s.data for on, s in blocks if on == is_on])
            want, _, _ = np.histogram2d(pooled[:, a], pooled[:, b], bins=[edges, edges])
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), label
            assert got.sum() > 0
        empty_edges, e_on, e_off = empty[label]
        assert np.array_equal(empty_edges, edges)
        for counts in (e_on, e_off):
            assert counts.dtype == float
            assert counts.shape == (16, 16)
            assert not counts.any()


@pytest.mark.parametrize("pair", [(-1, 0), (0, 0), (0, 2)])
def test_mode_pair_functions_refuse_bad_pairs(pair):
    v = two_mode_squeezed_covariance(0.4)
    block = (True, sample(v, 10, seed=5))
    for call in (
        lambda: histogram2d_subtracted(iter([block]), pair),
        lambda: squeezing_stats(v, CovarianceMatrix.vacuum(2), pair),
        lambda: drift_compensation_angle(v, pair),
    ):
        with pytest.raises(DimensionMismatchError, match="distinct modes of 2"):
            call()
