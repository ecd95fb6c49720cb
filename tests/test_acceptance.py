"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-contained: reference values are either closed forms,
independently coded oracles (SDP solver, direct root finding, numeric
minimization), or frozen constants derived from those oracles.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from modecomb import (
    AmplifierModel,
    Bipartition,
    CovarianceMatrix,
    ModeSpec,
    all_bipartition_reports,
    all_bipartitions,
    amplify,
    build_coupling_matrix,
    c_lineshape,
    correlation_quantity,
    fit_gain_from_correlations,
    output_covariance,
    planck_fit,
    planck_power,
    ppt_min_eigenvalue,
    ppt_temperature_sweep,
    propagate_errors,
    pseudo_unitarity_residual,
    reconstruct_physical,
    sample,
    scattering_matrices,
    squeezing_stats,
    svl_test,
    symplectic_residual,
    thermal_covariance,
    two_mode_squeezed_covariance,
)
from modecomb.bases import mode_rotation, symplectic_form
from modecomb.cli import run_scenario, write_demo_config

from conftest import SUITE_BUDGET_S, session_elapsed

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# shared builders


def random_network(rng, lossless):
    """Random stable mode network with per-mode pump load below threshold."""
    n = int(rng.integers(2, 7))
    freqs = 3.8e9 + np.sort(rng.uniform(0.0, 100e6, n))
    ge = rng.uniform(10e3, 40e3, n)
    gi = np.zeros(n) if lossless else rng.uniform(5e3, 30e3, n)
    modes = [ModeSpec.from_hz(j, freqs[j], ge[j], gi[j]) for j in range(n)]
    gtot = TWO_PI * (ge + gi)
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    take = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)),
                      replace=False)
    coup = {}
    for idx in take:
        j, k = pairs[idx]
        mag = rng.uniform(0.05, 1.0) * 0.45 * np.sqrt(gtot[j] * gtot[k]) / 2.0
        coup[(j, k)] = mag * np.exp(1j * rng.uniform(0.0, TWO_PI))
    load = np.zeros(n)
    for (j, k), e in coup.items():
        load[j] += abs(e)
        if k != j:
            load[k] += abs(e)
    scale = max(1.0, float(np.max(load / (0.45 * gtot / 2.0))))
    coup = {jk: e / scale for jk, e in coup.items()}
    cm = build_coupling_matrix(modes, couplings=coup)
    return cm, TWO_PI * ge, TWO_PI * gi


def two_mode_pair(x, gamma_hz=40e3, gamma_int_hz=0.0):
    modes = [
        ModeSpec.from_hz(0, 3.8245e9, gamma_hz, gamma_int_hz),
        ModeSpec.from_hz(1, 3.8375e9, gamma_hz, gamma_int_hz),
    ]
    gtot = TWO_PI * (gamma_hz + gamma_int_hz)
    cm = build_coupling_matrix(modes, couplings={(0, 1): x * gtot / 2.0})
    return scattering_matrices(
        cm, np.full(2, TWO_PI * gamma_hz), np.full(2, TWO_PI * gamma_int_hz)
    )


def comb_output(eps_hz):
    modes = [ModeSpec.from_hz(j, 3.82e9 + j * 13e6, 20e3, 20e3) for j in range(4)]
    eps = TWO_PI * eps_hz
    coup = {(0, 1): eps, (1, 2): eps, (2, 3): eps, (0, 3): eps}
    cm = build_coupling_matrix(modes, couplings=coup)
    g = np.full(4, TWO_PI * 20e3)
    pair = scattering_matrices(cm, g, g, allow_unstable=True).to_quadrature()
    return output_covariance(pair, CovarianceMatrix.vacuum(4))


SWEEP_MODES = [
    ModeSpec.from_hz(0, 3.8245e9, 20e3, 20e3),
    ModeSpec.from_hz(1, 3.8375e9, 20e3, 20e3),
]


def sweep_forward_model(temperature, eps=TWO_PI * 6e3):
    omegas = np.array([m.omega for m in SWEEP_MODES])
    cm = build_coupling_matrix(
        SWEEP_MODES, probe_omegas=omegas - 2.0 * eps, couplings={(0, 1): eps}
    )
    g = np.full(2, TWO_PI * 20e3)
    pair = scattering_matrices(cm, g, g).to_quadrature()
    v_th = thermal_covariance(SWEEP_MODES, temperature)
    return output_covariance(pair, v_th, v_loss=v_th)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_scattering_conservation_laws():
    rng = np.random.default_rng(20260814)
    t0 = time.monotonic()
    for _ in range(200):
        cm, ge, gi = random_network(rng, lossless=True)
        pair = scattering_matrices(cm, ge, gi)
        assert symplectic_residual(pair.to_quadrature().s) < 1e-9
    for _ in range(200):
        cm, ge, gi = random_network(rng, lossless=False)
        pair = scattering_matrices(cm, ge, gi)
        assert pseudo_unitarity_residual(pair) < 1e-9
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_two_mode_closed_form():
    for x in np.linspace(0.0, 0.9, 91):
        pair = two_mode_pair(x)
        expected = (1.0 + x**2) / (1.0 - x**2)
        assert abs(abs(pair.s[0, 0]) - expected) < 1e-10
    # power reflection gain diverges toward the instability threshold
    assert abs(two_mode_pair(0.99).s[0, 0]) ** 2 > 100.0


def test_criterion_03_tms_entanglement_chain():
    x = 0.6
    pair = two_mode_pair(x).to_quadrature()
    v = output_covariance(pair, CovarianceMatrix.vacuum(2))
    assert abs(np.linalg.det(v.v) - 1.0) < 1e-9
    r = 0.5 * np.arcsinh(correlation_quantity(v) / np.sqrt(2.0))
    lam = ppt_min_eigenvalue(v, [1])
    assert abs(lam - (np.exp(-2.0 * r) - 1.0)) < 1e-8
    assert svl_test(v, Bipartition((0,), (1,), 2)).value < 0.0
    # sampled squeezing ratio against the network prediction
    n = 1_000_000
    on = sample(v, n, seed=20260814)
    off = sample(CovarianceMatrix.vacuum(2), n, seed=20260815)
    r_e, _ = squeezing_stats(on.covariance(), off.covariance(), (0, 1))
    se = r_e / np.sqrt(n)
    assert abs(r_e - np.exp(2.0 * r)) < 3.0 * se


def test_criterion_04_four_mode_comb_structure():
    t0 = time.monotonic()
    v = comb_output(30e3)
    ref = comb_output(0.3e3)  # deep perturbative reference fixes the pattern
    floor = 1e-6
    sgn = np.where(np.abs(v.v) > floor, np.sign(v.v), 0.0)
    sgn_ref = np.where(np.abs(ref.v) > floor, np.sign(ref.v), 0.0)
    assert np.array_equal(sgn, sgn_ref)
    for j in range(4):
        for k in range(j + 1, 4):
            block = v.v[2 * j : 2 * j + 2, 2 * k : 2 * k + 2]
            if (j, k) in ((0, 1), (1, 2), (2, 3), (0, 3)):
                # pumped pairs: purely anomalous, I-Q cross terms only
                assert np.max(np.abs(np.diag(block))) < floor
                assert block[0, 1] < -floor and block[1, 0] < -floor
            else:
                # next-nearest pairs: positive passive correlations, no I-Q
                assert abs(block[0, 1]) < floor and abs(block[1, 0]) < floor
                assert block[0, 0] > floor and block[1, 1] > floor
    reports = all_bipartition_reports(v)
    assert len(reports) == 7
    assert all(rep.value < 0.0 for rep in reports)
    assert time.monotonic() - t0 < 5.0


def test_criterion_05_ppt_svl_sign_consistency():
    rng = np.random.default_rng(77)
    bp = Bipartition((0,), (1,), 2)
    checked = 0
    for _ in range(500):
        r = rng.uniform(0.0, 1.2)
        base = two_mode_squeezed_covariance(r).v
        z = np.exp(rng.uniform(-0.6, 0.6, 2))
        d = np.diag([z[0], 1.0 / z[0], z[1], 1.0 / z[1]])
        v = d @ base @ d.T
        v += np.diag(np.repeat(rng.uniform(0.0, 2.0, 2), 2))
        rot = mode_rotation(rng.uniform(0.0, np.pi, 2))
        v = CovarianceMatrix(2, rot @ v @ rot.T)
        assert v.min_physicality_eigenvalue() >= -1e-9
        lam = ppt_min_eigenvalue(v, [1])
        e = svl_test(v, bp).value
        if abs(e) < 1e-6:
            continue
        assert np.sign(lam) == np.sign(e), (lam, e)
        checked += 1
    assert checked > 450


def test_criterion_06_reconstruction_oracle():
    cp = pytest.importorskip("cvxpy")

    def oracle(vm, sigma):
        n = vm.shape[0] // 2
        omega = symplectic_form(n)
        v = cp.Variable(vm.shape, symmetric=True)
        t = cp.Variable(nonneg=True)
        problem = cp.Problem(
            cp.Minimize(t),
            [cp.bmat([[v, -omega], [omega, v]]) >> 0,
             cp.abs(v - vm) <= t * sigma],
        )
        problem.solve(solver=cp.CLARABEL)
        return float(t.value)

    rng = np.random.default_rng(20260814)
    for i in range(100):
        n_modes = 1 + (i % 2)
        if n_modes == 1:
            base = np.diag(np.full(2, rng.uniform(1.0, 3.0)))
        else:
            base = two_mode_squeezed_covariance(rng.uniform(0.2, 0.9)).v
        pert = rng.normal(0.0, 0.05, base.shape)
        vm = base + (pert + pert.T) / 2.0
        sigma = 0.05
        res = reconstruct_physical(vm, sigma=sigma, t_width=1e-5)
        assert res.v.min_physicality_eigenvalue() >= -1e-8
        t_star = oracle(vm, sigma)
        assert abs(res.objective - t_star) < 1e-4, i
    # a physical input is returned as-is
    phys = reconstruct_physical(two_mode_squeezed_covariance(0.4), sigma=0.05)
    assert phys.objective == 0.0


def test_criterion_07_calibration_roundtrips():
    # Planck spectroscopy with 1% multiplicative noise
    temps = np.geomspace(0.01, 4.0, 20)
    powers = planck_power(temps, 1e8, 0.08, 3.8245e9)
    rng = np.random.default_rng(20260814)
    noisy = powers * (1.0 + 0.01 * rng.standard_normal(20))
    fit = planck_fit(temps, noisy, 3.8245e9, sigma=0.01 * np.abs(noisy),
                     absolute_sigma=True)
    assert abs(fit.gain - 1e8) / 1e8 < 0.05
    assert abs(fit.added_photons - 0.08) < 0.02

    # noiseless correlation lineshape
    eps = TWO_PI * 6e3
    deltas = TWO_PI * np.linspace(-60e3, 60e3, 41)
    c_meas = c_lineshape(deltas, 1e8, eps, SWEEP_MODES, 0.05)
    cfit = fit_gain_from_correlations(deltas, c_meas, SWEEP_MODES, 0.05)
    assert abs(cfit.gain - 1e8) / 1e8 < 0.02
    assert abs(cfit.eps - eps) / eps < 0.02

    # assumed-temperature sweep against the forward-model threshold
    def lam_true(t):
        return ppt_min_eigenvalue(sweep_forward_model(t), [1])

    t_threshold = brentq(lam_true, 0.02, 1.0, xtol=1e-9)
    amp = AmplifierModel.uniform(2, 1e8, 0.08)
    v_on = amplify(sweep_forward_model(0.05), amp)
    v_off = amplify(thermal_covariance(SWEEP_MODES, 0.05), amp)
    lambdas, crossing = ppt_temperature_sweep(
        v_on, v_off, deltas, c_meas, SWEEP_MODES, np.linspace(0.05, 0.8, 76)
    )
    assert np.all(np.diff(lambdas) > 0.0)
    assert lambdas[0] < 0.0 < lambdas[-1]
    assert crossing is not None
    assert abs(crossing - t_threshold) < 2e-3


def test_criterion_08_error_propagation_significance(tmp_path):
    # exact zero fit errors and infinite statistics give a zero sigma matrix
    amp = AmplifierModel.uniform(
        2, 100.0, 0.3, sigma_gain=0.0, sigma_noise=0.0, cov_gain_noise=0.0
    )
    meas = amplify(two_mode_squeezed_covariance(0.5), amp)
    assert np.max(np.abs(propagate_errors(meas, amp, sem=None))) == 0.0

    # synthetic four-mode pipeline with a realistic 1% gain uncertainty
    config = tmp_path / "fig4a.cfg"
    config.write_text(
        """\
pipeline: multimode
output_dir: @OUT@
seed: 7
system:
  mirror:
    freq_lc_hz: 8.0e9
    coupling_vac_hz: 1.588e6
  modes:
    - {index: 0, freq_hz: 3.8245e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 1, freq_hz: 3.8375e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 2, freq_hz: 3.8506e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
    - {index: 3, freq_hz: 3.8638e9, loss_ext_hz: 20.0e3, loss_int_hz: 20.0e3}
pumps:
  - {freq_hz: 3.83100e9, epsilon_hz: 30.0e3}
  - {freq_hz: 3.84405e9, epsilon_hz: 30.0e3}
  - {freq_hz: 3.85720e9, epsilon_hz: 30.0e3}
  - {freq_hz: 3.84415e9, epsilon_hz: 30.0e3}
coupling:
  allow_unstable: true
environment:
  temp_k: 0.007
amplifier:
  gain_db: 80.0
  added_photons: 12.0
  sigma_gain_rel: 0.01
  sigma_noise_photons: 0.1
sampling:
  n_samples: 50000
  interval_count: 40
multimode: {}
""".replace("@OUT@", str(tmp_path / "out"))
    )
    report = run_scenario(config)
    sig = report.metrics["weighted_significance"]
    assert len(sig) == 7
    labels = {bp.label for bp in all_bipartitions(4)}
    assert set(sig) == labels
    for label, value in sig.items():
        assert value < -2.0, (label, value)


def test_criterion_09_demo_determinism(tmp_path, monkeypatch):
    config = write_demo_config("multimode", str(tmp_path))
    digests = []
    for run in ("first", "second"):
        monkeypatch.setenv("MODECOMB_OUT_ROOT", str(tmp_path / run))
        report = run_scenario(config)
        bundle = {}
        for name in report.files:
            with open(os.path.join(report.output_dir, name), "rb") as fh:
                bundle[name] = hashlib.sha256(fh.read()).hexdigest()
        digests.append(bundle)
    assert digests[0] == digests[1]
    assert len(digests[0]) > 1


def test_criterion_10_suite_runtime_budget():
    # the conftest hook enforces the same bound once the session ends
    assert session_elapsed() < SUITE_BUDGET_S
