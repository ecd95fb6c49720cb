"""Gain and noise calibration fits plus the assumed-temperature sweep."""

from dataclasses import asdict

import numpy as np
import pytest
from scipy.constants import hbar as HBAR
from scipy.constants import k as KB
from scipy.optimize import brentq, curve_fit

from modecomb import (
    AmplifierModel,
    CalibrationStore,
    CovarianceMatrix,
    FitDivergedError,
    InsufficientDataError,
    MissingFitCovarianceError,
    ModeSpec,
    NegativeNoiseError,
    added_noise_from_pump_off,
    amplify,
    build_coupling_matrix,
    c_lineshape,
    deamplify,
    fit_gain_from_correlations,
    output_covariance,
    planck_fit,
    planck_power,
    ppt_min_eigenvalue,
    ppt_temperature_sweep,
    scattering_matrices,
    thermal_covariance,
)
from modecomb.cli import _write_json

TWO_PI = 2.0 * np.pi

PAIR = [
    ModeSpec.from_hz(0, 3.8245e9, 20e3, 20e3),
    ModeSpec.from_hz(1, 3.8375e9, 20e3, 20e3),
]


def test_planck_power_limits():
    gain, noise, freq = 1e8, 0.08, 3.8245e9
    hf = HBAR * TWO_PI * freq
    # zero-temperature plateau: vacuum plus the chain's added photons
    plateau = gain * hf * 0.5 * (1.0 + (2.0 * noise + 1.0))
    assert planck_power(0.0, gain, noise, freq) == pytest.approx(plateau, rel=1e-12)
    # high-temperature slope approaches G kB B
    p1 = planck_power(10.0, gain, noise, freq)
    p2 = planck_power(11.0, gain, noise, freq)
    assert p2 - p1 == pytest.approx(gain * KB, rel=1e-3)
    arr = planck_power(np.array([0.05, 0.1]), gain, noise, freq)
    assert arr.shape == (2,)


def test_planck_fit_noiseless_roundtrip():
    temps = np.geomspace(0.01, 4.0, 20)
    powers = planck_power(temps, 1e8, 0.08, 3.8245e9)
    fit = planck_fit(temps, powers, 3.8245e9)
    assert fit.gain == pytest.approx(1e8, rel=1e-6)
    assert fit.added_photons == pytest.approx(0.08, abs=1e-6)
    assert np.max(np.abs(fit.residuals)) < 1e-6 * np.max(powers)


def test_planck_fit_with_noise():
    temps = np.geomspace(0.01, 4.0, 20)
    powers = planck_power(temps, 1e8, 0.08, 3.8245e9)
    rng = np.random.default_rng(12)
    noisy = powers * (1.0 + 0.01 * rng.standard_normal(20))
    fit = planck_fit(temps, noisy, 3.8245e9, sigma=0.01 * np.abs(noisy),
                     absolute_sigma=True)
    assert fit.gain == pytest.approx(1e8, rel=0.05)
    assert fit.added_photons == pytest.approx(0.08, abs=0.02)
    assert fit.sigma_gain > 0.0 and fit.sigma_noise > 0.0
    amp = fit.amplifier(2)
    assert isinstance(amp, AmplifierModel)
    assert amp.gain == pytest.approx(np.full(2, fit.gain))


def test_planck_fit_needs_three_points():
    with pytest.raises(InsufficientDataError):
        planck_fit(np.array([0.1, 0.2]), np.array([1.0, 2.0]), 3.8e9)


def criterion_07_planck_data():
    """The noisy Planck sweep of acceptance criterion 07."""
    temps = np.geomspace(0.01, 4.0, 20)
    powers = planck_power(temps, 1e8, 0.08, 3.8245e9)
    rng = np.random.default_rng(20260814)
    return temps, powers * (1.0 + 0.01 * rng.standard_normal(20))


@pytest.mark.parametrize("absolute_sigma", [True, False])
@pytest.mark.parametrize("weighted", [True, False])
def test_planck_fit_matches_curve_fit(weighted, absolute_sigma):
    temps, noisy = criterion_07_planck_data()
    freq = 3.8245e9
    sigma = 0.01 * np.abs(noisy) if weighted else None
    hf = HBAR * TWO_PI * freq

    def jac(t, gain, noise):
        return np.column_stack([planck_power(t, 1.0, noise, freq), np.full(t.shape, gain * hf)])

    popt, pcov = curve_fit(
        lambda t, gain, noise: planck_power(t, gain, noise, freq),
        temps, noisy, p0=(1e8, 0.1), jac=jac, sigma=sigma, absolute_sigma=absolute_sigma,
    )
    fit = planck_fit(temps, noisy, freq, sigma=sigma, absolute_sigma=absolute_sigma)
    assert fit.gain == pytest.approx(popt[0], rel=1e-8)
    assert fit.added_photons == pytest.approx(popt[1], rel=1e-8)
    assert fit.sigma_gain == pytest.approx(np.sqrt(pcov[0, 0]), rel=1e-5)
    assert fit.sigma_noise == pytest.approx(np.sqrt(pcov[1, 1]), rel=1e-5)
    assert fit.cov_gain_noise == pytest.approx(pcov[0, 1], rel=1e-5)


def test_planck_fit_singular_design_has_no_covariance():
    # hf >> kB T everywhere: coth is 1 at every point, so G and G(2n+1)
    # enter only through their sum
    with pytest.raises(MissingFitCovarianceError):
        planck_fit(np.array([0.001, 0.002, 0.003]), np.ones(3), 3.8245e9)


def test_c_lineshape_even_and_peaked():
    deltas = TWO_PI * np.linspace(-60e3, 60e3, 21)
    c = c_lineshape(deltas, 1e8, TWO_PI * 6e3, PAIR, 0.05)
    assert c == pytest.approx(c[::-1], rel=1e-9)
    assert np.argmax(c) == 10
    assert np.all(c > 0.0)


def test_c_lineshape_keeps_the_shape_of_deltas():
    deltas = TWO_PI * np.linspace(-60e3, 60e3, 12)
    line = c_lineshape(deltas, 1e8, TWO_PI * 6e3, PAIR, 0.05)
    assert line.shape == (12,)
    assert c_lineshape(deltas[:0], 1e8, TWO_PI * 6e3, PAIR, 0.05).shape == (0,)
    one = c_lineshape(deltas[3:4], 1e8, TWO_PI * 6e3, PAIR, 0.05)
    assert one.shape == (1,)
    assert one[0] == pytest.approx(line[3], rel=1e-12)
    grid = c_lineshape(deltas.reshape(3, 4), 1e8, TWO_PI * 6e3, PAIR, 0.05)
    assert grid.shape == (3, 4)
    assert grid == pytest.approx(line.reshape(3, 4), rel=1e-12)


def test_correlation_fit_noiseless_roundtrip():
    deltas = TWO_PI * np.linspace(-60e3, 60e3, 41)
    c = c_lineshape(deltas, 1e8, TWO_PI * 6e3, PAIR, 0.05)
    fit = fit_gain_from_correlations(deltas, c, PAIR, 0.05)
    assert fit.gain == pytest.approx(1e8, rel=1e-6)
    assert fit.eps == pytest.approx(TWO_PI * 6e3, rel=1e-6)
    with pytest.raises(InsufficientDataError):
        fit_gain_from_correlations(deltas[:2], c[:2], PAIR, 0.05)


EPS_MAX = 0.999 * np.sqrt(PAIR[0].gamma_tot * PAIR[1].gamma_tot) / 2.0


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("temperature", [0.05, 0.3, 0.8])
def test_correlation_fit_matches_curve_fit(temperature, seed):
    deltas = TWO_PI * np.linspace(-60e3, 60e3, 41)
    clean = c_lineshape(deltas, 1e8, TWO_PI * 6e3, PAIR, 0.05)
    c = clean * (1.0 + 0.005 * np.random.default_rng(seed).standard_normal(41))
    popt, pcov = curve_fit(
        lambda d, gain, eps: c_lineshape(d, gain, eps, PAIR, temperature),
        deltas, c, p0=(1e8, 0.5 * EPS_MAX), bounds=([1.0, 0.0], [np.inf, EPS_MAX]),
    )
    fit = fit_gain_from_correlations(deltas, c, PAIR, temperature)
    assert fit.gain == pytest.approx(popt[0], rel=1e-7)
    assert fit.eps == pytest.approx(popt[1], rel=1e-7)
    assert fit.sigma_gain == pytest.approx(np.sqrt(pcov[0, 0]), rel=1e-4)
    assert fit.sigma_eps == pytest.approx(np.sqrt(pcov[1, 1]), rel=1e-4)
    assert fit.cov_gain_eps == pytest.approx(pcov[0, 1], rel=1e-4)
    assert fit.residuals == pytest.approx(
        c - c_lineshape(deltas, fit.gain, fit.eps, PAIR, temperature), abs=1e-9 * np.max(c)
    )


def test_correlation_fit_gain_stays_at_its_bound():
    # half the unit-gain lineshape: the unbounded gain would be 0.5
    deltas = TWO_PI * np.linspace(-60e3, 60e3, 41)
    c = 0.5 * c_lineshape(deltas, 1.0, TWO_PI * 6e3, PAIR, 0.05)
    fit = fit_gain_from_correlations(deltas, c, PAIR, 0.05)
    assert fit.gain == 1.0
    assert 0.0 < fit.eps < EPS_MAX
    popt, _ = curve_fit(
        lambda d, gain, eps: c_lineshape(d, gain, eps, PAIR, 0.05),
        deltas, c, p0=(1.5, 0.5 * EPS_MAX), bounds=([1.0, 0.0], [np.inf, EPS_MAX]),
    )
    assert fit.eps == pytest.approx(popt[1], rel=1e-6)


def test_correlation_fit_of_a_zero_lineshape_fails():
    deltas = TWO_PI * np.linspace(-60e3, 60e3, 41)
    with pytest.raises((MissingFitCovarianceError, FitDivergedError)):
        fit_gain_from_correlations(deltas, np.zeros(41), PAIR, 0.05)


def test_added_noise_from_pump_off():
    gain, n_add, temp = 1e8, 0.12, 0.05
    amp = AmplifierModel.uniform(2, gain, n_add)
    v_off = amplify(thermal_covariance(PAIR, temp), amp)
    rec = added_noise_from_pump_off(v_off, gain, PAIR, temp)
    assert rec == pytest.approx(n_add, abs=1e-9)
    # assuming too much gain drives the inversion negative
    with pytest.raises(NegativeNoiseError):
        added_noise_from_pump_off(v_off, gain * 1.5, PAIR, temp)


def sweep_inputs(temperature=0.05, gain=1e8, n_add=0.08, eps_hz=6e3):
    eps = TWO_PI * eps_hz
    shift = 2.0 * eps
    omegas = np.array([m.omega for m in PAIR])
    cm = build_coupling_matrix(
        PAIR, probe_omegas=omegas - shift, couplings={(0, 1): eps}
    )
    g = np.full(2, TWO_PI * 20e3)
    pair = scattering_matrices(cm, g, g).to_quadrature()
    v_th = thermal_covariance(PAIR, temperature)
    v_out = output_covariance(pair, v_th, v_loss=v_th)
    amp = AmplifierModel.uniform(2, gain, n_add)
    v_on = amplify(v_out, amp)
    v_off = amplify(thermal_covariance(PAIR, temperature), amp)
    deltas = TWO_PI * np.linspace(-60e3, 60e3, 41)
    c_meas = c_lineshape(deltas, gain, eps, PAIR, temperature)
    return v_on, v_off, deltas, c_meas


def test_ppt_temperature_sweep_monotone_with_crossing():
    v_on, v_off, deltas, c_meas = sweep_inputs()
    temps = np.linspace(0.05, 0.8, 76)
    lambdas, crossing = ppt_temperature_sweep(v_on, v_off, deltas, c_meas, PAIR, temps)
    assert np.all(np.diff(lambdas) > 0.0)
    assert lambdas[0] < 0.0 < lambdas[-1]
    # frozen reference for this synthetic scenario
    assert crossing == pytest.approx(0.11991209182258858, abs=1e-6)
    with pytest.raises(InsufficientDataError):
        ppt_temperature_sweep(v_on, v_off, deltas, c_meas, PAIR, temps[:1])
    with pytest.raises(ValueError):
        ppt_temperature_sweep(
            v_on, v_off, deltas, c_meas, PAIR, np.array([0.1, 0.1, 0.2])
        )


@pytest.mark.parametrize("noise_seed", [None, 4])
def test_ppt_temperature_sweep_crossing_matches_brentq(noise_seed):
    v_on, v_off, deltas, c_meas = sweep_inputs()
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        c_meas = c_meas * (1.0 + 0.005 * rng.standard_normal(c_meas.size))
    temps = np.linspace(0.05, 0.8, 11)
    lambdas, crossing = ppt_temperature_sweep(v_on, v_off, deltas, c_meas, PAIR, temps)

    def lam(t):
        fit = fit_gain_from_correlations(deltas, c_meas, PAIR, t)
        added = added_noise_from_pump_off(v_off, fit.gain, PAIR, t)
        amp = AmplifierModel.uniform(2, fit.gain, added)
        return ppt_min_eigenvalue(deamplify(CovarianceMatrix(2, v_on.v), amp), [1])

    i = int(np.nonzero(np.diff(np.sign(lambdas)))[0][0])
    assert crossing == pytest.approx(brentq(lam, temps[i], temps[i + 1], xtol=1e-9), abs=1e-7)


def test_calibration_store_roundtrip(tmp_path):
    store = CalibrationStore(
        gain=1e8,
        added_photons=0.08,
        sigma_gain=1e6,
        sigma_noise=0.004,
        cov_gain_noise=-120.0,
        eps=TWO_PI * 6e3,
        sigma_eps=50.0,
        meta={"source": "unit-test"},
    )
    path = tmp_path / "cal.json"
    _write_json(path, asdict(store))
    back = CalibrationStore.from_json(path)
    assert back == store
    amp = back.amplifier(4)
    assert amp.n_modes == 4
    assert amp.sigma_gain == pytest.approx(np.full(4, 1e6))
