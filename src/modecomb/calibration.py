"""Measurement-chain calibration: gain, added noise, and their uncertainties.

Three independent handles on the chain calibration, in the order they are
usually taken:

* Planck thermometry: output power of a matched load swept in temperature
  fits the chain power gain and the system noise in one pass.
* Pumped cross-correlations: the vacuum two-mode correlation amplitude
  C(delta) has a known lineshape; its amplified magnitude fits (G, eps).
* Pump-off covariance: with the pump off the resonator emits pure thermal
  noise, pinning the amplifier added-photon number given the gain.

Both fitted models are linear in the gain, so the Planck fit is solved in
closed form and the correlation fit reduces to a search in eps alone.  A
calibrated AmplifierModel then de-embeds measured covariances, and a
temperature sweep of the partial-transposition eigenvalue locates the
separability crossing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import hbar as _HBAR
from .constants import k as _KB
from .coupling_graph import dressed_frequencies
from .errors import (
    DimensionMismatchError,
    FitDivergedError,
    InsufficientDataError,
    MissingFitCovarianceError,
    NegativeNoiseError,
)
from .gaussian_state import (
    AmplifierModel,
    amplify,
    bose_occupation,
    correlation_quantity,
    deamplify,
    output_covariance,
    thermal_covariance,
)
from .scattering import network


# ---------------------------------------------------------------------------
# Planck thermometry


@dataclass
class PlanckFitResult:
    """Planck-spectroscopy fit: chain gain, added photons, fit covariance."""

    gain: float
    added_photons: float
    sigma_gain: float
    sigma_noise: float
    cov_gain_noise: float
    residuals: np.ndarray

    def amplifier(self, n_modes):
        return AmplifierModel.uniform(
            n_modes,
            self.gain,
            self.added_photons,
            sigma_gain=self.sigma_gain,
            sigma_noise=self.sigma_noise,
            cov_gain_noise=self.cov_gain_noise,
        )


@dataclass
class CorrelationFitResult:
    """Correlation-lineshape fit: chain gain, pair coupling, fit covariance."""

    gain: float
    eps: float
    sigma_gain: float
    sigma_eps: float
    cov_gain_eps: float
    residuals: np.ndarray


def planck_power(temperature, gain, added_photons, frequency, bandwidth=1.0):
    """Chain output power of a matched thermal load at ``temperature``.

    P = G h f B [ coth(h f / 2 kB T) / 2 + (2 n + 1) / 2 ],

    symmetrized-quadrature convention: the load contributes (2 n_th + 1)/2
    photons-per-mode-equivalents and the chain adds (2 n + 1)/2 on top.
    The T -> 0 intercept is G h f B (1 + (2 n + 1)) / 2 and the high-T slope
    is G kB B, which is what makes the pair (G, n) identifiable.
    """
    scalar = np.isscalar(temperature)
    temperature = np.atleast_1d(np.asarray(temperature, dtype=float))
    hf = _HBAR * 2.0 * np.pi * frequency
    power = gain * hf * bandwidth * 0.5 * (_coth(temperature, hf) + (2.0 * added_photons + 1.0))
    return float(power[0]) if scalar else power


def _coth(temperature, hf):
    """coth(hf / 2 kB T), safely 1 at T = 0 where the ratio diverges."""
    ratio = np.full(temperature.shape, np.inf)
    np.divide(hf, 2.0 * _KB * temperature, out=ratio, where=temperature > 0.0)
    return 1.0 / np.tanh(ratio)


def _normal_inverse(jac, message):
    """(J^T J)^-1 from the SVD of ``jac``; raises when ``jac`` is rank deficient."""
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    if not s[-1] > np.finfo(float).eps * max(jac.shape) * s[0]:
        raise MissingFitCovarianceError(message)
    return (vt.T / s**2) @ vt


def planck_fit(temperatures, powers, frequency, bandwidth=1.0, sigma=None, absolute_sigma=False):
    """Fit (gain, added photons) to a power-vs-temperature sweep.

    The model is linear in (alpha, beta) = (G, G(2n+1)), with design
    [coth, 1] h f B / 2, so weighted linear least squares gives the optimum
    in closed form; the (G, n) covariance follows through the Jacobian of
    that change of variables.  It is scaled by the reduced chi-square
    unless ``absolute_sigma`` is set.  For multiplicative power noise pass
    per-point ``sigma`` (same shape as ``powers``) so the low-temperature
    points keep their full leverage on the added-noise intercept.
    """
    temperatures = np.asarray(temperatures, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if temperatures.shape != powers.shape or temperatures.ndim != 1:
        raise DimensionMismatchError("temperatures and powers must be matching 1-d arrays")
    if temperatures.size < 3:
        raise InsufficientDataError("need at least three sweep points to fit two parameters")

    hf = _HBAR * 2.0 * np.pi * frequency
    unit = 0.5 * hf * bandwidth
    weight = 1.0 / np.broadcast_to(1.0 if sigma is None else sigma, powers.shape)
    # solved in units of h f B / 2, so the design is O(1)
    design = np.column_stack([_coth(temperatures, hf), np.ones_like(powers)]) * weight[:, None]
    cov_ab = _normal_inverse(
        design, "Planck fit covariance is singular; sweep does not constrain both parameters"
    ) / unit**2
    alpha, beta = cov_ab @ (design.T @ (powers * weight)) * unit
    gain, noise = alpha, 0.5 * (beta / alpha - 1.0)
    residuals = powers - planck_power(temperatures, gain, noise, frequency, bandwidth)
    jac = np.array([[1.0, 0.0], [-0.5 * beta / alpha**2, 0.5 / alpha]])  # d(G, n) / d(alpha, beta)
    pcov = jac @ cov_ab @ jac.T
    if not absolute_sigma:
        pcov = pcov * np.sum((residuals * weight) ** 2) / (powers.size - 2)
    sig = np.sqrt(np.diag(pcov))
    return PlanckFitResult(
        gain=float(gain),
        added_photons=float(noise),
        sigma_gain=float(sig[0]),
        sigma_noise=float(sig[1]),
        cov_gain_noise=float(pcov[0, 1]),
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# Pumped-correlation lineshape


def c_lineshape(deltas, gain, eps, modes, temperature):
    """Amplified two-mode correlation amplitude C versus probe detuning.

    Full forward model: thermal input at ``temperature`` on both the signal
    and internal-loss ports, one pump coupling the pair, amplification by
    ``gain`` on both modes, then the cross-block correlation quantity.
    Probing the pair symmetrically at +-delta from the (shifted) resonances
    keeps the pump frame consistent: Delta_1 = delta + i g1/2 and
    Delta_2 = -delta + i g2/2.  All detunings are solved as one stack; the
    result has the shape of ``deltas``.
    """
    deltas = np.asarray(deltas, dtype=float)
    if len(modes) != 2:
        raise DimensionMismatchError("the correlation lineshape is a two-mode model")
    couplings = {(0, 1): eps}
    v_th = thermal_covariance(modes, temperature)
    amp = AmplifierModel.uniform(2, max(gain, 1.0), 0.0)
    probe = dressed_frequencies(modes, couplings) + deltas[..., None] * np.array([1.0, -1.0])
    pair = network(modes, couplings, probe).to_quadrature()
    v = output_covariance(pair, v_th, v_loss=v_th)
    # the amplifier's added noise is diagonal, so it drops out of C
    return np.reshape(correlation_quantity(amplify(v, amp)), deltas.shape)


_MAX_STEPS = 60  # eps steps of the correlation fit; bisection alone needs ~30
# eps tolerance of the correlation fit, relative to its bound.  At the optimum
# the steps are roundoff of up to ~2.4e-10 (temp-sweep inputs, seeds 1-30); a
# tolerance at that floor made the number of steps depend on the last bits.
_EPS_XTOL = 1e-9


def fit_gain_from_correlations(deltas, c_measured, modes, temperature, p0=None):
    """Fit (gain, eps) to a measured correlation lineshape.

    ``temperature`` is the assumed effective input temperature; it is held
    fixed, not fitted.  ``eps`` is bounded below the parametric instability
    at sqrt(gamma_tot_1 gamma_tot_2) / 2, and the gain below by 1.

    The lineshape is linear in the gain, C = G c1(eps) with c1 the unit-gain
    lineshape, so G is eliminated as G*(eps) = max(1, <c1, C> / <c1, c1>)
    (variable projection).  The remaining one-dimensional fit in eps takes
    Gauss-Newton steps with dc1/deps from a forward difference, each one
    safeguarded by bisection on the sign of the gradient.  ``p0[1]`` seeds
    eps.  The covariance comes from the two-parameter Jacobian
    [c1, G dc1/deps] at the solution, scaled by the reduced chi-square.
    """
    deltas = np.asarray(deltas, dtype=float)
    c_measured = np.asarray(c_measured, dtype=float)
    if deltas.shape != c_measured.shape or deltas.ndim != 1:
        raise DimensionMismatchError("deltas and c_measured must be matching 1-d arrays")
    if deltas.size < 3:
        raise InsufficientDataError("need at least three detuning points")

    eps_max = 0.999 * np.sqrt(modes[0].gamma_tot * modes[1].gamma_tot) / 2.0
    h = np.sqrt(np.finfo(float).eps) * eps_max
    lo, hi = 0.0, eps_max - h
    eps = float(np.clip(0.5 * eps_max if p0 is None else p0[1], lo, hi))
    for _ in range(_MAX_STEPS):
        c1 = c_lineshape(deltas, 1.0, eps, modes, temperature)
        dc1 = (c_lineshape(deltas, 1.0, eps + h, modes, temperature) - c1) / h
        c1c1 = c1 @ c1
        gain = max(1.0, c1 @ c_measured / c1c1) if c1c1 > 0.0 else 1.0
        residuals = c_measured - gain * c1
        # the gain's own column is projected out unless it sits on its bound
        q = dc1 if gain == 1.0 else dc1 - c1 * (c1 @ dc1) / c1c1
        slope = dc1 @ residuals  # -d(SSR)/d(eps) / 2G
        if slope > 0.0:
            lo = eps
        else:
            hi = eps
        step = slope / (gain * (q @ q))
        if abs(step) <= _EPS_XTOL * eps_max or hi - lo <= _EPS_XTOL * eps_max:
            break
        eps = eps + step if lo < eps + step < hi else 0.5 * (lo + hi)
    else:
        raise FitDivergedError(
            f"correlation-lineshape fit did not converge in {_MAX_STEPS} steps"
        )
    jac = np.column_stack([c1, gain * dc1])
    pcov = _normal_inverse(jac, "correlation fit covariance is singular")
    pcov = pcov * (residuals @ residuals) / (deltas.size - 2)
    sig = np.sqrt(np.diag(pcov))
    return CorrelationFitResult(
        gain=float(gain),
        eps=float(eps),
        sigma_gain=float(sig[0]),
        sigma_eps=float(sig[1]),
        cov_gain_eps=float(pcov[0, 1]),
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# Pump-off added noise


def added_noise_from_pump_off(v_off, gain, modes, temperature):
    """Amplifier added photons from a pump-off covariance measurement.

    With the pump off the de-embedded state is thermal at the fridge
    temperature, so each measured diagonal reads
    V_meas_ii = G (2 n_th + 1) + (G - 1)(2 n + 1); solve for n and average
    across quadratures.  Raises NegativeNoiseError when the inversion lands
    below zero, which indicates an inconsistent gain or temperature.
    """
    v = v_off.v
    if len(modes) != v_off.n_modes:
        raise DimensionMismatchError("mode list does not match the covariance size")
    if gain <= 1.0:
        raise ValueError("chain gain must exceed unity to solve for added noise")
    est = []
    for j, mode in enumerate(modes):
        therm = 2.0 * bose_occupation(mode.omega, temperature) + 1.0
        for q in (2 * j, 2 * j + 1):
            est.append(((v[q, q] - gain * therm) / (gain - 1.0) - 1.0) / 2.0)
    n = float(np.mean(est))
    if n < 0.0:
        raise NegativeNoiseError(
            f"pump-off inversion gives negative added noise ({n:.3g}); "
            "gain or temperature calibration is inconsistent"
        )
    return n


# ---------------------------------------------------------------------------
# Temperature sweep of the two-mode entanglement


def ppt_temperature_sweep(v_meas_on, v_off, deltas, c_measured, modes, temperatures):
    """Partial-transposition eigenvalue versus assumed input temperature.

    At each temperature T the chain calibration is redone under that
    assumption: (G, eps) refit to the measured correlation lineshape
    ``(deltas, c_measured)``, the added noise re-derived from the pump-off
    covariance ``v_off``, the pump-on ``v_meas_on`` de-embedded, and the
    minimum PPT eigenvalue recorded.  Hotter assumed inputs explain the
    same data with less gain, so the de-embedded state grows noisier and
    the eigenvalue rises.

    Returns (lambdas, crossing) where ``crossing`` is the temperature at
    which the eigenvalue changes sign (None when it never does).
    """
    if v_meas_on.n_modes != 2:
        raise DimensionMismatchError("the sweep is defined for two-mode states")
    temperatures = np.asarray(temperatures, dtype=float)
    if temperatures.size < 2:
        raise InsufficientDataError("need at least two sweep temperatures")
    if np.any(np.diff(temperatures) <= 0.0):
        raise ValueError("sweep temperatures must be strictly increasing")

    from .entanglement import ppt_min_eigenvalue  # local import avoids a cycle

    warm = {"p0": None}

    def lam_at(t):
        fit = fit_gain_from_correlations(
            deltas, c_measured, modes, t, p0=warm["p0"]
        )
        warm["p0"] = (fit.gain, fit.eps)
        added = added_noise_from_pump_off(v_off, fit.gain, modes, t)
        amp = AmplifierModel.uniform(2, fit.gain, added)
        return ppt_min_eigenvalue(deamplify(v_meas_on, amp), [1])

    lambdas = np.array([lam_at(t) for t in temperatures])

    flips = np.nonzero(np.diff(np.sign(lambdas)))[0]
    if not flips.size:
        return lambdas, None
    # Illinois false position on the first bracket, from its grid values
    i = int(flips[0])
    (a, b), (fa, fb) = temperatures[i : i + 2], lambdas[i : i + 2]
    side = 0
    while True:
        t = (a * fb - b * fa) / (fb - fa)  # the end where fa or fb is 0
        if b - a <= 1e-7 or fa == 0.0 or fb == 0.0:
            return lambdas, float(t)
        ft = lam_at(t)
        if np.sign(ft) == np.sign(fb):
            b, fb = t, ft
            fa = fa / 2.0 if side == 1 else fa
            side = 1
        else:
            a, fa = t, ft
            fb = fb / 2.0 if side == -1 else fb
            side = -1


# ---------------------------------------------------------------------------
# Persistence


@dataclass
class CalibrationStore:
    """Serializable bundle of chain-calibration results."""

    gain: float
    added_photons: float
    sigma_gain: float = 0.0
    sigma_noise: float = 0.0
    cov_gain_noise: float = 0.0
    eps: Optional[float] = None
    sigma_eps: Optional[float] = None
    meta: dict = field(default_factory=dict)

    # same fields as a Planck fit, so the same uniform chain
    amplifier = PlanckFitResult.amplifier

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            payload = json.load(fh)
        return cls(**payload)
