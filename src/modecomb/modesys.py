"""Mode system: resonator modes, the nonlinear mirror element, and pump tones.

All frequencies and loss rates are stored as angular quantities (rad/s).
``from_hz`` constructors accept ordinary frequencies in Hz and convert.

The mechanical modes couple to a lumped electrical resonance through a shared
nonlinear inductance. Eliminating the electrical mode to second order leaves
each mode with a dimensionless flux participation ``g_tilde_j`` and an
electrical admixture ``g_bar_j``:

    g_tilde_j = -2 g w_j  / (w_LC^2 - w_j^2)
    g_bar_j   =  2 g w_LC / (w_LC^2 - w_j^2)

A flux pump of amplitude ``d`` then couples mode pairs at rate

    eps_jk = (d g_tilde_j g_tilde_k / 2 hbar) exp(-2 i theta)

once the fast frame rotation is absorbed into the measurement frequencies.
"""

from dataclasses import dataclass

import numpy as np

from .constants import e as _E_CHARGE
from .constants import epsilon_0 as _EPS0
from .constants import flux_quantum as _PHI0
from .constants import hbar as _HBAR
from .errors import DegenerateModeError, DimensionMismatchError

# Minimum electrical/mechanical separation for the second-order elimination
# to stay meaningful, in rad/s.
DEGENERACY_GUARD = 1e6


@dataclass(frozen=True)
class ModeSpec:
    """One resonator mode.

    Attributes
    ----------
    index : int
        Position of the mode in the analyzed comb.
    omega : float
        Angular mode frequency (rad/s).
    gamma_ext : float
        External (measured port) angular loss rate (rad/s).
    gamma_int : float
        Internal angular loss rate (rad/s).
    """

    index: int
    omega: float
    gamma_ext: float
    gamma_int: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"mode {self.index}: omega must be positive")
        if self.gamma_ext < 0 or self.gamma_int < 0:
            raise ValueError(f"mode {self.index}: loss rates must be non-negative")
        if self.gamma_ext + self.gamma_int <= 0:
            raise ValueError(f"mode {self.index}: total loss must be positive")

    @property
    def gamma_tot(self):
        return self.gamma_ext + self.gamma_int

    @classmethod
    def from_hz(cls, index, freq_hz, loss_ext_hz, loss_int_hz):
        two_pi = 2.0 * np.pi
        return cls(index, two_pi * freq_hz, two_pi * loss_ext_hz, two_pi * loss_int_hz)


@dataclass(frozen=True)
class MirrorSpec:
    """The electrical resonance terminating the acoustic cavity.

    Attributes
    ----------
    omega_lc : float
        Angular frequency of the electrical resonance (rad/s).
    g_vac : float
        Vacuum coupling rate between flux and strain, angular (rad/s).
    """

    omega_lc: float
    g_vac: float

    def __post_init__(self):
        if self.omega_lc <= 0:
            raise ValueError("omega_lc must be positive")
        if self.g_vac <= 0:
            raise ValueError("g_vac must be positive")

    @classmethod
    def from_hz(cls, freq_lc_hz, coupling_vac_hz):
        return cls(2.0 * np.pi * freq_lc_hz, 2.0 * np.pi * coupling_vac_hz)


@dataclass(frozen=True)
class PumpTone:
    """A single flux-pump tone.

    Attributes
    ----------
    omega_p : float
        Angular pump frequency (rad/s). Mode pairs with
        ``w_j + w_k ~= 2 w_p`` are coupled.
    phi_ac : float
        Pump flux amplitude as a fraction of the flux quantum.
    theta : float
        Pump phase (rad); enters the pair coupling as ``exp(-2 i theta)``.
    """

    omega_p: float
    phi_ac: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.omega_p <= 0:
            raise ValueError("pump frequency must be positive")
        if not 0.0 <= self.phi_ac < 0.5:
            raise ValueError("phi_ac must lie in [0, 0.5) flux quanta")

    @classmethod
    def from_hz(cls, freq_hz, phi_ac=0.0, theta=0.0):
        return cls(2.0 * np.pi * freq_hz, phi_ac, theta)


@dataclass(frozen=True)
class MaterialParams:
    """Device parameters entering the vacuum-coupling estimate.

    Attributes
    ----------
    e14 : float
        Piezoelectric constant (C/m^2).
    eps : float
        Dielectric permittivity (F/m).
    rho : float
        Mass density (kg/m^3).
    v_saw : float
        Surface wave velocity (m/s).
    area : float
        Effective acoustic mode area (m^2).
    l_p : float
        Mirror penetration depth (m).
    l_m : float
        Total mirror length (m).
    e_l : float
        Inductive energy of the nonlinear element (J).
    e_c : float
        Charging energy of the electrical resonance (J).
    """

    e14: float
    eps: float
    rho: float
    v_saw: float
    area: float
    l_p: float
    l_m: float
    e_l: float
    e_c: float

    def __post_init__(self):
        for name in ("eps", "rho", "v_saw", "area", "l_p", "l_m", "e_l", "e_c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# GaAs reference set; mirror geometry from a 275-period grating at 736 nm pitch,
# junction inductance 1.7 nH, shunt capacitance 3.3 pF.
GAAS_REFERENCE = MaterialParams(
    e14=0.145,
    eps=12.9 * _EPS0,
    rho=5317.0,
    v_saw=2864.0,
    area=100e-6 * 560e-6,
    l_p=14e-6,
    l_m=275 * 736e-9,
    e_l=(_PHI0 / (2.0 * np.pi)) ** 2 / 1.7e-9,
    e_c=_E_CHARGE**2 / (2.0 * 3.3e-12),
)


@dataclass(frozen=True)
class ModeSystem:
    """Modes plus the shared mirror, validated as a unit.

    Modes must be sorted by frequency with unique indices.
    """

    modes: tuple
    mirror: MirrorSpec

    def __post_init__(self):
        if len(self.modes) == 0:
            raise DimensionMismatchError("a mode system needs at least one mode")
        omegas = [m.omega for m in self.modes]
        if any(b <= a for a, b in zip(omegas, omegas[1:])):
            raise ValueError("modes must be sorted by strictly increasing frequency")
        indices = [m.index for m in self.modes]
        if len(set(indices)) != len(indices):
            raise ValueError("mode indices must be unique")


def effective_couplings(mirror, modes):
    """Second-order participation factors of each mode.

    Parameters
    ----------
    mirror : MirrorSpec
    modes : sequence of ModeSpec

    Returns
    -------
    g_tilde, g_bar : ndarray
        Dimensionless arrays, one entry per mode. Their product is negative
        for every mode: the denominator flips sign across the electrical
        resonance but the two numerators always carry opposite relative sign.

    Raises
    ------
    DegenerateModeError
        If any mode lies within ``DEGENERACY_GUARD`` rad/s of ``omega_lc``.
    """
    w_lc = mirror.omega_lc
    w = np.array([m.omega for m in modes], dtype=float)
    if np.any(np.abs(w - w_lc) < DEGENERACY_GUARD):
        offender = int(np.argmin(np.abs(w - w_lc)))
        raise DegenerateModeError(
            f"mode {modes[offender].index} within {DEGENERACY_GUARD:.0e} rad/s of the "
            "electrical resonance; the dispersive elimination breaks down"
        )
    denom = w_lc**2 - w**2
    g_tilde = -2.0 * mirror.g_vac * w / denom
    g_bar = 2.0 * mirror.g_vac * w_lc / denom
    return g_tilde, g_bar


def estimate_vacuum_coupling(material):
    """Vacuum flux-strain coupling rate g (rad/s) from device parameters.

    Combines the zero-point piezoelectric potential

        phi_0 = (e14 / eps) sqrt(hbar / (2 rho v_saw area))

    with the zero-point charge scale of the electrical resonance

        q_0 = 2 e beta (e_l / 32 e_c)^(1/4),   beta = l_p / l_m,

    giving hbar g = phi_0 q_0.
    """
    phi_0 = (material.e14 / material.eps) * np.sqrt(
        _HBAR / (2.0 * material.rho * material.v_saw * material.area)
    )
    beta = material.l_p / material.l_m
    q_0 = 2.0 * _E_CHARGE * beta * (material.e_l / (32.0 * material.e_c)) ** 0.25
    return phi_0 * q_0 / _HBAR


def pump_amplitude(mirror, tone):
    """Energy-scale amplitude d (J) of a flux pump tone.

    d = hbar w_LC (pi phi_ac / 2)^2 / 2 for a symmetric junction loop biased
    at the flux sweet spot.
    """
    return _HBAR * mirror.omega_lc * (np.pi * tone.phi_ac / 2.0) ** 2 / 2.0


def parametric_coupling(d, g_tilde_j, g_tilde_k, theta=0.0):
    """Complex pair-coupling rate eps_jk (rad/s).

    eps_jk = (d g_tilde_j g_tilde_k / 2 hbar) exp(-2 i theta). Symmetric in
    (j, k); j == k describes degenerate (single-mode) squeezing.
    """
    if d < 0:
        raise ValueError("pump amplitude must be non-negative")
    return (d * g_tilde_j * g_tilde_k / (2.0 * _HBAR)) * np.exp(-2.0j * theta)
