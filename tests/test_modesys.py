"""Mode, mirror, and pump definitions plus the microscopic coupling chain."""

import numpy as np
import pytest
from scipy.constants import hbar as HBAR

from modecomb import (
    GAAS_REFERENCE,
    DegenerateModeError,
    MirrorSpec,
    ModeSpec,
    ModeSystem,
    PumpTone,
    effective_couplings,
    estimate_vacuum_coupling,
    parametric_coupling,
    pump_amplitude,
)

TWO_PI = 2.0 * np.pi


def test_mode_from_hz_roundtrip():
    m = ModeSpec.from_hz(0, 3.8245e9, 36e3, 4e3)
    assert m.omega == pytest.approx(TWO_PI * 3.8245e9, rel=1e-15)
    assert m.gamma_ext == pytest.approx(TWO_PI * 36e3, rel=1e-15)
    assert m.gamma_int == pytest.approx(TWO_PI * 4e3, rel=1e-15)
    assert m.gamma_tot == pytest.approx(m.gamma_ext + m.gamma_int, rel=1e-15)


def test_mode_validation():
    with pytest.raises(ValueError):
        ModeSpec(0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModeSpec(0, 1.0, -1.0, 1.0)
    # zero total loss leaves the mode unprobable
    with pytest.raises(ValueError):
        ModeSpec(0, 1.0, 0.0, 0.0)


def test_pump_tone_flux_range():
    PumpTone.from_hz(3.83e9, phi_ac=0.49)
    with pytest.raises(ValueError):
        PumpTone.from_hz(3.83e9, phi_ac=0.5)
    with pytest.raises(ValueError):
        PumpTone.from_hz(3.83e9, phi_ac=-0.01)
    with pytest.raises(ValueError):
        PumpTone(0.0)


def test_mode_system_ordering():
    mirror = MirrorSpec.from_hz(8.0e9, 1.6e6)
    good = [ModeSpec.from_hz(j, 3.8e9 + j * 13e6, 20e3, 20e3) for j in range(3)]
    sys_ = ModeSystem(tuple(good), mirror)
    assert len(sys_.modes) == 3
    assert np.all(np.diff([m.omega for m in sys_.modes]) > 0)
    assert [m.gamma_ext for m in sys_.modes] == pytest.approx(np.full(3, TWO_PI * 20e3))
    with pytest.raises(ValueError):
        ModeSystem(tuple(reversed(good)), mirror)
    dup = [good[0], ModeSpec.from_hz(0, 3.9e9, 20e3, 20e3)]
    with pytest.raises(ValueError):
        ModeSystem(tuple(dup), mirror)


def test_effective_couplings_formula():
    mirror = MirrorSpec.from_hz(8.0e9, 1.6e6)
    modes = [ModeSpec.from_hz(j, 3.8e9 + j * 13e6, 20e3, 20e3) for j in range(4)]
    g_tilde, g_bar = effective_couplings(mirror, modes)
    w = np.array([m.omega for m in modes])
    denom = mirror.omega_lc**2 - w**2
    assert g_tilde == pytest.approx(-2.0 * mirror.g_vac * w / denom, rel=1e-14)
    assert g_bar == pytest.approx(2.0 * mirror.g_vac * mirror.omega_lc / denom, rel=1e-14)
    # the two participation factors always carry opposite sign
    assert np.all(g_tilde * g_bar < 0)


def test_effective_couplings_degeneracy_guard():
    mirror = MirrorSpec.from_hz(3.8e9, 1.6e6)
    modes = [ModeSpec.from_hz(0, 3.8e9, 20e3, 20e3)]
    with pytest.raises(DegenerateModeError):
        effective_couplings(mirror, modes)


def test_pump_amplitude_formula():
    mirror = MirrorSpec.from_hz(8.0e9, 1.6e6)
    tone = PumpTone.from_hz(3.83e9, phi_ac=0.1)
    expected = HBAR * mirror.omega_lc * (np.pi * 0.1 / 2.0) ** 2 / 2.0
    assert pump_amplitude(mirror, tone) == pytest.approx(expected, rel=1e-12)
    assert pump_amplitude(mirror, PumpTone.from_hz(3.83e9, phi_ac=0.0)) == 0.0


def test_parametric_coupling_formula():
    d = 2.5e-27
    gj, gk = 0.012, -0.019
    eps = parametric_coupling(d, gj, gk, theta=0.3)
    assert eps == pytest.approx(
        d * gj * gk / (2.0 * HBAR) * np.exp(-2.0j * 0.3), rel=1e-12
    )
    # symmetric in the mode arguments
    assert parametric_coupling(d, gk, gj, theta=0.3) == pytest.approx(eps, rel=1e-12)
    with pytest.raises(ValueError):
        parametric_coupling(-1.0, gj, gk)


def test_vacuum_coupling_reference_device():
    g = estimate_vacuum_coupling(GAAS_REFERENCE)
    # frozen reference value for the GaAs device parameters
    assert g / TWO_PI == pytest.approx(1588325.9425010516, rel=1e-9)
    assert 1.4e6 < g / TWO_PI < 1.8e6
