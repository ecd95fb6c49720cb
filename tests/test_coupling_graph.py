"""Four-wave matching, coupling-matrix assembly, and probe-frame assignment."""

import numpy as np
import pytest

from modecomb import (
    DimensionMismatchError,
    FourWaveMatch,
    MirrorSpec,
    ModeSpec,
    ModeSystem,
    PumpTone,
    assign_probe_frequencies,
    build_coupling_matrix,
    default_tolerance,
    dressed_frequencies,
    match_four_wave,
    mode_frequency_shifts,
    pair_couplings,
)

TWO_PI = 2.0 * np.pi


def structure_residual(cm):
    """Max deviation of ``cm.m`` from the [[A, B], [-conj(B), -conj(A)]] structure."""
    n = cm.n_modes
    a, b = cm.m[..., :n, :n], cm.m[..., :n, n:]
    return float(max(
        np.max(np.abs(cm.m[..., n:, :n] + np.conj(b))),
        np.max(np.abs(cm.m[..., n:, n:] + np.conj(a))),
        np.max(np.abs(b - np.swapaxes(b, -1, -2))),
        np.max(np.abs(a * (1.0 - np.eye(n)))),
    ))


def make_modes(freqs_hz, loss_ext_hz=20e3, loss_int_hz=20e3):
    return [
        ModeSpec.from_hz(j, f, loss_ext_hz, loss_int_hz) for j, f in enumerate(freqs_hz)
    ]


def test_default_tolerance_is_half_min_linewidth():
    modes = [
        ModeSpec.from_hz(0, 3.80e9, 10e3, 5e3),
        ModeSpec.from_hz(1, 3.81e9, 40e3, 40e3),
    ]
    assert default_tolerance(modes) == pytest.approx(TWO_PI * 15e3 / 2.0, rel=1e-12)


def test_match_four_wave_hits_and_misses():
    modes = make_modes([3.8245e9, 3.8375e9])
    mid = (3.8245e9 + 3.8375e9) / 2.0
    matches = match_four_wave(modes, [PumpTone.from_hz(mid)])
    assert len(matches) == 1
    mt = matches[0]
    assert (mt.pump_index, mt.mode_j, mt.mode_k) == (0, 0, 1)
    assert abs(mt.mismatch) < 1e-3
    # a pump 1 MHz off the pair condition finds nothing at default tolerance
    assert match_four_wave(modes, [PumpTone.from_hz(mid + 1e6)]) == []


def test_match_four_wave_degenerate_pair():
    modes = make_modes([3.8245e9, 3.8375e9])
    matches = match_four_wave(modes, [PumpTone.from_hz(3.8245e9)])
    assert any(m.mode_j == m.mode_k == 0 for m in matches)


def test_match_tolerance_widening_is_monotone():
    modes = make_modes([3.8245e9, 3.8375e9, 3.8506e9])
    pumps = [PumpTone.from_hz(3.8310e9), PumpTone.from_hz(3.8441e9)]
    narrow = match_four_wave(modes, pumps, tolerance=TWO_PI * 1e3)
    wide = match_four_wave(modes, pumps, tolerance=TWO_PI * 500e3)
    assert set(narrow) <= set(wide)
    with pytest.raises(ValueError):
        match_four_wave(modes, pumps, tolerance=-1.0)


def test_pair_couplings_add_coherently():
    mirror = MirrorSpec.from_hz(8.0e9, 1.6e6)
    modes = make_modes([3.8245e9, 3.8375e9])
    mid = (3.8245e9 + 3.8375e9) / 2.0
    p0 = PumpTone.from_hz(mid, phi_ac=0.05, theta=0.0)
    p1 = PumpTone.from_hz(mid, phi_ac=0.05, theta=0.7)
    single = pair_couplings(modes, [p0], mirror, match_four_wave(modes, [p0]))
    both = pair_couplings(
        modes, [p0, p1], mirror, match_four_wave(modes, [p0, p1])
    )
    eps0 = single[(0, 1)]
    expected = eps0 * (1.0 + np.exp(-2.0j * 0.7))
    assert both[(0, 1)] == pytest.approx(expected, rel=1e-12)


def test_mode_frequency_shifts():
    eps = TWO_PI * 30e3
    coup = {(0, 1): eps, (1, 2): eps, (2, 3): eps, (0, 3): eps}
    shifts = mode_frequency_shifts(4, coup)
    # two matches per mode in the ring comb
    assert shifts == pytest.approx(np.full(4, 4.0 * eps), rel=1e-12)
    # a degenerate pair contributes once
    assert mode_frequency_shifts(1, {(0, 0): eps})[0] == pytest.approx(2.0 * eps)


def test_coupling_matrix_on_resonance_probe():
    modes = make_modes([3.8245e9, 3.8375e9])
    eps = TWO_PI * (10e3 + 3e3j)
    cm = build_coupling_matrix(modes, couplings={(0, 1): eps})
    gtot = np.array([m.gamma_tot for m in modes])
    # probing on the shifted resonances leaves only the linewidth on the diagonal
    assert cm.probe_detunings == pytest.approx(0.5j * gtot, rel=1e-14)
    b_block = cm.m[:2, 2:]
    assert b_block[0, 1] == pytest.approx(-eps, rel=1e-14)
    assert b_block[1, 0] == pytest.approx(-eps, rel=1e-14)
    assert structure_residual(cm) < 1e-12


def test_coupling_matrix_bare_frequency_probe():
    modes = make_modes([3.8245e9, 3.8375e9])
    eps = TWO_PI * 10e3
    omegas = np.array([m.omega for m in modes])
    cm = build_coupling_matrix(modes, probe_omegas=omegas, couplings={(0, 1): eps})
    gtot = np.array([m.gamma_tot for m in modes])
    # probing at the bare frequency exposes the pump-induced shift
    expected = 2.0 * eps + 0.5j * gtot
    assert cm.probe_detunings == pytest.approx(expected, rel=1e-14)


def test_coupling_matrix_input_validation():
    modes = make_modes([3.8245e9, 3.8375e9])
    with pytest.raises(DimensionMismatchError):
        build_coupling_matrix(modes, couplings={(1, 0): 1.0})
    with pytest.raises(DimensionMismatchError):
        build_coupling_matrix(modes, couplings={(0, 2): 1.0})
    with pytest.raises(DimensionMismatchError):
        build_coupling_matrix(modes, probe_omegas=[1.0], couplings={(0, 1): 1.0})


def test_coupling_matrix_from_mode_system():
    system = ModeSystem(tuple(make_modes([3.8245e9, 3.8375e9])),
                        MirrorSpec.from_hz(8.0e9, 1.6e6))
    mid = (3.8245e9 + 3.8375e9) / 2.0
    pumps = [PumpTone.from_hz(mid, phi_ac=0.08)]
    # flux-derived couplings enter the matrix like explicit ones
    couplings = pair_couplings(system.modes, pumps, system.mirror,
                               match_four_wave(system.modes, pumps))
    cm = build_coupling_matrix(system.modes, couplings)
    assert cm.n_modes == 2
    assert abs(cm.couplings[(0, 1)]) > 0
    assert cm.m[:2, 2:][0, 1] == -couplings[(0, 1)]
    assert structure_residual(cm) < 1e-12


def test_dressed_frequencies_subtract_the_pump_shift():
    modes = make_modes([3.8245e9, 3.8375e9])
    eps = TWO_PI * (10e3 - 7e3j)
    omegas = np.array([m.omega for m in modes])
    assert np.array_equal(dressed_frequencies(modes, {(0, 1): eps}),
                          omegas - 2.0 * abs(eps))
    assert np.array_equal(dressed_frequencies(modes, {}), omegas)


def test_assign_probe_frequencies_frame_condition():
    modes = make_modes([3.8245e9, 3.8375e9, 3.8506e9, 3.8638e9])
    pumps = [
        PumpTone.from_hz((3.8245e9 + 3.8375e9) / 2.0),
        PumpTone.from_hz((3.8375e9 + 3.8506e9) / 2.0),
        PumpTone.from_hz((3.8506e9 + 3.8638e9) / 2.0),
    ]
    matches = match_four_wave(modes, pumps)
    eps = TWO_PI * 30e3
    coup = {(m.mode_j, m.mode_k): eps for m in matches}
    omegas, residuals = assign_probe_frequencies(modes, matches, coup)
    assert residuals == {}
    shifts = mode_frequency_shifts(4, coup)
    dressed = np.array([m.omega for m in modes]) - shifts
    assert omegas[0] == pytest.approx(dressed[0], rel=1e-15)
    for mt in matches:
        two_wp = mt.mismatch + modes[mt.mode_j].omega + modes[mt.mode_k].omega
        assert omegas[mt.mode_j] + omegas[mt.mode_k] == pytest.approx(
            two_wp, rel=1e-15
        )


def test_assign_probe_frequencies_cycle_residual():
    modes = make_modes([3.8245e9, 3.8375e9, 3.8506e9])
    # edges 0-1 and 1-2 form the tree; an inconsistent 0-2 pump closes a cycle
    matches = [
        FourWaveMatch(0, 0, 1, 0.0),
        FourWaveMatch(1, 1, 2, 0.0),
        FourWaveMatch(2, 0, 2, TWO_PI * 5e3),
    ]
    _, residuals = assign_probe_frequencies(modes, matches)
    assert list(residuals) == [2]
    assert residuals[2] == pytest.approx(TWO_PI * 5e3, rel=1e-9)

