"""Input-output scattering matrices and their conservation identities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecomb import (
    DimensionMismatchError,
    ModeSpec,
    SingularMatrixError,
    UnstablePumpError,
    build_coupling_matrix,
    dressed_frequencies,
    network,
    output_covariance,
    pseudo_unitarity_residual,
    scattering_matrices,
    symplectic_residual,
    thermal_covariance,
)
from modecomb.scattering import magnitude_db
from test_coupling_graph import structure_residual

TWO_PI = 2.0 * np.pi


def two_mode_network(x, gamma_hz=40e3, gamma_int_hz=0.0, allow_unstable=False):
    """Symmetric pair probed on resonance with |eps| = x * gamma_tot / 2."""
    modes = [
        ModeSpec.from_hz(0, 3.8245e9, gamma_hz, gamma_int_hz),
        ModeSpec.from_hz(1, 3.8375e9, gamma_hz, gamma_int_hz),
    ]
    gtot = TWO_PI * (gamma_hz + gamma_int_hz)
    eps = x * gtot / 2.0
    cm = build_coupling_matrix(modes, couplings={(0, 1): eps})
    ge = np.full(2, TWO_PI * gamma_hz)
    gi = np.full(2, TWO_PI * gamma_int_hz)
    return scattering_matrices(cm, ge, gi, allow_unstable=allow_unstable)


def test_two_mode_reflection_closed_form():
    # on resonance: |S11| = (g^2/4 + e^2) / (g^2/4 - e^2) with g the total rate
    for x in np.linspace(0.0, 0.9, 19):
        pair = two_mode_network(x)
        expected = (1.0 + x**2) / (1.0 - x**2)
        assert abs(pair.s[0, 0]) == pytest.approx(expected, abs=1e-10)


def test_two_mode_anomalous_closed_form():
    # cross element to the conjugated partner: |S_1,2dag| = g e / (g^2/4 - e^2)
    gamma = TWO_PI * 40e3
    for x in (0.2, 0.5, 0.8):
        pair = two_mode_network(x)
        eps = x * gamma / 2.0
        expected = gamma * eps / (gamma**2 / 4.0 - eps**2)
        assert abs(pair.s[0, 3]) == pytest.approx(expected, rel=1e-12)


def test_gain_diverges_toward_threshold():
    pair = two_mode_network(0.99)
    assert abs(pair.s[0, 0]) ** 2 > 100.0


def test_lossless_symplectic_residual():
    for x in (0.0, 0.3, 0.75):
        pair = two_mode_network(x)
        assert symplectic_residual(pair.to_quadrature().s) < 1e-12


def test_lossy_pseudo_unitarity():
    pair = two_mode_network(0.5, gamma_int_hz=15e3)
    assert pseudo_unitarity_residual(pair) < 1e-12
    # loss channel carries weight, so S alone is not symplectic
    assert symplectic_residual(pair.to_quadrature().s) > 1e-3


def test_loss_matrix_vanishes_without_internal_loss():
    pair = two_mode_network(0.4)
    assert np.max(np.abs(pair.s_loss)) == 0.0


def test_instability_guard():
    with pytest.raises(UnstablePumpError):
        two_mode_network(1.01)
    # explicit override still produces a finite matrix beyond threshold
    pair = two_mode_network(1.2, allow_unstable=True)
    assert np.all(np.isfinite(pair.s))
    assert pseudo_unitarity_residual(pair) < 1e-10


def test_loss_rate_consistency_check():
    modes = [
        ModeSpec.from_hz(0, 3.8245e9, 20e3, 20e3),
        ModeSpec.from_hz(1, 3.8375e9, 20e3, 20e3),
    ]
    cm = build_coupling_matrix(modes, couplings={(0, 1): TWO_PI * 5e3})
    # total loss disagrees with the linewidths baked into the diagonal
    with pytest.raises(DimensionMismatchError):
        scattering_matrices(cm, np.full(2, TWO_PI * 40e3), np.full(2, TWO_PI * 40e3))
    # shape mismatch
    with pytest.raises(DimensionMismatchError):
        scattering_matrices(cm, np.full(3, TWO_PI * 20e3), np.zeros(3))
    # a consistent ext/int split of the same totals is accepted
    pair = scattering_matrices(cm, np.full(2, TWO_PI * 40e3), np.zeros(2))
    assert pseudo_unitarity_residual(pair) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000), st.booleans())
def test_random_networks_conserve_commutators(n, seed, lossless):
    """Any stable random network satisfies the scattering conservation law."""
    rng = np.random.default_rng(seed)
    freqs = 3.8e9 + np.sort(rng.uniform(0.0, 100e6, n))
    ge = rng.uniform(10e3, 40e3, n)
    gi = np.zeros(n) if lossless else rng.uniform(5e3, 30e3, n)
    modes = [ModeSpec.from_hz(j, freqs[j], ge[j], gi[j]) for j in range(n)]
    gtot = TWO_PI * (ge + gi)
    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    take = rng.choice(len(pairs), size=int(rng.integers(1, len(pairs) + 1)), replace=False)
    coup = {}
    for idx in take:
        j, k = pairs[idx]
        mag = rng.uniform(0.05, 1.0) * 0.45 * np.sqrt(gtot[j] * gtot[k]) / 2.0
        coup[(j, k)] = mag * np.exp(1j * rng.uniform(0.0, TWO_PI))
    # keep the per-mode pump load below threshold so the draw stays stable
    load = np.zeros(n)
    for (j, k), e in coup.items():
        load[j] += abs(e)
        if k != j:
            load[k] += abs(e)
    scale = max(1.0, float(np.max(load / (0.45 * gtot / 2.0))))
    coup = {jk: e / scale for jk, e in coup.items()}
    cm = build_coupling_matrix(modes, couplings=coup)
    pair = scattering_matrices(cm, TWO_PI * ge, TWO_PI * gi)
    assert pseudo_unitarity_residual(pair) < 1e-9
    if lossless:
        assert symplectic_residual(pair.to_quadrature().s) < 1e-9


def random_stable_network(rng, n):
    """Modes, couplings at most 0.45 of threshold per mode, and loss arrays."""
    freqs = 3.8e9 + np.sort(rng.uniform(0.0, 100e6, n))
    ge = rng.uniform(10e3, 40e3, n)
    gi = rng.uniform(0.0, 30e3, n)
    modes = [ModeSpec.from_hz(j, freqs[j], ge[j], gi[j]) for j in range(n)]
    gtot = TWO_PI * (ge + gi)
    coup = {}
    for j in range(n - 1):
        mag = 0.45 * rng.uniform(0.1, 1.0) * np.sqrt(gtot[j] * gtot[j + 1]) / 4.0
        coup[(j, j + 1)] = mag * np.exp(1j * rng.uniform(0.0, TWO_PI))
    return modes, coup, TWO_PI * ge, TWO_PI * gi


@pytest.mark.parametrize("seed", range(6))
def test_stacked_solve_matches_single_points(seed):
    """A (K, N) probe stack gives, point by point, the K = 1 results."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 3
    modes, coup, ge, gi = random_stable_network(rng, n)
    omegas = np.array([m.omega for m in modes])
    probes = omegas + TWO_PI * rng.uniform(-80e3, 80e3, (9, n))
    v_th = thermal_covariance(modes, 0.03)

    cm = build_coupling_matrix(modes, probe_omegas=probes, couplings=coup)
    assert cm.m.shape == (9, 2 * n, 2 * n)
    assert structure_residual(cm) < 1e-12
    stacked = scattering_matrices(cm, ge, gi).to_quadrature()
    v_stacked = output_covariance(stacked, v_th, v_loss=v_th).v
    assert v_stacked.shape == (9, 2 * n, 2 * n)

    for k, probe in enumerate(probes):
        one = build_coupling_matrix(modes, probe_omegas=probe, couplings=coup)
        pair = scattering_matrices(one, ge, gi).to_quadrature()
        v = output_covariance(pair, v_th, v_loss=v_th).v
        for got, want in ((stacked.s[k], pair.s), (stacked.s_loss[k], pair.s_loss),
                          (v_stacked[k], v)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def threshold_pair_stack(deltas):
    """A pair pumped exactly at threshold, probed at +-delta; every number is
    a power of two, so delta = 0 gives an exactly singular coupling matrix."""
    gamma, eps = 2.0**17, 2.0**16
    modes = [ModeSpec(0, 2.0**34, gamma, 0.0), ModeSpec(1, 1.5 * 2.0**34, gamma, 0.0)]
    omegas = np.array([m.omega for m in modes])
    probes = omegas - 2.0 * eps + np.asarray(deltas)[:, None] * np.array([1.0, -1.0])
    cm = build_coupling_matrix(modes, probe_omegas=probes, couplings={(0, 1): eps})
    return cm, np.full(2, gamma), np.zeros(2)


def test_network_is_the_coupling_matrix_solve():
    modes = [ModeSpec.from_hz(j, f, 30e3, 10e3)
             for j, f in enumerate((3.8245e9, 3.8375e9, 3.8506e9))]
    couplings = {(0, 1): TWO_PI * (10e3 + 2e3j), (1, 2): TWO_PI * 8e3}
    sweep = TWO_PI * np.linspace(-50e3, 50e3, 7)[:, None] * np.array([1.0, -1.0, 1.0])
    probes = dressed_frequencies(modes, couplings) + sweep
    pair = network(modes, couplings, probes)
    ref = scattering_matrices(build_coupling_matrix(modes, couplings, probes),
                              [m.gamma_ext for m in modes],
                              [m.gamma_int for m in modes])
    assert pair.s.shape == (7, 6, 6) and pair.basis == "ladder"
    assert np.array_equal(pair.s, ref.s)
    assert np.array_equal(pair.s_loss, ref.s_loss)
    with pytest.raises(UnstablePumpError):
        network(modes, {(0, 1): TWO_PI * 30e3})
    assert network(modes, {(0, 1): TWO_PI * 30e3}, allow_unstable=True).s.shape == (6, 6)


def test_singular_point_inside_stack_raises():
    cm, ge, gi = threshold_pair_stack([-2.0**14, 2.0**13, 2.0**15])
    pair = scattering_matrices(cm, ge, gi, allow_unstable=True)
    assert np.all(np.isfinite(pair.s))
    cm, ge, gi = threshold_pair_stack([-2.0**14, 2.0**13, 0.0, 2.0**15])
    with pytest.raises(SingularMatrixError):
        scattering_matrices(cm, ge, gi, allow_unstable=True)


def test_unstable_stack_refused_before_any_solve(monkeypatch):
    cm, ge, gi = threshold_pair_stack(np.linspace(-2.0**15, 2.0**15, 7))

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the instability guard")

    monkeypatch.setattr(np.linalg, "svd", no_solve)
    monkeypatch.setattr(np.linalg, "inv", no_solve)
    with pytest.raises(UnstablePumpError):
        scattering_matrices(cm, ge, gi)


def test_magnitude_db_on_arrays_matches_scalar_calls_bit_for_bit():
    # np.abs on a complex array can round |z| differently from abs(complex)
    rng = np.random.default_rng(3)
    z = 10.0 ** rng.uniform(-8.0, 8.0, 5000) * np.exp(1j * rng.uniform(-np.pi, np.pi, 5000))
    z[17] = 0.0
    for value, reference in ((z, 1.0), (z, 0.37), (z.real, 2.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = magnitude_db(value, reference)
        want = [20.0 * np.log10(abs(x) / reference) if x != 0 else -np.inf for x in value]
        assert got.tobytes() == np.array(want).tobytes()
        assert got.tobytes() == np.array([magnitude_db(x, reference) for x in value]).tobytes()
        assert got[17] == -np.inf
