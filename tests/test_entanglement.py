"""PPT and optimized-witness entanglement tests with error propagation."""

import re
import warnings
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import minimize

from modecomb import (
    AmplifierModel,
    Bipartition,
    CovarianceMatrix,
    DimensionMismatchError,
    MissingFitCovarianceError,
    ModeSpec,
    PhysicalityWarning,
    all_bipartition_reports,
    all_bipartitions,
    amplify,
    build_coupling_matrix,
    deamplify,
    decorrelate_iq,
    entanglement_sigma,
    output_covariance,
    ppt_min_eigenvalue,
    propagate_errors,
    scattering_matrices,
    significance,
    svl_test,
    svl_value,
    two_mode_squeezed_covariance,
)
from modecomb import cli
from modecomb import entanglement as ent
from modecomb.bases import mode_rotation, symplectic_form
from modecomb.entanglement import (
    IQ_RESIDUAL_LIMIT,
    _iq_derivatives,
    _iq_objective,
    own_iq_angles,
)
from modecomb.gaussian_state import covariance_sem

TWO_PI = 2.0 * np.pi

# ring-comb output state used in several tests: four modes, four pumped pairs
COMB_EXPECTED_E = {
    "0|123": -0.547390288,
    "01|23": -0.409852575,
    "02|13": -0.750000000,
    "03|12": -0.409852575,
    "012|3": -0.547390288,
    "013|2": -0.547390288,
    "023|1": -0.547390288,
}


def comb_output(eps_hz=30e3, loss_hz=20e3):
    modes = [ModeSpec.from_hz(j, 3.82e9 + j * 13e6, loss_hz, loss_hz) for j in range(4)]
    eps = TWO_PI * eps_hz
    coup = {(0, 1): eps, (1, 2): eps, (2, 3): eps, (0, 3): eps}
    cm = build_coupling_matrix(modes, couplings=coup)
    g = np.full(4, TWO_PI * loss_hz)
    pair = scattering_matrices(cm, g, g, allow_unstable=True).to_quadrature()
    return output_covariance(pair, CovarianceMatrix.vacuum(4))


def random_physical_state(rng, n_modes):
    """Thermal core conjugated by layers of rotations and diagonal squeezers."""
    v = np.diag(np.repeat(2.0 * rng.uniform(0.0, 1.0, n_modes) + 1.0, 2))
    for _ in range(2):
        z = np.exp(rng.uniform(-0.5, 0.5, n_modes))
        d = np.diag(np.column_stack([z, 1.0 / z]).ravel())
        rot = mode_rotation(rng.uniform(0.0, np.pi, n_modes))
        s = rot @ d
        v = s @ v @ s.T
    return CovarianceMatrix(n_modes, v)


def test_all_bipartitions_counts_and_labels():
    for n, count in ((2, 1), (3, 3), (4, 7), (5, 15), (6, 31)):
        parts = all_bipartitions(n)
        assert len(parts) == count
        labels = [bp.label for bp in parts]
        assert len(set(labels)) == count
        assert all(0 in bp.part_a for bp in parts)
    assert {bp.label for bp in all_bipartitions(4)} == set(COMB_EXPECTED_E)


def test_bipartition_validation():
    with pytest.raises(ValueError):
        Bipartition((0, 1), (1, 2), 3)
    with pytest.raises(ValueError):
        Bipartition((0,), (1,), 3)
    with pytest.raises(ValueError):
        Bipartition((1,), (0, 2), 3)
    bp = Bipartition.from_set([2], 3)
    assert bp.part_a == (0, 1) and bp.part_b == (2,)


def test_ppt_of_two_mode_squeezed_state():
    for r in (0.2, 0.7, 1.1):
        v = two_mode_squeezed_covariance(r)
        lam = ppt_min_eigenvalue(v, [1])
        assert lam == pytest.approx(np.exp(-2.0 * r) - 1.0, abs=1e-12)
    assert ppt_min_eigenvalue(CovarianceMatrix.vacuum(2), [1]) == pytest.approx(
        0.0, abs=1e-12
    )
    bp = Bipartition((0,), (1,), 2)
    v = two_mode_squeezed_covariance(0.7)
    assert ppt_min_eigenvalue(v, bp) == pytest.approx(
        ppt_min_eigenvalue(v, [1]), abs=1e-14
    )
    with pytest.raises(DimensionMismatchError):
        ppt_min_eigenvalue(v, [2])


def test_symplectic_form_is_fresh_after_the_physicality_check():
    v = two_mode_squeezed_covariance(0.7)
    first = ppt_min_eigenvalue(v, [1])
    omega = symplectic_form(2)
    omega[:] = 0.0  # the caller's array is its own
    assert ppt_min_eigenvalue(v, [1]) == first
    assert symplectic_form(2)[0, 1] == 1.0


def test_ppt_separable_states_stay_positive():
    rng = np.random.default_rng(21)
    for _ in range(20):
        # product of independent single-mode states is separable
        blocks = []
        for _ in range(2):
            z = np.exp(rng.uniform(-0.8, 0.8))
            nb = rng.uniform(0.0, 2.0)
            blocks.append((2.0 * nb + 1.0) * np.diag([z, 1.0 / z]))
        v = CovarianceMatrix(2, np.block([
            [blocks[0], np.zeros((2, 2))],
            [np.zeros((2, 2)), blocks[1]],
        ]))
        assert ppt_min_eigenvalue(v, [1]) >= -1e-12


def test_svl_two_mode_squeezed_closed_form():
    bp = Bipartition((0,), (1,), 2)
    for r in (0.3, 0.8):
        v = two_mode_squeezed_covariance(r)
        rep = svl_test(v, bp)
        # the optimized witness equals twice the PPT eigenvalue here
        assert rep.value == pytest.approx(2.0 * (np.exp(-2.0 * r) - 1.0), abs=1e-10)
        assert rep.value < 0.0
        assert np.dot(rep.h, rep.h) + np.dot(rep.g, rep.g) == pytest.approx(
            2.0, rel=1e-12
        )


def test_svl_separable_state_nonnegative():
    rng = np.random.default_rng(8)
    bp = Bipartition((0,), (1,), 2)
    for _ in range(20):
        diag = 2.0 * rng.uniform(0.0, 1.5, 2) + 1.0
        v = CovarianceMatrix(2, np.diag(np.repeat(diag, 2)))
        assert svl_test(v, bp).value >= -1e-12


def reference_svl_value(v, bp, h, g):
    """The earlier one-row witness evaluator, kept as an oracle: its
    quadratic forms as ``x @ V_II @ x`` and its overlaps as Python sums."""
    vii = v.v[0::2, 0::2]
    vqq = v.v[1::2, 1::2]
    ta = sum(h[i] * g[i] for i in bp.part_a)
    tb = sum(h[i] * g[i] for i in bp.part_b)
    return float(h @ vii @ h + g @ vqq @ g - 2.0 * abs(ta) - 2.0 * abs(tb))


def reference_svl_test(v, bp):
    """The earlier witness optimum, kept as an oracle: one ``np.block``
    eigenproblem per sign pattern (sA, sB), all four patterns in turn."""
    n = v.n_modes
    pa = np.zeros(n)
    pa[list(bp.part_a)] = 1.0
    best = None
    for sa, sb in product((1.0, -1.0), repeat=2):
        s = np.diag(sa * pa + sb * (1.0 - pa))
        w, vecs = np.linalg.eigh(np.block([[v.v[0::2, 0::2], -s], [-s, v.v[1::2, 1::2]]]))
        if best is None or w[0] < best:
            best = w[0]
    return 2.0 * best


def passively_mixed_thermal_states(seed, sizes=(2, 3, 4, 5)):
    """Separable states whose I and Q correlations share their sign: thermal
    modes mixed by a real orthogonal (beam splitter) network.  Here the
    shared pattern Q(+,+) holds the optimum; in ``rotated_random_states``
    Q(+,-) does."""
    rng = np.random.default_rng(seed)
    for n in sizes:
        o = np.linalg.qr(rng.normal(size=(n, n)))[0]
        mixed = o @ np.diag(2.0 * rng.uniform(0.0, 2.0, n) + 1.0) @ o.T
        yield CovarianceMatrix(n, np.kron(mixed, np.eye(2)))


def test_stacked_witness_matches_four_pattern_loop():
    # up to seven modes the stacked evaluator adds each overlap in mode
    # order, as the Python sum does; from eight numpy's pairwise sum does not
    states = list(rotated_random_states(17, 12, sizes=(2, 3, 4, 5)))
    states += list(rotated_random_states(27, 4, sizes=(6, 7)))
    for v in states + list(passively_mixed_thermal_states(18)):
        bps = all_bipartitions(v.n_modes)
        reports = all_bipartition_reports(v)
        assert [rep.bipartition for rep in reports] == bps
        clean = decorrelate_iq(v)[0]
        for rep in reports:
            expected = reference_svl_test(clean, rep.bipartition)
            assert rep.value == pytest.approx(expected, rel=1e-12, abs=1e-14)
            assert svl_value(clean, rep.bipartition, rep.h, rep.g) == rep.value
            assert reference_svl_value(clean, rep.bipartition, rep.h, rep.g) == rep.value
            single = svl_test(clean, rep.bipartition, decorrelate=False)
            assert single.value == pytest.approx(expected, rel=1e-12, abs=1e-14)
            assert svl_value(clean, rep.bipartition, single.h, single.g) == single.value
            assert reference_svl_value(clean, rep.bipartition, single.h, single.g) == single.value
            assert np.dot(single.h, single.h) + np.dot(single.g, single.g) == pytest.approx(
                2.0, rel=1e-12)


def test_svl_test_checks_sizes_and_flags_its_frame():
    with pytest.raises(DimensionMismatchError):
        svl_test(CovarianceMatrix.vacuum(3), Bipartition((0,), (1,), 2))
    for v in rotated_random_states(19, 6):
        reports = all_bipartition_reports(v)
        residual = reports[0].iq_residual
        flagged = ["iq_residual_above_limit"] if residual > IQ_RESIDUAL_LIMIT else []
        for rep in reports:
            assert rep.flags == flagged and rep.iq_residual == residual
        assert len({id(rep.flags) for rep in reports}) == len(reports)
        rep = svl_test(v, reports[-1].bipartition)
        assert rep.value == reports[-1].value and rep.flags == flagged


def test_svl_matches_numeric_multistart():
    """The eigenvalue optimum agrees with direct numeric minimization."""
    rng = np.random.default_rng(14)
    for _ in range(3):
        v = random_physical_state(rng, 3)
        bp = Bipartition((0, 2), (1,), 3)
        rep = svl_test(v, bp, decorrelate=False)

        def objective(x):
            x = np.sqrt(2.0) * x / np.linalg.norm(x)
            return svl_value(v, bp, x[:3], x[3:])

        best = np.inf
        for _ in range(24):
            x0 = rng.normal(size=6)
            res = minimize(objective, x0, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
            best = min(best, res.fun)
        assert rep.value <= best + 1e-9
        assert rep.value == pytest.approx(best, abs=1e-6)


def test_svl_shift_law_and_normalization():
    rng = np.random.default_rng(3)
    v = random_physical_state(rng, 3)
    bp = Bipartition((0,), (1, 2), 3)
    base = svl_test(v, bp, decorrelate=False)
    t = 0.37
    shifted = CovarianceMatrix(3, v.v + t * np.eye(6))
    rep = svl_test(shifted, bp, decorrelate=False)
    # adding t to every variance shifts the optimum by exactly 2t
    assert rep.value == pytest.approx(base.value + 2.0 * t, abs=1e-10)


def test_decorrelate_iq_restores_clean_frame():
    v = two_mode_squeezed_covariance(0.7)
    rotated = v.rotate([0.3, -0.5])
    clean, angles, residual = decorrelate_iq(rotated)
    assert residual < 1e-12
    bp = Bipartition((0,), (1,), 2)
    assert svl_test(rotated, bp).value == pytest.approx(
        svl_test(v, bp).value, abs=1e-7
    )


def iq_energy(v):
    return float(np.sum(v[0::2, 1::2] ** 2))


def reference_decorrelate_energy(v):
    """Lowest I-Q energy of a 4^N scan of pi/2 shifts followed by BFGS.

    The earlier implementation of ``decorrelate_iq``, kept as an oracle:
    the four best scanned shifts of the own-zeroing angles, the zero angles
    and the own-zeroing angles each seed a finite-difference BFGS polish.
    """
    n = v.n_modes
    base = own_iq_angles(v)
    shifts = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
    candidates = [base + shifts[list(c)] for c in product(range(4), repeat=n)]
    candidates.sort(key=lambda a: iq_energy(v.rotate(a).v))
    starts = [np.zeros(n), base] + candidates[:4]
    return min(
        minimize(lambda a: iq_energy(v.rotate(a).v), start, method="BFGS",
                 options={"gtol": 1e-12, "maxiter": 400}).fun
        for start in starts
    )


def rotated_random_states(seed, count, sizes=(2, 3, 4)):
    """Random physical states with inter-mode I-Q correlations, their mode
    counts taken in turn from ``sizes``.

    ``random_physical_state`` is a product of single-mode states, whose I-Q
    block rotates away exactly; a random symplectic mixes the modes so the
    decorrelation optimum is nonzero.  A random frame rotation follows.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = sizes[i % len(sizes)]
        gen = rng.normal(0.0, 0.3, (2 * n, 2 * n))
        s = expm(symplectic_form(n) @ (gen + gen.T))
        v = s @ random_physical_state(rng, n).v @ s.T
        yield CovarianceMatrix(n, v).rotate(rng.uniform(-np.pi, np.pi, n))


def test_decorrelate_iq_never_worse_than_scan_and_bfgs():
    for v in rotated_random_states(41, 9):
        clean, angles, residual = decorrelate_iq(v)
        assert iq_energy(clean.v) <= reference_decorrelate_energy(v) * (1.0 + 1e-9)
        assert np.all(angles >= -0.5 * np.pi) and np.all(angles < 0.5 * np.pi)
        in_block = max(np.linalg.norm(clean.v[0::2, 0::2]),
                       np.linalg.norm(clean.v[1::2, 1::2]))
        assert residual == pytest.approx(np.sqrt(iq_energy(clean.v)) / in_block,
                                         rel=1e-12)


def test_iq_derivatives_match_central_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for v in rotated_random_states(6, 6):
        n = v.n_modes
        theta = rng.uniform(-np.pi, np.pi, n)
        grad, hess = _iq_derivatives(_iq_objective(v.v, theta)[1])
        steps = h * np.eye(n)
        f_plus, w_plus = _iq_objective(v.v, theta + steps)
        f_minus, w_minus = _iq_objective(v.v, theta - steps)
        scale = np.sum(v.v**2)
        assert grad == pytest.approx((f_plus - f_minus) / (2 * h), abs=1e-8 * scale)
        hess_fd = (_iq_derivatives(w_plus)[0] - _iq_derivatives(w_minus)[0]) / (2 * h)
        assert hess == pytest.approx(hess_fd, abs=1e-8 * scale)
        assert hess == pytest.approx(hess.T, abs=1e-12 * scale)


def test_decorrelate_iq_witness_independent_of_input_frame():
    rng = np.random.default_rng(12)
    for v in rotated_random_states(13, 6):
        phi = rng.uniform(-np.pi, np.pi, v.n_modes)
        base = all_bipartition_reports(v)
        turned = all_bipartition_reports(v.rotate(phi))
        for a, b in zip(base, turned):
            assert b.value == pytest.approx(a.value, abs=1e-10), a.bipartition.label
        # the same frame up to the sign of each mode, also among the two
        # optima that a pi/2 turn of every mode exchanges
        clean, clean_turned = decorrelate_iq(v)[0].v, decorrelate_iq(v.rotate(phi))[0].v
        assert np.abs(clean_turned) == pytest.approx(
            np.abs(clean), abs=1e-9 * np.abs(clean).max())


def test_witness_sigma_independent_of_input_frame():
    # A quarter turn of a mode maps (I, Q) to (Q, -I), so the element sigmas
    # move with their elements and the witness sigma must stay put.  Turning
    # every mode once makes the input the pi/2 twin of itself; the twin of
    # the decorrelated frame is also evaluated directly.
    rng = np.random.default_rng(14)
    for v in rotated_random_states(15, 6):
        n = v.n_modes
        s = np.abs(rng.normal(1.0, 0.5, (2 * n, 2 * n)))
        s = (s + s.T) / 2.0
        base = all_bipartition_reports(v)
        sigmas = [entanglement_sigma(s, rep.h, rep.g, rep.angles) for rep in base]
        for turns in (rng.integers(0, 4, n), np.ones(n, dtype=int)):
            perm = np.round(mode_rotation(0.5 * np.pi * turns))  # exact signed permutation
            v_t = CovarianceMatrix(n, perm @ v.v @ perm.T)
            s_t = np.abs(perm) @ s @ np.abs(perm).T
            for sigma, rep in zip(sigmas, all_bipartition_reports(v_t)):
                got = entanglement_sigma(s_t, rep.h, rep.g, rep.angles)
                assert got == pytest.approx(sigma, rel=1e-10), rep.bipartition.label
        twin = base[0].angles + 0.5 * np.pi
        w_twin = v.rotate(twin)
        for sigma, rep in zip(sigmas, base):
            other = svl_test(w_twin, rep.bipartition, decorrelate=False)
            assert other.value == pytest.approx(rep.value, abs=1e-10)
            got = entanglement_sigma(s, other.h, other.g, twin)
            assert got == pytest.approx(sigma, rel=1e-10), rep.bipartition.label


def test_comb_witness_and_ppt_frozen_values():
    v = comb_output()
    reports = {rep.bipartition.label: rep for rep in all_bipartition_reports(v)}
    assert set(reports) == set(COMB_EXPECTED_E)
    for label, expected in COMB_EXPECTED_E.items():
        assert reports[label].value == pytest.approx(expected, abs=2e-9), label
        bp = reports[label].bipartition
        lam = ppt_min_eigenvalue(v, bp)
        # for this state every bipartition satisfies E = 2 lambda
        assert lam == pytest.approx(expected / 2.0, abs=2e-9), label


def test_propagate_errors_zero_case():
    v = two_mode_squeezed_covariance(0.5)
    amp = AmplifierModel.uniform(
        2, 100.0, 0.2, sigma_gain=0.0, sigma_noise=0.0, cov_gain_noise=0.0
    )
    meas = CovarianceMatrix(2, 100.0 * v.v + np.diag(amp.n_diagonal()))
    sig = propagate_errors(meas, amp, sem=None)
    assert np.max(np.abs(sig)) == 0.0
    bare = AmplifierModel.uniform(2, 100.0, 0.2)
    with pytest.raises(MissingFitCovarianceError):
        propagate_errors(meas, bare)


def test_propagate_errors_statistical_term():
    amp = AmplifierModel.uniform(
        2, 100.0, 0.2, sigma_gain=0.0, sigma_noise=0.0, cov_gain_noise=0.0
    )
    meas = CovarianceMatrix(2, 100.0 * np.eye(4) + np.diag(amp.n_diagonal()))
    sem = np.full((4, 4), 2.0)
    sig = propagate_errors(meas, amp, sem=sem)
    # with zero fit errors only the de-embedded statistical term survives
    assert sig == pytest.approx(np.full((4, 4), 2.0 / 100.0), rel=1e-12)


def test_propagate_errors_clamps_negative_variance():
    amp = AmplifierModel.uniform(
        1, 100.0, 10.0, sigma_gain=5.0, sigma_noise=1.0, cov_gain_noise=5.0
    )
    meas = CovarianceMatrix(1, np.eye(2))
    with pytest.warns(PhysicalityWarning):
        sig = propagate_errors(meas, amp)
    assert np.all(sig >= 0.0)


def reference_propagate_errors(v_meas, amp, sem):
    """The earlier per-element loop of ``propagate_errors``, kept as an
    oracle; returns (sigma, whether a variance was clamped)."""
    n = v_meas.n_modes
    sem = 0.5 * (sem + sem.T)
    v_de = deamplify(v_meas, amp).v
    vm = v_meas.v
    var = np.zeros((2 * n, 2 * n))
    clamped = False
    for a in range(2 * n):
        for b in range(2 * n):
            i, j = a // 2, b // 2
            diag = 1.0 if a == b else 0.0
            gi, gj = amp.gain[i], amp.gain[j]
            term_a = (1.0 + diag) * (
                (vm[a, b] / (2.0 * np.sqrt(gi**3 * gj)) * amp.sigma_gain[i]) ** 2
                + (vm[a, b] / (2.0 * np.sqrt(gj**3 * gi)) * amp.sigma_gain[j]) ** 2
            ) + 2.0 * diag * (
                (2.0 * amp.added_photons[i] + 1.0) * amp.sigma_gain[i] / gi
            ) ** 2
            term_b = diag * (2.0 * amp.sigma_noise[i]) ** 2
            term_c = sem[a, b] ** 2 / (gi * gj)
            term_corr = (diag * 4.0 * (v_de[a, a] - (2.0 * amp.added_photons[i] + 1.0))
                         / gi * amp.cov_gain_noise[i])
            total = term_a + term_b + term_c + term_corr
            if total < 0.0:
                clamped = True
                total = 0.0
            var[a, b] = total
    return np.sqrt(var), clamped


def test_propagate_errors_matches_element_loop():
    """Bit for bit, with per-mode gains, a sem matrix and the clamped case."""
    rng = np.random.default_rng(33)
    clamps = []
    for k, v in enumerate(rotated_random_states(34, 60, sizes=(1, 2, 3, 4))):
        n = v.n_modes
        gain = rng.uniform(1.0, 1e3, n)
        photons = rng.uniform(0.0, 20.0, n)
        sigma_noise = rng.uniform(0.01, 0.3, n)
        if k % 2:
            # the fit correlation at its bound, against a measured covariance
            # far below the added noise, drives the diagonal variances negative
            sigma_gain = 2.0 * sigma_noise * gain / (2.0 * photons + 1.0)
            cov = sigma_gain * sigma_noise
        else:
            sigma_gain = rng.uniform(0.0, 0.05, n) * gain
            cov = rng.uniform(-1.0, 1.0, n) * sigma_gain * sigma_noise
        amp = AmplifierModel(n, gain, photons, sigma_gain, sigma_noise, cov)
        if k % 2:
            meas, sem = v, np.zeros((2 * n, 2 * n))
        else:
            meas = amplify(v, amp)
            sem = np.abs(rng.normal(0.0, 1.0, (2 * n, 2 * n))) * gain.mean()
        expected, clamped = reference_propagate_errors(meas, amp, sem)
        clamps.append(clamped)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = propagate_errors(meas, amp, sem=sem)
        assert [w.category for w in caught] == [PhysicalityWarning] * clamped
        assert np.array_equal(got, expected)
    assert any(clamps) and not all(clamps)


def test_entanglement_sigma_formula():
    rng = np.random.default_rng(30)
    s = np.abs(rng.normal(size=(4, 4)))
    s = (s + s.T) / 2.0
    h = np.array([0.9, -0.3])
    g = np.array([0.2, 1.1])
    sii, sqq = s[0::2, 0::2], s[1::2, 1::2]
    expected = np.sqrt(
        np.sum(sii**2 * np.outer(h, h) ** 2) + np.sum(sqq**2 * np.outer(g, g) ** 2)
    )
    assert entanglement_sigma(s, h, g) == pytest.approx(expected, rel=1e-12)


def test_significance_weighting():
    single = significance([-1.0], [0.5])
    assert single == pytest.approx(-2.0, rel=1e-12)
    double = significance([-1.0, -1.0], [0.5, 0.5])
    assert double == pytest.approx(-2.0 * np.sqrt(2.0), rel=1e-12)


def reference_decorrelate_iq(v):
    """The earlier one-matrix Newton search of ``decorrelate_iq``, kept as
    an oracle: the same starts and steps, with the matrix broadcast over
    its starts and every rotated W kept (N <= 6)."""
    n = v.n_modes
    base = own_iq_angles(v)
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n)) & 1
    theta = np.vstack([np.zeros(n), base + 0.5 * np.pi * bits])
    f, w = _iq_objective(v.v, theta)
    grad, hess = _iq_derivatives(w)
    gnorm = np.linalg.norm(grad, axis=-1)
    scale = float(np.sum(v.v**2))
    damp = np.full(theta.shape[0], ent._NEWTON_DAMP_START)
    active = gnorm > ent._NEWTON_GTOL * scale
    for _ in range(ent._NEWTON_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        e, u = np.linalg.eigh(hess[idx])
        unit = np.maximum(np.abs(e).max(axis=-1), np.finfo(float).eps * scale)
        shift = np.maximum(0.0, -e[:, 0]) + damp[idx] * unit
        coef = np.einsum("bji,bj->bi", u, grad[idx]) / (e + shift[:, None])
        step = -np.einsum("bij,bj->bi", u, coef)
        longest = np.abs(step).max(axis=-1, keepdims=True)
        step *= ent._NEWTON_MAX_STEP / np.maximum(longest, ent._NEWTON_MAX_STEP)
        trial = theta[idx] + step
        f_trial, w_trial = _iq_objective(v.v, trial)
        g_trial, h_trial = _iq_derivatives(w_trial)
        gn_trial = np.linalg.norm(g_trial, axis=-1)
        level = f[idx] + ent._NEWTON_F_ROUNDING * np.sqrt(f[idx] * scale)
        better = (f_trial < f[idx]) | ((f_trial <= level) & (gn_trial <= 0.5 * gnorm[idx]))
        ok, bad = idx[better], idx[~better]
        theta[ok], f[ok], w[ok] = trial[better], f_trial[better], w_trial[better]
        grad[ok], hess[ok], gnorm[ok] = g_trial[better], h_trial[better], gn_trial[better]
        damp[ok] = np.maximum(damp[ok] / 10.0, ent._NEWTON_DAMP_MIN)
        damp[bad] *= 100.0
        active[ok[gnorm[ok] <= ent._NEWTON_GTOL * scale]] = False
        active[bad[damp[bad] > ent._NEWTON_DAMP_MAX]] = False
    best = int(np.argmin(f))
    angles = theta[best]
    if np.trace(w[best, 1::2, 1::2]) > np.trace(w[best, 0::2, 0::2]):
        angles = angles + 0.5 * np.pi
    angles = np.mod(angles + 0.5 * np.pi, np.pi) - 0.5 * np.pi
    _, w = _iq_objective(v.v, angles)
    in_block = max(np.linalg.norm(w[0::2, 0::2]), np.linalg.norm(w[1::2, 1::2]), 1e-300)
    return CovarianceMatrix(n, w), angles, float(np.linalg.norm(w[0::2, 1::2]) / in_block)


def twin_pair_starts(v):
    """The earlier starts of ``_iq_starts``, kept as an oracle: zero and
    every pi/2 shift of the own-zeroing angles (2^N + 1 starts) for N <= 6,
    eight shifts of pi/8 above, so both starts of each pi/2 twin pair."""
    n = v.n_modes
    base = own_iq_angles(v)
    if n <= 6:
        shifts = 0.5 * np.pi * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
    else:
        shifts = np.arange(8)[:, None] * (np.pi / 8.0)
    return np.concatenate([np.zeros((len(base), 1, n)), base[:, None, :] + shifts], axis=1)


def assert_twin_free_starts_lose_nothing(stack, monkeypatch):
    """The search of one start per pi/2 twin pair against the search of
    both: f no higher, up to rounding, and the same angles modulo pi."""
    w, angles, _ = ent._decorrelate_stack(stack)
    with monkeypatch.context() as m:
        m.setattr(ent, "_iq_starts", twin_pair_starts)
        ref_w, ref_angles, _ = ent._decorrelate_stack(stack)
    f, ref_f = (np.sum(x[:, 0::2, 1::2] ** 2, axis=(1, 2)) for x in (w, ref_w))
    assert np.all(f <= ref_f * (1.0 + 1e-12))
    turn = np.mod(angles - ref_angles + 0.5 * np.pi, np.pi) - 0.5 * np.pi
    assert np.abs(turn).max() <= 1e-9


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5, 6, 7])
def test_twin_free_starts_match_all_starts(n_modes, monkeypatch):
    # 7 modes run the pi/8 shifts
    stack = interval_stack(70 + n_modes, 20, n_modes)
    assert ent._iq_starts(stack).shape[1] == (2 ** (n_modes - 1) + 1 if n_modes <= 6 else 5)
    assert_twin_free_starts_lose_nothing(stack, monkeypatch)


@pytest.mark.parametrize("seed", [1, 7])
def test_twin_free_starts_match_all_starts_on_the_demo(seed, tmp_path, monkeypatch):
    # the reconstructed intervals that the multimode demo decorrelates
    stacks = []

    def keep(v):
        stacks.append(v)
        return all_bipartition_reports(v)

    path = Path(cli.write_demo_config("multimode", str(tmp_path)))
    text = re.sub(r"^seed: \d+$", f"seed: {seed}", path.read_text(), flags=re.M)
    path.write_text(re.sub(r"^output_dir: \S+$", f"output_dir: {tmp_path / 'out'}", text,
                           flags=re.M))
    with monkeypatch.context() as m:
        m.setattr(cli, "all_bipartition_reports", keep)
        cli.run_scenario(path)
    assert stacks[0].v.shape == (75, 8, 8)
    assert_twin_free_starts_lose_nothing(stacks[0], monkeypatch)


def reference_reports(v):
    """The earlier one-matrix witness: decorrelate, then one (1 + B)-matrix
    ``eigh`` per covariance; (value, h, g) per bipartition."""
    clean = reference_decorrelate_iq(v)[0]
    n = v.n_modes
    bps = all_bipartitions(n)
    signs = np.ones((1 + len(bps), n))
    for row, bp in zip(signs[1:], bps):
        row[list(bp.part_b)] = -1.0
    q = np.zeros((len(signs), 2 * n, 2 * n))
    q[:, :n, :n] = clean.v[0::2, 0::2]
    q[:, n:, n:] = clean.v[1::2, 1::2]
    k = np.arange(n)
    q[:, k, n + k] = q[:, n + k, k] = -signs
    lams, vecs = np.linalg.eigh(q)
    out = []
    for b, bp in enumerate(bps, start=1):
        best = b if lams[b, 0] < lams[0, 0] else 0
        x = np.sqrt(2.0) * vecs[best, :, 0]
        out.append((reference_svl_value(clean, bp, x[:n], x[n:]), x[:n], x[n:]))
    return out


def reference_sigma(s, h, g, angles):
    """The earlier one-report witness sigma, kept as an oracle."""
    c = np.zeros(s.shape)
    c[0::2, 0::2] = np.outer(h, h)
    c[1::2, 1::2] = np.outer(g, g)
    r = mode_rotation(angles)
    return float(np.sqrt(np.sum((r.T @ c @ r * s) ** 2)))


def interval_stack(seed, count, n_modes):
    return CovarianceMatrix(n_modes, np.array(
        [v.v for v in rotated_random_states(seed, count, sizes=(n_modes,))]))


@pytest.mark.parametrize("n_modes", [2, 3, 4])
def test_stacked_decorrelation_matches_the_one_matrix_search(n_modes):
    stack = interval_stack(31 + n_modes, 12, n_modes)
    w, angles, residual = ent._decorrelate_stack(stack)
    for i, v in enumerate(stack.v):
        ref_w, ref_angles, ref_residual = reference_decorrelate_iq(CovarianceMatrix(n_modes, v))
        assert np.array_equal(angles[i], ref_angles)
        assert np.array_equal(CovarianceMatrix(n_modes, w[i]).v, ref_w.v)
        assert residual[i] == ref_residual
        one_w, one_angles, one_residual = decorrelate_iq(CovarianceMatrix(n_modes, v))
        assert np.array_equal(one_angles, ref_angles) and one_residual == ref_residual
        assert np.array_equal(one_w.v, ref_w.v)


@pytest.mark.parametrize("n_modes", [2, 4])
def test_stacked_witness_and_sigma_match_the_one_matrix_path(n_modes):
    stack = interval_stack(47 + n_modes, 10, n_modes)
    rng = np.random.default_rng(48)
    s = np.abs(rng.normal(1.0, 0.5, stack.v.shape))
    s = (s + np.swapaxes(s, 1, 2)) / 2.0
    stacked = all_bipartition_reports(stack)
    angles = stacked[0].angles
    # the multimode pipeline's one call over (interval, bipartition)
    h, g = (np.stack([getattr(rep, x) for rep in stacked], axis=1) for x in "hg")
    joint = entanglement_sigma(s[:, None], h, g, angles[:, None])
    for b, rep in enumerate(stacked):
        sigmas = entanglement_sigma(s, rep.h, rep.g, angles)
        assert np.array_equal(joint[:, b], sigmas)
        for i in range(len(s)):
            assert sigmas[i] == reference_sigma(s[i], rep.h[i], rep.g[i], rep.angles[i])
            assert sigmas[i] == entanglement_sigma(s[i], rep.h[i], rep.g[i], rep.angles[i])
    for i, v in enumerate(stack.v):
        one = all_bipartition_reports(CovarianceMatrix(n_modes, v))
        for rep, single, (value, h, g) in zip(stacked, one,
                                              reference_reports(CovarianceMatrix(n_modes, v))):
            assert rep.bipartition == single.bipartition
            assert rep.value[i] == single.value == value
            assert np.array_equal(rep.h[i], h) and np.array_equal(single.h, h)
            assert np.array_equal(rep.g[i], g) and np.array_equal(single.g, g)
            assert np.array_equal(rep.angles[i], single.angles)
            assert rep.iq_residual[i] == single.iq_residual and rep.flags[i] == single.flags


def test_stacked_error_propagation_matches_one_matrix_calls():
    rng = np.random.default_rng(50)
    n = 3
    amp = AmplifierModel(n, rng.uniform(50.0, 150.0, n), rng.uniform(0.1, 5.0, n),
                         sigma_gain=rng.uniform(0.1, 2.0, n),
                         sigma_noise=rng.uniform(0.01, 0.2, n),
                         cov_gain_noise=rng.uniform(-0.001, 0.001, n))
    meas = CovarianceMatrix(n, np.array(
        [amplify(v, amp).v for v in rotated_random_states(51, 6, sizes=(n,))]))
    sem = covariance_sem(meas, 1000)
    sigma = propagate_errors(meas, amp, sem=sem)
    for i, v in enumerate(meas.v):
        one = CovarianceMatrix(n, v)
        assert np.array_equal(sem[i], covariance_sem(one, 1000))
        assert np.array_equal(sigma[i], propagate_errors(one, amp, sem=sem[i]))
        assert np.array_equal(deamplify(meas, amp).v[i], deamplify(one, amp).v)
