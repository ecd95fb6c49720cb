"""Four-wave-mixing match enumeration and the mode-coupling matrix.

A pump tone at w_p couples the pair (j, k) when 2 w_p ~= w_j + w_k within a
tolerance set by the mode linewidths. The coupled Langevin equations in the
frequency domain read -i M b_vec = K b_in with

    M = [[A, B], [-conj(B), -conj(A)]],

A diagonal with A_jj = Delta_j = Omega_j - w_j + shift_j + i gamma_tot_j / 2
and B symmetric with B_jk = -eps_jk on matched pairs; omega_j - shift_j is
the dressed resonance. Every function takes the modes as a sequence of
ModeSpec, and mode positions (not ModeSpec.index labels) index all matrices
here. ``scattering.network`` turns modes and couplings into the scattering
matrices through ``build_coupling_matrix``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import modesys
from .errors import DimensionMismatchError


@dataclass(frozen=True)
class FourWaveMatch:
    """One pump tone resonant with one mode pair.

    ``mode_j <= mode_k`` always; ``mode_j == mode_k`` is degenerate
    (single-mode) squeezing. ``mismatch`` is 2 w_p - w_j - w_k in rad/s.
    """

    pump_index: int
    mode_j: int
    mode_k: int
    mismatch: float


def default_tolerance(modes):
    """Half the smallest total linewidth, the resolvable-match scale."""
    return min(m.gamma_tot for m in modes) / 2.0


def match_four_wave(modes, pumps, tolerance=None):
    """Enumerate pump/pair combinations satisfying the four-wave condition.

    Returns matches sorted by (pump_index, mode_j, mode_k). Widening the
    tolerance can only add matches, never remove one.
    """
    if tolerance is None:
        tolerance = default_tolerance(modes)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    w = [m.omega for m in modes]
    out = []
    for p, pump in enumerate(pumps):
        for j in range(len(modes)):
            for k in range(j, len(modes)):
                mismatch = 2.0 * pump.omega_p - w[j] - w[k]
                if abs(mismatch) <= tolerance:
                    out.append(FourWaveMatch(p, j, k, mismatch))
    return out


def pair_couplings(modes, pumps, mirror, matches):
    """Complex coupling eps_jk per matched pair from the microscopic chain.

    Multiple pumps matching the same pair add coherently.
    """
    g_tilde, _ = modesys.effective_couplings(mirror, modes)
    couplings = {}
    for match in matches:
        pump = pumps[match.pump_index]
        d = modesys.pump_amplitude(mirror, pump)
        eps = modesys.parametric_coupling(
            d, g_tilde[match.mode_j], g_tilde[match.mode_k], pump.theta
        )
        key = (match.mode_j, match.mode_k)
        couplings[key] = couplings.get(key, 0.0) + eps
    return couplings


def mode_frequency_shifts(n_modes, couplings):
    """Pump-induced static shift per mode: 2 * sum of |eps| over its matches.

    For the uniform four-mode comb (two matches per mode) this reduces to the
    idealized 4 |eps| shift.
    """
    shifts = np.zeros(n_modes)
    for (j, k), eps in couplings.items():
        shifts[j] += 2.0 * abs(eps)
        if k != j:
            shifts[k] += 2.0 * abs(eps)
    return shifts


def dressed_frequencies(modes, couplings):
    """Resonances shifted by the pumps: omega_j minus its frequency shift."""
    return np.array([m.omega for m in modes]) - mode_frequency_shifts(len(modes), couplings)


@dataclass
class CouplingMatrix:
    """Frequency-domain mode-coupling matrix in the ladder basis.

    Attributes
    ----------
    n_modes : int
    m : ndarray
        Complex (..., 2N, 2N) matrix with the Bogoliubov block structure;
        leading axes, if any, stack probe points that share the couplings.
    probe_detunings : ndarray
        Complex Delta_j per mode, shape (..., N); the imaginary part is
        gamma_tot_j / 2.
    couplings : dict
        (j, k) -> complex eps_jk actually placed in the B block.
    """

    n_modes: int
    m: np.ndarray
    probe_detunings: np.ndarray
    couplings: dict = field(default_factory=dict)


def build_coupling_matrix(modes, couplings, probe_omegas=None):
    """Assemble the coupling matrix for a probed mode set.

    Parameters
    ----------
    modes : sequence of ModeSpec
    couplings : dict
        (j, k) -> complex eps_jk; keys must be canonical (j <= k).
    probe_omegas : array-like, optional
        Absolute measurement frequencies Omega_j (rad/s), shape (N,) or
        (..., N). Leading axes stack probe points: the matrix gets the same
        leading axes and every point shares the couplings. ``None`` means
        each mode is probed on its shifted resonance, so Delta_j reduces to
        i gamma_tot_j / 2 exactly.
    """
    n = len(modes)
    for j, k in couplings:
        if not (0 <= j <= k < n):
            raise DimensionMismatchError(f"coupling key ({j}, {k}) not canonical for {n} modes")

    shifts = mode_frequency_shifts(n, couplings)
    gamma_tot = np.array([m.gamma_tot for m in modes])
    if probe_omegas is None:
        detunings = 0.5j * gamma_tot
    else:
        probe_omegas = np.asarray(probe_omegas, dtype=float)
        if probe_omegas.ndim == 0 or probe_omegas.shape[-1] != n:
            raise DimensionMismatchError("probe_omegas must have one entry per mode")
        omegas = np.array([m.omega for m in modes])
        detunings = (probe_omegas - omegas + shifts) + 0.5j * gamma_tot

    b = np.zeros((n, n), dtype=complex)
    for (j, k), eps in couplings.items():
        b[j, k] = -eps
        b[k, j] = -eps
    zero = np.zeros((n, n), dtype=complex)
    template = np.block([[zero, b], [-np.conj(b), -np.conj(zero)]])
    m = np.broadcast_to(template, detunings.shape[:-1] + template.shape).copy()
    idx = np.arange(n)
    m[..., idx, idx] = detunings
    m[..., n + idx, n + idx] = -np.conj(detunings)
    return CouplingMatrix(n, m, detunings, dict(couplings))


def assign_probe_frequencies(modes, matches, couplings=None):
    """Probe frequencies satisfying the frame condition Omega_j + Omega_k = 2 w_p.

    Breadth-first propagation from mode 0 (probed on its shifted
    resonance) through the match graph. Modes without a path keep their own
    resonance. Edges that close a cycle may be inconsistent; their residual
    circulation (rad/s) is returned instead of being silently absorbed.

    Returns
    -------
    omegas : ndarray
        Assigned probe frequencies (rad/s).
    residuals : dict
        match position -> frame residual for edges not in the BFS tree.
    """
    omegas = dressed_frequencies(modes, couplings or {})
    # pump frequency per edge; degenerate matches pin the mode on the pump
    assigned = {0}
    edges = [(i, mt) for i, mt in enumerate(matches)]
    frontier = True
    tree = set()
    while frontier:
        frontier = False
        for i, mt in edges:
            if i in tree:
                continue
            two_wp = mt.mismatch + modes[mt.mode_j].omega + modes[mt.mode_k].omega
            if mt.mode_j == mt.mode_k:
                continue
            for a, b in ((mt.mode_j, mt.mode_k), (mt.mode_k, mt.mode_j)):
                if a in assigned and b not in assigned:
                    omegas[b] = two_wp - omegas[a]
                    assigned.add(b)
                    tree.add(i)
                    frontier = True
                    break
    residuals = {}
    for i, mt in edges:
        if i in tree or mt.mode_j == mt.mode_k:
            continue
        if mt.mode_j in assigned and mt.mode_k in assigned:
            two_wp = mt.mismatch + modes[mt.mode_j].omega + modes[mt.mode_k].omega
            res = two_wp - omegas[mt.mode_j] - omegas[mt.mode_k]
            if abs(res) > 1e-6:
                residuals[i] = float(res)
    return omegas, residuals
