"""Input-output scattering from the mode-coupling matrix.

With M the coupling matrix and K, K_int the port coupling matrices
(sqrt of loss rates, duplicated over both ladder blocks),

    S      = i K M^-1 K      - 1        (measured port in -> out)
    S_loss = i K M^-1 K_int             (internal loss port -> out)

satisfy S J S^dag + S_loss J S_loss^dag = J with J = diag(1_N, -1_N); this
holds for any invertible M of the Bogoliubov form, so output states computed
from these matrices are automatically physical.
"""

from dataclasses import dataclass

import numpy as np

from .bases import quadrature_transform
from .coupling_graph import build_coupling_matrix
from .errors import (
    DimensionMismatchError,
    SingularMatrixError,
    UnstablePumpError,
)

# relative singular-value cutoff below which M is treated as singular
SINGULARITY_RTOL = 1e-12


@dataclass
class ScatteringPair:
    """Scattering matrix and its loss-port companion in a common basis.

    ``s`` and ``s_loss`` are (..., 2N, 2N); leading axes stack probe points.
    """

    s: np.ndarray
    s_loss: np.ndarray
    n_modes: int
    basis: str = "ladder"

    def to_quadrature(self):
        """Return the pair transformed to the interleaved quadrature basis."""
        if self.basis == "quadrature":
            return self
        return ScatteringPair(
            quadrature_transform(self.s),
            quadrature_transform(self.s_loss),
            self.n_modes,
            "quadrature",
        )


def scattering_matrices(cm, gamma_ext, gamma_int, allow_unstable=False):
    """Build (S, S_loss) in the ladder basis from a coupling matrix.

    A stacked coupling matrix (leading axes on ``cm.m``) is checked and
    solved in one pass and gives stacked scattering matrices.

    Parameters
    ----------
    cm : CouplingMatrix
    gamma_ext, gamma_int : array-like
        Angular loss rates per mode (rad/s). Must be consistent with the
        linewidths baked into the coupling-matrix diagonal.
    allow_unstable : bool
        By default any matched pair with |eps_jk| >= sqrt(g_j g_k)/2 (the
        divergence threshold of the isolated-pair gain) is refused. Pass
        True to study operation beyond threshold; the algebraic identities
        still hold wherever M is invertible.
    """
    n = cm.n_modes
    gamma_ext = np.asarray(gamma_ext, dtype=float)
    gamma_int = np.asarray(gamma_int, dtype=float)
    if gamma_ext.shape != (n,) or gamma_int.shape != (n,):
        raise DimensionMismatchError("loss arrays must have one entry per mode")
    if np.any(gamma_ext < 0) or np.any(gamma_int < 0):
        raise ValueError("loss rates must be non-negative")
    gamma_tot = gamma_ext + gamma_int
    diag_imag = np.imag(cm.probe_detunings)
    if np.any(np.abs(diag_imag - gamma_tot / 2.0) > 1e-6 * np.maximum(gamma_tot, 1.0)):
        raise DimensionMismatchError(
            "loss rates disagree with the coupling-matrix linewidths"
        )

    if not allow_unstable:
        for (j, k), eps in cm.couplings.items():
            threshold = np.sqrt(gamma_tot[j] * gamma_tot[k]) / 2.0
            if abs(eps) >= threshold:
                raise UnstablePumpError(
                    f"|eps| = {abs(eps):.4e} rad/s on pair ({j}, {k}) reaches the "
                    f"instability threshold {threshold:.4e} rad/s; pass "
                    "allow_unstable=True to evaluate anyway"
                )

    sv = np.linalg.svd(cm.m, compute_uv=False)
    if np.any(sv[..., -1] <= SINGULARITY_RTOL * sv[..., 0]):
        ratio = np.min(sv[..., -1] / sv[..., 0])
        raise SingularMatrixError(
            f"coupling matrix singular (sigma_min/sigma_max = {ratio:.2e})"
        )

    # K M^-1 K with diagonal K scales rows and columns of M^-1
    k_ext = np.sqrt(np.concatenate([gamma_ext, gamma_ext]))
    k_int = np.sqrt(np.concatenate([gamma_int, gamma_int]))
    rows = k_ext[:, None] * np.linalg.inv(cm.m)
    s = 1j * (rows * k_ext) - np.eye(2 * n)
    s_loss = 1j * (rows * k_int)
    return ScatteringPair(s, s_loss, n, "ladder")


def network(modes, couplings, probe_omegas=None, allow_unstable=False):
    """Ladder-basis scattering pair of a coupled mode set.

    Builds the coupling matrix of ``modes`` (sequence of ModeSpec) with the
    (j, k) -> eps_jk ``couplings`` and solves it with the modes' own loss
    rates. ``probe_omegas`` of shape (K, N) gives a stack of K networks;
    ``None`` probes every mode on its shifted resonance.
    """
    cm = build_coupling_matrix(modes, couplings, probe_omegas)
    return scattering_matrices(cm, [m.gamma_ext for m in modes],
                               [m.gamma_int for m in modes], allow_unstable)


def pseudo_unitarity_residual(pair):
    """Max-abs deviation from S J S^dag + S_loss J S_loss^dag = J (ladder basis)."""
    if pair.basis != "ladder":
        raise DimensionMismatchError("pseudo-unitarity is defined on the ladder basis")
    n = pair.n_modes
    j = np.diag(np.concatenate([np.ones(n), -np.ones(n)]))
    lhs = pair.s @ j @ pair.s.conj().T + pair.s_loss @ j @ pair.s_loss.conj().T
    return float(np.max(np.abs(lhs - j)))


def symplectic_residual(s_quadrature):
    """Max-abs deviation from S_IQ Omega S_IQ^T = Omega (lossless quadrature form)."""
    from .bases import symplectic_form

    n = s_quadrature.shape[0] // 2
    omega = symplectic_form(n)
    return float(np.max(np.abs(s_quadrature @ omega @ s_quadrature.T - omega)))


def magnitude_db(value, reference=1.0):
    """20 log10(|value| / reference) per element; an exact zero is -inf dB.
    |value| is hypot(re, im), rounded as abs(complex) rounds it (np.abs on a
    complex array can differ in the last bit)."""
    with np.errstate(divide="ignore"):
        return 20.0 * np.log10(np.hypot(value.real, value.imag) / reference)

