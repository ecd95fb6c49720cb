"""Basis conventions and transformations.

Two bases are used throughout:

* ladder order ``(b_1 .. b_N, b_1^dag .. b_N^dag)`` for mode-coupling and
  scattering matrices (complex entries),
* interleaved quadrature order ``(I_1, Q_1, .., I_N, Q_N)`` with
  ``I = b + b^dag`` and ``Q = -i (b - b^dag)`` for covariance matrices
  (real entries, vacuum variance 1).
"""

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, NonPhysicalInputError

IMAG_TOL = 1e-9  # largest imaginary residue quadrature_transform accepts


def symplectic_form(n_modes):
    """Interleaved-basis symplectic form, a direct sum of [[0, 1], [-1, 0]] blocks."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


def ladder_to_quadrature_map(n_modes):
    """Matrix U with x = U b for x interleaved quadratures, b ladder order.

    U U^dag = 2 I, so the inverse map is U^dag / 2.
    """
    u = np.zeros((2 * n_modes, 2 * n_modes), dtype=complex)
    for j in range(n_modes):
        u[2 * j, j] = 1.0
        u[2 * j, n_modes + j] = 1.0
        u[2 * j + 1, j] = -1.0j
        u[2 * j + 1, n_modes + j] = 1.0j
    return u


def quadrature_transform(s_ladder):
    """Convert a ladder-basis linear transformation to the quadrature basis.

    The result of U S U^dag / 2 must be real for a physical (Bogoliubov
    paired) transformation; a residue above IMAG_TOL anywhere raises.
    Leading axes of ``s_ladder`` stack matrices.
    """
    s_ladder = np.asarray(s_ladder, dtype=complex)
    if s_ladder.ndim < 2 or s_ladder.shape[-1] != s_ladder.shape[-2] or s_ladder.shape[-1] % 2:
        raise DimensionMismatchError("ladder matrix must be square with even dimension")
    n = s_ladder.shape[-1] // 2
    u = ladder_to_quadrature_map(n)
    s_q = u @ s_ladder @ u.conj().T / 2.0
    residue = np.max(np.abs(s_q.imag)) if s_q.size else 0.0
    if residue > IMAG_TOL:
        raise NonPhysicalInputError(
            f"quadrature transform has imaginary residue {residue:.3e} > {IMAG_TOL:.1e}; "
            "the ladder matrix does not pair b with b^dag consistently"
        )
    return s_q.real


def mode_rotation(angles):
    """Direct sum of per-mode quadrature rotations, interleaved basis.

    Each mode rotates as I' = cos(a) I + sin(a) Q, Q' = -sin(a) I + cos(a) Q.
    Angles of shape (..., N) give a stack of 2N x 2N matrices; a scalar is
    one mode.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    n = angles.shape[-1]
    c, s = np.cos(angles), np.sin(angles)
    r = np.zeros(angles.shape[:-1] + (2 * n, 2 * n))
    flat = r.reshape(angles.shape[:-1] + (4 * n * n,))
    # consecutive 2 x 2 diagonal blocks lie 4N + 2 apart in the flat matrix
    step = 4 * n + 2
    flat[..., 0::step] = c
    flat[..., 1::step] = s
    flat[..., 2 * n::step] = -s
    flat[..., 2 * n + 1::step] = c
    return r


def rowdot(x, y):
    """Dot product of each row of ``x`` with the same row of ``y``.

    Each row is one BLAS dot, so it rounds exactly as the 1-D ``x @ y``
    does; ``np.einsum`` and ``np.sum(x * y, axis=-1)`` add in other orders.
    """
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


@lru_cache(maxsize=None)
def _shared_symplectic_form(n_modes):
    """Read-only ``symplectic_form(n_modes)``, built once per mode count."""
    omega = symplectic_form(n_modes)
    omega.flags.writeable = False
    return omega


def min_physicality_eigenvalue(v):
    """Smallest eigenvalue of V + i Omega; >= 0 (up to tolerance) for physical V."""
    v = np.asarray(v, dtype=float)
    n = v.shape[0] // 2
    h = v.astype(complex) + 1j * _shared_symplectic_form(n)
    return float(np.linalg.eigvalsh(h)[0])
