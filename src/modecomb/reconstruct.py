"""Physical-state reconstruction from noisy covariance estimates.

A measured covariance matrix V_meas need not satisfy the physicality
constraint V + i Omega >= 0.  The reconstruction finds the smallest t such
that some physical V lies within t standard errors of every measured
element:

    minimize t  subject to  |V_ij - V_meas_ij| <= t sigma_ij,  V + i Omega >= 0.

This is a small semidefinite program, solved to a certified bracket
[t_lower, t_upper] on its optimum (Vandenberghe & Boyd, SIAM Rev. 38, 49
(1996); Boyd & Vandenberghe, Convex Optimization, secs. 5.9 and 11.6):

* every physical V inside the box bounds t from above;
* every Hermitian Z >= 0 bounds it from below (weak duality): a physical
  V = V_meas + D with |D_ij| <= t sigma_ij has
  0 <= tr Z(V + i Omega) <= tr Z(V_meas + i Omega) + t sum sigma_ij |Re Z_ij|,
  so t >= -tr Z(V_meas + i Omega) / sum sigma_ij |Re Z_ij|.

The rank-1 Z = z z^dagger of the lowest eigenvector of V_meas + i Omega
gives the first lower bound.  A log-barrier path-following method then
walks through strictly physical points inside the box: at each Newton
iterate, one eigendecomposition of X = V + i Omega gives its V as an upper
bound and Z = X^-1, the dual point of the central path, as a lower bound,
and a second one prices the line search of the step.
The bracket shrinks geometrically with the barrier weight, also on the
near-tangent instances whose optimal Z has rank 2, and the search stops
once it is t_width wide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bases import symplectic_form
from .errors import DimensionMismatchError, NonConvergenceWarning
from .gaussian_state import CovarianceMatrix

SIGMA_FLOOR = 1e-12
T_WIDTH = 1e-6
FEAS_TOL = 1e-9
MAX_ITER = 120000
START_LIFT = 1.1
TAU_GROWTH = 10.0
CENTERED = 1.0
GAP_REL = 1e-9
BOUNDARY = 0.6
ARMIJO = 0.25


@dataclass
class ReconstructionResult:
    """Outcome of a physicality reconstruction.

    ``[t_lower, objective]`` brackets the optimal t: ``objective`` is
    realized by the physical ``v``, and ``t_lower`` is certified by a dual
    matrix.
    """

    v: CovarianceMatrix
    objective: float
    t_lower: float
    iterations: int
    converged: bool
    sigma_floored: bool = False
    flags: list = field(default_factory=list)


def _dual_bound(z, h0, sigma):
    """Lower bound on the reconstruction objective from Hermitian ``z`` >= 0.

    ``h0`` is V_meas + i Omega; the bound is
    -tr(z h0) / sum sigma_ij |Re z_ij|, which no physical matrix within
    t sigma of V_meas can beat (weak duality).
    """
    return -np.vdot(h0, z).real / float(np.vdot(sigma, np.abs(z.real)))


@lru_cache(maxsize=None)
def _pairs(m):
    """Upper-triangle indices, their weights, and the gather of the Hessian.

    For E_p = e_i e_j^T + e_j e_i^T (e_i e_i^T on the diagonal) the Hessian
    of -log det X is tr(Y E_p Y E_q) = 2 h_p h_q Re(conj(Y[i_p, j_q])
    Y[j_p, i_q] + conj(Y[i_p, i_q]) Y[j_p, j_q]), with Y = X^-1 and h = 1/2
    on the diagonal, 1 off it.
    """
    iu, ju = np.triu_indices(m)
    half = np.where(iu == ju, 0.5, 1.0)
    gather = np.stack([iu[:, None] * m + ju, ju[:, None] * m + iu,
                       iu[:, None] * m + iu, ju[:, None] * m + ju])
    shared = (iu, ju, half, 2.0 * np.outer(half, half), gather)
    for arr in shared:
        arr.flags.writeable = False  # every caller gets these same arrays
    return shared


def _line_step(slope, rates, decrement):
    """Backtracking (Armijo) step on slope * alpha - sum log(1 + alpha * rates).

    That function is the change of the barrier objective along the Newton
    step.  The search starts at the full step, or at BOUNDARY of the way to
    the edge of the domain if that is nearer.  Returns 0 when no step of
    at least 1e-12 decreases it, which only rounding can cause.
    """
    neg = rates < 0.0
    alpha = min(1.0, BOUNDARY * float(np.min(-1.0 / rates[neg]))) if neg.any() else 1.0
    while (alpha * slope - float(np.sum(np.log1p(alpha * rates)))
           > -ARMIJO * alpha * decrement**2):
        alpha *= 0.5
        if alpha < 1e-12:
            return 0.0
    return alpha


def _barrier_bracket(arr, sig, h0, lam_min, t_lower, t_width, max_iter):
    """Path-follow min tau t - log det X - sum log(t sigma -+ D) over (t, D).

    Returns (best point, t_upper, t_lower, eigendecompositions).  Every
    iterate is strictly physical and strictly inside its box: Newton steps
    go at most BOUNDARY of the way to the edge of the domain and backtrack
    until the barrier objective drops.  tau grows by TAU_GROWTH whenever
    the Newton decrement says the iterate is centred.
    """
    m = arr.shape[0]
    iu, ju, half, hh, gather = _pairs(m)
    sp = sig[iu, ju]
    npar = iu.size
    # start strictly inside: lift the diagonal past the most negative
    # eigenvalue lam_min of h0, with t twice what that lift needs
    d = np.where(iu == ju, -START_LIFT * lam_min, 0.0)
    t = 2.0 * float(np.max(np.abs(d) / sp))
    tau = (m + 2 * npar) / t
    dmat = np.zeros((m, m))
    best, t_upper = None, np.inf
    hess = np.empty((npar + 1, npar + 1))
    grad = np.empty(npar + 1)
    iters = 0
    while True:
        dmat[iu, ju] = d
        dmat[ju, iu] = d
        w, u = np.linalg.eigh(h0 + dmat)
        iters += 1
        a = t * sp - d
        b = t * sp + d
        if min(w[0], a.min(), b.min()) <= 0.0:
            break  # rounding pushed the step out of the domain
        y = (u / w) @ u.conj().T
        point = arr + dmat
        realized = float(np.max(np.abs(point - arr) / sig))
        if realized < t_upper:
            best, t_upper = point, realized
        t_lower = max(t_lower, _dual_bound(y, h0, sig))
        # a step costs this eigendecomposition and the next point's
        if t_upper - t_lower <= max(t_width, GAP_REL * t_upper) or iters + 2 > max_iter:
            break
        ia2, ib2 = 1.0 / a**2, 1.0 / b**2
        pull = sp @ (1.0 / a + 1.0 / b)
        grad[1:] = 1.0 / a - 1.0 / b - 2.0 * half * y.real[iu, ju]
        g = y.ravel()[gather]
        hess[1:, 1:] = hh * (g[0].conj() * g[1] + g[2].conj() * g[3]).real
        hess.flat[npar + 2::npar + 2] += ia2 + ib2
        hess[0, 0] = sp**2 @ (ia2 + ib2)
        hess[0, 1:] = hess[1:, 0] = sp * (ib2 - ia2)
        # tau enters only the gradient, so a centred iterate moves on to the
        # next tau without another eigendecomposition
        decrement = 0.0
        while decrement <= CENTERED:
            grad[0] = tau - pull
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                return best, t_upper, t_lower, iters
            decrement = float(np.sqrt(max(-grad @ step, 0.0)))
            if not np.isfinite(decrement):
                return best, t_upper, t_lower, iters
            if decrement <= CENTERED:
                tau *= TAU_GROWTH
        # along the step log det X changes by sum log(1 + alpha mu), with mu
        # the eigenvalues of X^-1/2 dX X^-1/2, so one more eigendecomposition
        # prices the whole line search
        dmat[iu, ju] = step[1:]
        dmat[ju, iu] = step[1:]
        v = u / np.sqrt(w)
        mu = np.linalg.eigvalsh(v.conj().T @ dmat @ v)
        iters += 1
        rates = np.concatenate(
            (mu, (step[0] * sp - step[1:]) / a, (step[0] * sp + step[1:]) / b)
        )
        alpha = _line_step(tau * step[0], rates, decrement)
        if alpha == 0.0:
            break
        t += alpha * step[0]
        d = d + alpha * step[1:]
    return best, t_upper, t_lower, iters


def reconstruct_physical(
    v_meas,
    sigma=None,
    t_width=T_WIDTH,
    feas_tol=FEAS_TOL,
    max_iter=MAX_ITER,
) -> ReconstructionResult:
    """Smallest-t physical covariance consistent with measured elements.

    Parameters
    ----------
    v_meas : CovarianceMatrix or array
        Measured (possibly unphysical) symmetric covariance.
    sigma : array or float, optional
        Element-wise standard errors; a scalar is broadcast.  ``None``
        means uniform unit errors.  Zero entries are floored at 1e-12
        with a warning, since a hard equality constraint would make the
        problem infeasible for generic noise.
    t_width : float
        Width of the certified bracket on t at which the search stops.
    max_iter : int
        Eigendecomposition budget of the search.

    Returns
    -------
    ReconstructionResult
        ``objective`` is the realized max |V - V_meas| / sigma of the
        returned physical matrix and ``t_lower`` a certified lower bound
        on the optimum, at most ``t_width`` below it (or ``1e-9`` of it,
        where rounding allows no finer bracket).  ``converged`` is false,
        with a warning and a flag, when the bracket stayed wider than
        that.
    """
    arr = np.asarray(
        v_meas.v if isinstance(v_meas, CovarianceMatrix) else v_meas, dtype=float
    )
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
        raise DimensionMismatchError("covariance must be square with even size")
    if not np.allclose(arr, arr.T, rtol=0.0, atol=1e-9 * max(1.0, np.abs(arr).max())):
        raise DimensionMismatchError("measured covariance must be symmetric")
    arr = 0.5 * (arr + arr.T)
    n = arr.shape[0] // 2

    if sigma is None:
        sig = np.ones_like(arr)
    else:
        sig = np.asarray(sigma, dtype=float)
        if sig.ndim == 0:
            sig = np.full_like(arr, float(sig))
        if sig.shape != arr.shape:
            raise DimensionMismatchError("sigma must match the covariance shape")
        if np.any(sig < 0.0):
            raise ValueError("element-wise sigmas must be non-negative")
    sig = 0.5 * (sig + sig.T)
    floored = bool(np.any(sig < SIGMA_FLOOR))
    if floored:
        warnings.warn(
            f"zero or tiny element sigmas floored at {SIGMA_FLOOR:g}",
            NonConvergenceWarning,
            stacklevel=2,
        )
        sig = np.maximum(sig, SIGMA_FLOOR)

    # fast path: already physical (reconstructing twice is idempotent with
    # objective 0 on the second pass)
    h0 = arr + 1j * symplectic_form(n)
    w, u = np.linalg.eigh(h0)
    if w[0] >= -feas_tol:
        return ReconstructionResult(
            v=CovarianceMatrix(n, arr),
            objective=0.0,
            t_lower=0.0,
            iterations=0,
            converged=True,
            sigma_floored=floored,
        )

    z = np.outer(u[:, 0], u[:, 0].conj())
    best, realized, t_lower, iters = _barrier_bracket(
        arr, sig, h0, w[0], max(0.0, _dual_bound(z, h0, sig)), t_width, max_iter
    )
    flags = []
    converged = realized - t_lower <= max(t_width, GAP_REL * realized)
    if not converged:
        warnings.warn(
            f"reconstruction bracket [{t_lower:.6g}, {realized:.6g}] is wider "
            f"than t_width = {t_width:g} after {iters} eigendecompositions",
            NonConvergenceWarning,
            stacklevel=2,
        )
        flags.append("iteration_cap_reached")
    return ReconstructionResult(
        v=CovarianceMatrix(n, best),
        objective=realized,
        t_lower=t_lower,
        iterations=iters,
        converged=converged,
        sigma_floored=floored,
        flags=flags,
    )
