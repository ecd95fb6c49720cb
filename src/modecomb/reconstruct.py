"""Physical-state reconstruction from noisy covariance estimates.

A measured covariance matrix V_meas need not satisfy the physicality
constraint V + i Omega >= 0.  The reconstruction finds the smallest t such
that some physical V lies within t standard errors of every measured
element:

    minimize t  subject to  |V_ij - V_meas_ij| <= t sigma_ij,  V + i Omega >= 0.

The outer search bisects on t.  Each feasibility test maximizes the
smallest eigenvalue of V + i Omega over the element-wise box by projected
supergradient ascent (lambda_min is concave, the box is convex).  Both
possible verdicts are certificates: a point with lambda_min >= 0 is a
physical matrix inside the box, and a linearization gap
lambda + <grad, W - x> < 0 at the box maximizer W bounds the achievable
maximum below zero.  Near-tangent instances where the ascent cycles fall
back on a cutting-plane envelope whose box maximum (a small LP) bounds
max lambda_min from above; see _decide_feasible.  Plain alternating
projections (box clip <-> Hermitian eigenvalue clip) are kept for
repairing small eigenvalue dips and for seeding the upper bound; as a
feasibility decider they stall near tangent configurations, which is not
good enough for the oracle-level accuracy the objective is held to.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bases import min_physicality_eigenvalue, symplectic_form
from .errors import DimensionMismatchError, NonConvergenceWarning
from .gaussian_state import CovarianceMatrix

SIGMA_FLOOR = 1e-12
T_WIDTH = 1e-6
FEAS_TOL = 1e-9
MAX_ITER = 120000
PROJECT_SWEEPS = 2000
CAP_FLOOR = 200
CAP_PAD = 300
CAP_SLOPE = 10.0
WIDTH_FLOOR = 2e-5
LP_FIRST = 64
LP_KEEP = 80
LP_MARGIN = 1e-10


@dataclass
class ReconstructionResult:
    """Outcome of a physicality reconstruction."""

    v: CovarianceMatrix
    objective: float
    iterations: int
    converged: bool
    sigma_floored: bool = False
    flags: list = field(default_factory=list)


def _cone_step(v, omega):
    """One Hermitian-space sweep towards {V : V + i Omega >= 0}."""
    h = v.astype(complex) + 1j * omega
    w, u = np.linalg.eigh(h)
    hp = (u * np.clip(w, 0.0, None)) @ u.conj().T
    out = hp.real
    return 0.5 * (out + out.T)


def project_physical(v, tol=FEAS_TOL, max_iter=PROJECT_SWEEPS):
    """A physical covariance near ``v`` by alternating projections.

    Converges to a point of the physicality cone (not necessarily the
    nearest); used to seed the reconstruction upper bound and to repair
    small eigenvalue dips before sampling.
    """
    arr = np.asarray(v.v if isinstance(v, CovarianceMatrix) else v, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
        raise DimensionMismatchError("covariance must be square with even size")
    n = arr.shape[0] // 2
    omega = symplectic_form(n)
    x = 0.5 * (arr + arr.T)
    for _ in range(max_iter):
        x = _cone_step(x, omega)
        if min_physicality_eigenvalue(x) >= -tol:
            break
    return CovarianceMatrix(n, x)


def _envelope_test(cut_g, cut_b, lo, hi, iu):
    """Maximum of the cutting-plane model of lambda_min over the box.

    Every recorded cut overestimates the concave lambda_min, so the model
    maximum bounds max_box lambda_min from above.  Returns (s_max, argmax)
    or (None, None) when the LP solver fails.
    """
    from scipy.optimize import linprog  # only near-tangent instances get here

    m = lo.shape[0]
    nv = len(iu[0])
    k = len(cut_g)
    a = np.empty((k, nv + 1))
    a[:, :nv] = -np.asarray(cut_g)
    a[:, nv] = 1.0
    bounds = list(zip(lo[iu], hi[iu])) + [(None, None)]
    res = linprog(
        c=np.concatenate([np.zeros(nv), [-1.0]]),
        A_ub=a,
        b_ub=np.asarray(cut_b),
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        return None, None
    v = np.zeros((m, m))
    v[iu] = res.x[:nv]
    v = v + v.T - np.diag(np.diag(v))
    return float(res.x[-1]), v


def _decide_feasible(x_start, lo, hi, omega, max_iter):
    """Does the box [lo, hi] contain a physical matrix?

    Projected supergradient ascent on lambda_min(V + i Omega) over the box
    with Barzilai-Borwein steps decides easy instances in a few dozen
    eigendecompositions, with two one-shot certificates per iterate: a
    physical point proves feasibility, and a negative corner linearization
    proves infeasibility.  Near-tangent instances where the ascent cycles
    are handled by a cutting-plane envelope: each iterate contributes the
    overestimate lambda_min(V) <= lam_i + <g_i, V - x_i>, and at
    exponentially spaced iterations the envelope maximum over the box (a
    small LP) either certifies infeasibility or restarts the ascent from
    its argmax (Kelley step).  Returns (verdict, point, iters) with verdict
    +1 (point is physical and inside the box), -1 (certified infeasible)
    or 0 (iteration budget exhausted, undecided).
    """
    x = np.clip(x_start, lo, hi)
    x = 0.5 * (x + x.T)
    iu = np.triu_indices(x.shape[0])
    wts = np.where(iu[0] == iu[1], 1.0, 2.0)
    cut_g = []
    cut_b = []
    next_lp = LP_FIRST
    eta = None
    g_prev = None
    x_prev = None
    for it in range(1, max_iter + 1):
        w, u = np.linalg.eigh(x.astype(complex) + 1j * omega)
        lam = w[0]
        if lam >= 0.0:
            return 1, x, it
        u0 = u[:, 0]
        grad = np.real(np.outer(u0, np.conj(u0)))
        grad = 0.5 * (grad + grad.T)
        w_box = np.where(grad > 0, hi, lo)
        gap = float(np.sum(grad * (w_box - x)))
        if lam + gap < 0.0:
            return -1, x, it
        g_vec = grad[iu] * wts
        cut_g.append(g_vec)
        cut_b.append(lam - float(g_vec @ x[iu]))
        if len(cut_g) > LP_KEEP:
            del cut_g[0]
            del cut_b[0]
        if it >= next_lp:
            next_lp = 2 * it
            s_max, v_model = _envelope_test(cut_g, cut_b, lo, hi, iu)
            if s_max is not None:
                if s_max < -LP_MARGIN:
                    return -1, x, it
                x = np.clip(v_model, lo, hi)
                x = 0.5 * (x + x.T)
                eta = None
                g_prev = None
                x_prev = None
                continue
        if x_prev is not None:
            dx = (x - x_prev).ravel()
            dg = (grad - g_prev).ravel()
            denom = -float(dx @ dg)  # concave: curvature along dx is negative
            if denom > 0.0:
                eta = float(dx @ dx) / denom
        if eta is None or not np.isfinite(eta) or eta <= 0.0:
            span = float(np.max(hi - lo))
            eta = span / max(1.0, float(np.abs(grad).max()))
        x_prev, g_prev = x, grad
        x = np.clip(x + eta * grad, lo, hi)
        x = 0.5 * (x + x.T)
    if cut_g:
        s_max, v_model = _envelope_test(cut_g, cut_b, lo, hi, iu)
        if s_max is not None:
            if s_max < -LP_MARGIN:
                return -1, x, max_iter
            v_model = np.clip(v_model, lo, hi)
            v_model = 0.5 * (v_model + v_model.T)
            if min_physicality_eigenvalue(v_model) >= 0.0:
                return 1, v_model, max_iter
    return 0, x, max_iter


def _lower_bound(arr, sig, omega):
    """Eigenvector certificate: any physical matrix within t sigma of the
    data must lift every negative eigenvalue of V + i Omega, and the lift a
    box of half-width t sigma can produce along eigenvector u is at most
    t |u|^T sigma |u|."""
    w, u = np.linalg.eigh(arr.astype(complex) + 1j * omega)
    t_lo = 0.0
    for k in range(len(w)):
        if w[k] >= 0.0:
            break
        au = np.abs(u[:, k])
        denom = float(au @ sig @ au)
        if denom > 0.0:
            t_lo = max(t_lo, -w[k] / denom)
    return t_lo


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
        Absolute bisection width on the objective t.
    max_iter : int
        Total eigendecomposition budget across all feasibility decisions
        of the bisection, shared out per step in proportion to how much a
        wrong verdict at the current interval width could cost.

    Returns
    -------
    ReconstructionResult
        ``objective`` is the realized max |V - V_meas| / sigma of the
        returned physical matrix (an upper bound on the true minimax
        value, tight to well below ``100 * t_width``), ``converged``
        reflects whether every feasibility test reached a clear verdict
        at the widths where it matters.
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
    omega = symplectic_form(n)

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

    # fast path: already physical (tolerance matches the feasibility test, so
    # reconstructing twice is idempotent with objective 0 on the second pass)
    if min_physicality_eigenvalue(arr) >= -feas_tol:
        return ReconstructionResult(
            v=CovarianceMatrix(n, arr),
            objective=0.0,
            iterations=0,
            converged=True,
            sigma_floored=floored,
        )

    # upper bound from any physical point, lower bound from the eigenvector
    # certificate; bisection only has to close the remaining interval
    anchor = np.asarray(project_physical(arr, tol=feas_tol).v, dtype=float)
    t_hi = float(np.max(np.abs(anchor - arr) / sig))
    t_lo = min(_lower_bound(arr, sig, omega), t_hi)
    best = anchor
    x_carry = arr.copy()
    total_iters = 0
    undecided_width = 0.0

    # An undecided step is treated as infeasible.  That can only inflate the
    # final objective, never undercut it (t_hi moves only onto certified
    # physical points), and the inflation is bounded by the interval width
    # at that step, so narrow steps get along with a small iteration cap.
    while t_hi - t_lo > t_width:
        width = t_hi - t_lo
        t_mid = 0.5 * (t_lo + t_hi)
        remaining = max_iter - total_iters
        if remaining <= CAP_FLOOR:
            undecided_width = max(undecided_width, width)
            break
        cap = max(
            CAP_FLOOR,
            min(
                remaining // 3,
                int(CAP_SLOPE * max(t_hi, t_width) / max(width, WIDTH_FLOOR))
                + CAP_PAD,
            ),
        )
        verdict, x_out, iters = _decide_feasible(
            x_carry, arr - t_mid * sig, arr + t_mid * sig, omega, cap
        )
        total_iters += iters
        # an undecided verdict at a width that would be visible in the
        # objective is worth escalating while the budget holds out
        while (
            verdict == 0
            and width > 10.0 * t_width
            and max_iter - total_iters > 2 * CAP_FLOOR
        ):
            cap = max(CAP_FLOOR, min((max_iter - total_iters) // 2, 2 * cap))
            verdict, x_out, iters = _decide_feasible(
                x_out, arr - t_mid * sig, arr + t_mid * sig, omega, cap
            )
            total_iters += iters
        x_carry = x_out
        if verdict == 1:
            t_hi, best = t_mid, x_out
        else:
            t_lo = t_mid
            if verdict == 0:
                undecided_width = max(undecided_width, width)

    # shifting by the residual violation restores positivity exactly and
    # costs at most that violation over the smallest diagonal sigma
    lift = -min_physicality_eigenvalue(best)
    if lift > 0.0:
        best = best + lift * np.eye(best.shape[0])

    realized = float(np.max(np.abs(best - arr) / sig))
    flags = []
    min_eig = min_physicality_eigenvalue(best)
    if min_eig < -10.0 * feas_tol:
        flags.append("cone_residual_above_tolerance")
    undecided = undecided_width > 100.0 * t_width
    if undecided:
        warnings.warn(
            "undecided feasibility steps at interval width "
            f"{undecided_width:.2e}; objective may be loose by that much",
            NonConvergenceWarning,
            stacklevel=2,
        )
        flags.append("iteration_cap_reached")
    return ReconstructionResult(
        v=CovarianceMatrix(n, best),
        objective=realized,
        iterations=total_iters,
        converged=not undecided,
        sigma_floored=floored,
        flags=flags,
    )
