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

``reconstruct_intervals`` follows the paths of a stack of K intervals in
lockstep.  Each outer step diagonalises the iterates of all unfinished
intervals in one stacked ``eigh``, solves their Newton systems in one
stacked ``solve`` (again for those that the Newton decrement finds
centred) and prices all their line searches with one stacked
``eigvalsh``.  An interval leaves the stack once its bracket closes, its
budget is spent or its step fails.  Every reduction keeps the rounding of
a lone run, so each interval gets bit for bit what ``reconstruct_physical``
(a stack of one) gives it.  On the 75 intervals of the multimode demo at
seed 1, 2,026 eigendecompositions either way, that takes 0.06 s instead
of 0.15 s for one call per interval (2 CPUs, OpenBLAS on one thread).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bases import rowdot, symplectic_form
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
    matrix.  The result of a stack of K carries the interval axis: ``v`` is
    a (K, 2N, 2N) stack, the numbers are arrays of length K and ``flags``
    holds one list per interval.
    """

    v: CovarianceMatrix
    objective: float
    t_lower: float
    iterations: int
    converged: bool
    sigma_floored: bool = False
    flags: list = field(default_factory=list)


def _dual_bound(z, h0, sigma):
    """Lower bounds on the reconstruction objective from Hermitian ``z`` >= 0.

    Stacks of K: ``h0`` is V_meas + i Omega, and the bound of each is
    -tr(z h0) / sum sigma_ij |Re z_ij|, which no physical matrix within
    t sigma of V_meas can beat (weak duality).
    """
    k = z.shape[0]
    trace = rowdot(h0.conj().reshape(k, -1), z.reshape(k, -1)).real
    return -trace / rowdot(sigma.reshape(k, -1), np.abs(z.real).reshape(k, -1))


@lru_cache(maxsize=None)
def _pairs(m):
    """Upper-triangle indices, their weights, and the Hessian's row blocks.

    For E_p = e_i e_j^T + e_j e_i^T (e_i e_i^T on the diagonal) the Hessian
    of -log det X is tr(Y E_p Y E_q) = 2 h_p h_q Re(conj(Y[i_p, j_q])
    Y[j_p, i_q] + conj(Y[i_p, i_q]) Y[j_p, j_q]), with Y = X^-1 and h = 1/2
    on the diagonal, 1 off it.  The pairs with i_p = i are rows
    first[i]:first[i + 1].
    """
    iu, ju = np.triu_indices(m)
    half = np.where(iu == ju, 0.5, 1.0)
    first = np.searchsorted(iu, np.arange(m + 1))
    shared = (iu, ju, half, 2.0 * np.outer(half, half), first)
    for arr in shared:
        arr.flags.writeable = False  # every caller gets these same arrays
    return shared


def _real_products(y, i, left, right):
    """Re(conj(Y[i, left_q]) Y[j, right_q]) for the rows j >= i of each Y.

    The product is formed in place; its real part does not depend on the
    order of the two factors.
    """
    p = y[:, i:, right]
    p *= y[:, i, left].conj()[:, None, :]
    return p.real


def _newton_system(h, y, a, b, sp):
    """Barrier gradient and Hessian of each row, the Hessian written to ``h``.

    ``y`` holds X^-1 and ``a``, ``b`` the box slacks t sigma -+ D.  The
    gradient's t entry is left for the caller: it is tau - pull.
    """
    n, m = y.shape[:2]
    iu, ju, half, hh, first = _pairs(m)
    npar = iu.size
    ia2, ib2 = 1.0 / a**2, 1.0 / b**2
    pull = rowdot(sp, 1.0 / a + 1.0 / b)
    grad = np.empty((n, npar + 1))
    grad[:, 1:] = 1.0 / a - 1.0 / b - 2.0 * half * y.real[:, iu, ju]
    # one block of rows (the pairs (i, j >= i)) at a time keeps the complex
    # products small
    for i in range(m):
        lo, hi = first[i], first[i + 1]
        block = h[:, 1 + lo:1 + hi, 1:]
        block[...] = _real_products(y, i, ju, iu)
        block += _real_products(y, i, iu, ju)
        block *= hh[lo:hi]
    h.reshape(n, -1)[:, npar + 2::npar + 2] += ia2 + ib2
    h[:, 0, 0] = rowdot(sp**2, ia2 + ib2)
    h[:, 0, 1:] = h[:, 1:, 0] = sp * (ib2 - ia2)
    return grad, pull


def _newton_steps(h, grad, pull, tau):
    """Newton step and decrement of each row at its weight ``tau``.

    tau enters only the gradient, so a centred row (decrement at most
    CENTERED) grows its tau in place by TAU_GROWTH and is solved again
    without another eigendecomposition; its Hessian moves to the front of
    ``h`` for that.  A singular row's step and decrement are NaN.
    """
    step = np.empty_like(grad)
    decrement = np.empty(len(grad))
    todo = np.arange(len(grad))
    while todo.size:
        grad[todo, 0] = tau[todo] - pull[todo]
        try:
            step[todo] = np.linalg.solve(h[:todo.size], -grad[todo, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for i, row in enumerate(todo):
                try:
                    step[row] = np.linalg.solve(h[i], -grad[row])
                except np.linalg.LinAlgError:
                    step[row] = np.nan
        decrement[todo] = np.sqrt(np.maximum(rowdot(-grad[todo], step[todo]), 0.0))
        again = np.flatnonzero(decrement[todo] <= CENTERED)
        for i, j in enumerate(again):
            h[i] = h[j]
        todo = todo[again]
        tau[todo] *= TAU_GROWTH
    return step, decrement


def _step_lengths(u, w, step, a, b, sp, slope, decrement):
    """Backtracking (Armijo) step of each row along its Newton step.

    Along the step, the barrier objective changes by slope * alpha -
    sum log(1 + alpha * rates): log det X by sum log(1 + alpha mu), with mu
    the eigenvalues of X^-1/2 dX X^-1/2, so one ``eigvalsh`` of the stack
    prices every line search.  Each search starts at the full step, or at
    BOUNDARY of the way to the edge of the domain if that is nearer.  A
    row's step is 0 when no step of at least 1e-12 decreases it, which
    only rounding can cause.
    """
    n, m = u.shape[:2]
    iu, ju = _pairs(m)[:2]
    dmat = np.zeros((n, m, m))
    dmat[:, iu, ju] = dmat[:, ju, iu] = step[:, 1:]
    v = u / np.sqrt(w)[:, None, :]
    mu = np.linalg.eigvalsh(np.swapaxes(v.conj(), 1, 2) @ dmat @ v)
    rates = np.concatenate((mu, (step[:, :1] * sp - step[:, 1:]) / a,
                            (step[:, :1] * sp + step[:, 1:]) / b), axis=1)
    edge = np.divide(-1.0, rates, out=np.full_like(rates, np.inf), where=rates < 0.0)
    alpha = np.minimum(1.0, BOUNDARY * edge.min(axis=1))
    rows = np.arange(n)
    while rows.size:
        al = alpha[rows]
        rise = al * slope[rows] - np.sum(np.log1p(al[:, None] * rates[rows]), axis=1)
        rows = rows[rise > -ARMIJO * al * decrement[rows] ** 2]
        alpha[rows] *= 0.5
        small = alpha[rows] < 1e-12
        alpha[rows[small]] = 0.0
        rows = rows[~small]
    return alpha


def _rows(keep, *arrays):
    """The rows of each array where ``keep`` holds."""
    return arrays if keep.all() else tuple(x[keep] for x in arrays)


def _barrier_bracket(arr, sig, h0, lam_min, t_lower, t_width, max_iter):
    """Path-follow min tau t - log det X - sum log(t sigma -+ D) over (t, D).

    Runs K problems in lockstep: ``arr``, ``sig`` and ``h0`` are (K, m, m)
    stacks, ``lam_min`` and ``t_lower`` hold one value per problem.  Each
    outer step diagonalises every live X in one ``eigh``, solves every
    Newton system in one ``solve`` and prices every line search in one
    ``eigvalsh``.  A problem drops out once its bracket closes, its budget
    is spent or its step fails; the arithmetic of each is that of a run on
    its own.

    Returns (best points, t_upper, t_lower, eigendecompositions), one entry
    per problem.  Every iterate is strictly physical and strictly inside
    its box: Newton steps go at most BOUNDARY of the way to the edge of the
    domain and backtrack until the barrier objective drops.
    """
    k, m = arr.shape[:2]
    iu, ju = _pairs(m)[:2]
    npar = iu.size
    sp = sig[:, iu, ju]
    # start strictly inside: lift the diagonal past the most negative
    # eigenvalue lam_min of h0, with t twice what that lift needs
    d = np.where(iu == ju, -START_LIFT * lam_min[:, None], 0.0)
    t = 2.0 * np.max(np.abs(d) / sp, axis=1)
    tau = (m + 2 * npar) / t
    best, t_upper, t_lower = arr.copy(), np.full(k, np.inf), t_lower.copy()
    iters = np.zeros(k, dtype=int)
    hess = np.empty((k, npar + 1, npar + 1))
    live = np.arange(k)
    while live.size:
        dmat = np.zeros((live.size, m, m))
        dmat[:, iu, ju] = dmat[:, ju, iu] = d[live]
        w, u = np.linalg.eigh(h0[live] + dmat)
        iters[live] += 1
        a = t[live, None] * sp[live] - d[live]
        b = t[live, None] * sp[live] + d[live]
        # drop the problems that rounding pushed out of the domain
        keep = ~(np.minimum(w[:, 0], np.minimum(a.min(axis=1), b.min(axis=1))) <= 0.0)
        live, dmat, w, u, a, b = _rows(keep, live, dmat, w, u, a, b)
        y = (u / w[:, None, :]) @ np.swapaxes(u.conj(), 1, 2)
        point = arr[live] + dmat
        realized = np.max(np.abs(point - arr[live]) / sig[live], axis=(1, 2))
        better = realized < t_upper[live]
        best[live[better]] = point[better]
        t_upper[live[better]] = realized[better]
        bound = _dual_bound(y, h0[live], sig[live])
        t_lower[live] = np.where(bound > t_lower[live], bound, t_lower[live])
        # a step costs this eigendecomposition and the next point's
        upper = t_upper[live]
        keep = ~((upper - t_lower[live] <= np.maximum(t_width, GAP_REL * upper))
                 | (iters[live] + 2 > max_iter))
        live, w, u, a, b, y = _rows(keep, live, w, u, a, b, y)
        if not live.size:
            break

        h = hess[:live.size]
        grad, pull = _newton_system(h, y, a, b, sp[live])
        tau_live = tau[live]
        step, decrement = _newton_steps(h, grad, pull, tau_live)
        tau[live] = tau_live
        live, step, decrement, w, u, a, b = _rows(
            np.isfinite(decrement), live, step, decrement, w, u, a, b)
        alpha = _step_lengths(u, w, step, a, b, sp[live], tau[live] * step[:, 0], decrement)
        iters[live] += 1
        live, alpha, step = _rows(alpha != 0.0, live, alpha, step)
        t[live] += alpha * step[:, 0]
        d[live] += alpha[:, None] * step[:, 1:]
    return best, t_upper, t_lower, iters


def _reconstruct(arr, sigma, t_width, max_iter):
    """The stacked result of a (K, 2N, 2N) stack (array or CovarianceMatrix),
    and the warnings it calls for.

    Every interval's warnings name it when K > 1.
    """
    arr = np.asarray(arr.v if isinstance(arr, CovarianceMatrix) else arr, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or arr.shape[1] % 2:
        raise DimensionMismatchError("covariance stack must be K x 2N x 2N")
    atol = 1e-9 * np.abs(arr).max(axis=(1, 2), initial=1.0)
    if not np.all(np.abs(arr - np.swapaxes(arr, 1, 2)) <= atol[:, None, None]):
        raise DimensionMismatchError("measured covariance must be symmetric")
    arr = 0.5 * (arr + np.swapaxes(arr, 1, 2))
    k, n = arr.shape[0], arr.shape[1] // 2

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
    sig = 0.5 * (sig + np.swapaxes(sig, 1, 2))
    floored = np.any(sig < SIGMA_FLOOR, axis=(1, 2))
    sig = np.maximum(sig, SIGMA_FLOOR)
    where = [f"interval {i}: " if k > 1 else "" for i in range(k)]
    messages = [f"{where[i]}zero or tiny element sigmas floored at {SIGMA_FLOOR:g}"
                for i in np.flatnonzero(floored)]

    # fast path: an interval that is already physical is its own answer, with
    # objective 0 (so reconstructing twice is idempotent)
    h0 = arr + 1j * symplectic_form(n)
    w, u = np.linalg.eigh(h0)
    todo = np.flatnonzero(~(w[:, 0] >= -FEAS_TOL))
    v, upper, lower, iters = arr.copy(), np.zeros(k), np.zeros(k), np.zeros(k, dtype=int)
    if todo.size:
        # the rank-1 dual of the lowest eigenvector gives the first lower bound
        z = u[todo, :, :1] * u[todo, None, :, 0].conj()
        bound = _dual_bound(z, h0[todo], sig[todo])
        v[todo], upper[todo], lower[todo], iters[todo] = _barrier_bracket(
            arr[todo], sig[todo], h0[todo], w[todo, 0], np.where(bound > 0.0, bound, 0.0),
            t_width, max_iter)

    converged = upper - lower <= np.maximum(t_width, GAP_REL * upper)
    messages += [
        f"{where[i]}reconstruction bracket [{lower[i]:.6g}, {upper[i]:.6g}] "
        f"is wider than t_width = {t_width:g} after {iters[i]} eigendecompositions"
        for i in np.flatnonzero(~converged)]
    flags = [[] if c else ["iteration_cap_reached"] for c in converged]
    return ReconstructionResult(CovarianceMatrix(n, v), upper, lower, iters, converged,
                                floored, flags), messages


def _warn(messages):
    """Emit each message as a warning at the caller of the public function."""
    for message in messages:
        warnings.warn(message, NonConvergenceWarning, stacklevel=3)


def reconstruct_intervals(
    v_meas,
    sigma=None,
    t_width=T_WIDTH,
    max_iter=MAX_ITER,
):
    """``reconstruct_physical`` of a stack of K covariances, as one stacked result.

    ``v_meas`` is a (K, 2N, 2N) stack (array or CovarianceMatrix) and
    ``sigma`` None, a scalar or a stack of the same shape.  All K searches
    run in lockstep (see ``_barrier_bracket``), and row i of every field,
    and the warnings, are what a call of ``reconstruct_physical`` on
    interval i alone gives; with K > 1 a warning names its interval.
    """
    result, messages = _reconstruct(v_meas, sigma, t_width, max_iter)
    _warn(messages)
    return result


def reconstruct_physical(
    v_meas,
    sigma=None,
    t_width=T_WIDTH,
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
        that.  This is ``reconstruct_intervals`` on a stack of one.
    """
    arr = np.asarray(v_meas.v if isinstance(v_meas, CovarianceMatrix) else v_meas, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
        raise DimensionMismatchError("covariance must be square with even size")
    if sigma is not None and np.ndim(sigma):
        sigma = np.asarray(sigma, dtype=float)[None]
    res, messages = _reconstruct(arr[None], sigma, t_width, max_iter)
    _warn(messages)
    return ReconstructionResult(
        CovarianceMatrix(res.v.n_modes, res.v.v[0]), float(res.objective[0]),
        float(res.t_lower[0]), int(res.iterations[0]), bool(res.converged[0]),
        bool(res.sigma_floored[0]), res.flags[0])
