"""Entanglement certification on Gaussian covariance matrices.

Two complementary criteria operating on 2N x 2N quadrature covariance
data (I1, Q1, I2, Q2, ... ordering, vacuum = identity):

* partial transposition: minimum eigenvalue of Lambda V Lambda + i Omega,
  negative iff the state is NPT across the transposed cut;
* a biquadratic witness E(h, g) built from second moments, whose negativity
  across every bipartition certifies full inseparability (each cut tested
  with its own (h, g), so not genuine multipartite entanglement).

The witness optimum over (h, g) with ||h||^2 + ||g||^2 = 2 is found exactly
by an eigenvalue construction: two sign patterns per bipartition, one of
them shared by all bipartitions, so every bipartition comes from a single
stacked eigenproblem.  It runs after an optional passive rotation that
removes I-Q cross correlations from the measured frame.  Its per-mode angles
come from damped Newton steps with an analytic gradient and Hessian, run
from all distinct starts at once.

A stack of K covariances, one per measurement interval, is decorrelated and
tested as one: the Newton steps run on the starts of all K at once and one
``eigh`` takes all K (1 + B) witness matrices.  The single-matrix functions
are stacks of one, and a stack gives bit for bit what they give one by one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bases import min_physicality_eigenvalue, mode_rotation, rowdot
from .errors import (
    DimensionMismatchError,
    MissingFitCovarianceError,
    OptimizerFailureError,
    PhysicalityWarning,
    ZeroVarianceError,
)
from .gaussian_state import CovarianceMatrix, deamplify

# fraction of the in-block Frobenius norm that may remain in the I-Q cross
# block after decorrelation before the witness result is flagged
IQ_RESIDUAL_LIMIT = 0.05


@dataclass(frozen=True)
class Bipartition:
    """A two-set split of mode indices; part_a always holds mode 0."""

    part_a: tuple
    part_b: tuple
    n_modes: int

    def __post_init__(self):
        a, b = set(self.part_a), set(self.part_b)
        if not a or not b:
            raise ValueError("both parts of a bipartition must be non-empty")
        if a & b:
            raise ValueError("bipartition parts overlap")
        if a | b != set(range(self.n_modes)):
            raise ValueError("bipartition does not cover all modes")
        if 0 not in a:
            raise ValueError("canonical form requires mode 0 in part_a")
        object.__setattr__(self, "part_a", tuple(sorted(a)))
        object.__setattr__(self, "part_b", tuple(sorted(b)))

    @classmethod
    def from_set(cls, indices, n_modes):
        """Build the canonical bipartition whose one side is ``indices``."""
        chosen = set(int(i) for i in indices)
        rest = set(range(n_modes)) - chosen
        if 0 in chosen:
            return cls(tuple(sorted(chosen)), tuple(sorted(rest)), n_modes)
        return cls(tuple(sorted(rest)), tuple(sorted(chosen)), n_modes)

    @property
    def label(self):
        fmt = lambda part: "".join(str(i) for i in part)
        return f"{fmt(self.part_a)}|{fmt(self.part_b)}"


def all_bipartitions(n_modes):
    """All 2^(N-1) - 1 bipartitions in canonical order."""
    if n_modes < 2:
        raise ValueError("need at least two modes to bipartition")
    others = list(range(1, n_modes))
    parts = []
    # subsets of {1..N-1} joined to mode 0, excluding the full set
    for mask in range(2 ** len(others) - 1):
        side_a = [0] + [m for k, m in enumerate(others) if mask >> k & 1]
        parts.append(Bipartition.from_set(side_a, n_modes))
    parts.sort(key=lambda bp: (len(bp.part_a), bp.part_a))
    return parts


def ppt_min_eigenvalue(v: CovarianceMatrix, transpose_modes) -> float:
    """Minimum eigenvalue of Lambda V Lambda + i Omega.

    ``transpose_modes`` is either a Bipartition (part_b is transposed) or an
    iterable of mode indices.  Values below zero witness NPT entanglement;
    for a physical separable state the minimum stays >= 0.
    """
    if isinstance(transpose_modes, Bipartition):
        modes = transpose_modes.part_b
    else:
        modes = tuple(int(i) for i in transpose_modes)
    n = v.n_modes
    if any(m < 0 or m >= n for m in modes):
        raise DimensionMismatchError("transpose set references unknown modes")
    lam = np.ones(2 * n)
    for m in modes:
        lam[2 * m + 1] = -1.0  # momentum flip on the transposed modes
    return min_physicality_eigenvalue(lam[:, None] * v.v * lam[None, :])


def _one(v: CovarianceMatrix):
    """A single covariance as a stack of one."""
    return CovarianceMatrix(v.n_modes, v.v[None])


# ---------------------------------------------------------------------------
# Passive decorrelation of the I-Q sector


def _iq_objective(v, angles):
    """I-Q cross-block energy f = sum(X^2) and the rotated covariance W.

    ``angles`` of shape (..., N) give f of shape (...) and a stack of
    W = R V R^T, R = ``mode_rotation(angles)``.  R is applied by its 2 x 2
    blocks, to V's row pairs and then to the column pairs of R V, so no
    stack of R is formed; the products round as the full ones do.
    """
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[-1]
    c, s = np.cos(angles), np.sin(angles)
    rot = np.stack([c, s, -s, c], axis=-1).reshape(angles.shape + (2, 2))
    shape = np.broadcast_shapes(v.shape[:-2], angles.shape[:-1]) + (2 * n, 2 * n)
    # rebinding v frees a gathered stack before the second product
    v = (rot @ v.reshape(v.shape[:-2] + (n, 2, 2 * n))).reshape(shape)
    w = np.empty(shape)
    np.matmul(np.swapaxes(v.reshape(shape[:-1] + (n, 2)), -2, -3),
              np.swapaxes(rot, -1, -2),
              out=np.swapaxes(w.reshape(shape[:-1] + (n, 2)), -2, -3))
    return np.sum(w[..., 0::2, 1::2] ** 2, axis=(-2, -1)), w


def _iq_derivatives(w):
    """Analytic gradient and Hessian of the I-Q objective at rotated W.

    With the blocks P = W_II, X = W_IQ, Y = W_QI, Q = W_QQ, each angle moves
    the cross block as dX_ij/dtheta_k = delta_ik Q_ij - delta_jk P_ij, so

        grad_k = 2 (sum_j X_kj Q_kj - sum_i X_ik P_ik)
        H = 2 J^T J - 2 [(X o Y) + (X o Y)^T]
            - 2 diag(sum_j X_kj^2 + sum_i X_ik^2)

    where J is that Jacobian and o the element-wise product.  Works on
    stacks of W.
    """
    p = w[..., 0::2, 0::2]
    x = w[..., 0::2, 1::2]
    y = w[..., 1::2, 0::2]
    q = w[..., 1::2, 1::2]
    grad = 2.0 * (np.sum(x * q, axis=-1) - np.sum(x * p, axis=-2))
    pq = p * q
    xy = x * y
    jtj_diag = np.sum(q**2, axis=-1) + np.sum(p**2, axis=-2)
    x_diag = np.sum(x**2, axis=-1) + np.sum(x**2, axis=-2)
    hess = -2.0 * (pq + np.swapaxes(pq, -1, -2) + xy + np.swapaxes(xy, -1, -2))
    n = w.shape[-1] // 2
    hess[..., np.arange(n), np.arange(n)] += 2.0 * (jtj_diag - x_diag)
    return grad, hess


def own_iq_angles(v: CovarianceMatrix) -> np.ndarray:
    """Per-mode angles zeroing each mode's own <IQ> covariance.

    A stacked ``v`` gives one row of angles per matrix.
    """
    a = np.diagonal(v.v[..., 0::2, 0::2], axis1=-2, axis2=-1)
    b = np.diagonal(v.v[..., 1::2, 1::2], axis1=-2, axis2=-1)
    c = np.diagonal(v.v[..., 0::2, 1::2], axis1=-2, axis2=-1)
    return 0.5 * np.arctan2(2.0 * c, a - b)


# Newton iteration of decorrelate_iq.  The gradient tolerance is relative
# to ||V||_F^2, the scale of f's derivatives.  Levenberg damping is relative
# to the Hessian's largest |eigenvalue|; once it passes _NEWTON_DAMP_MAX a
# failed step is a short gradient step, so only rounding is left to gain.
# f itself is computed to about eps ||X||_F ||V||_F, and _NEWTON_F_ROUNDING
# scales sqrt(f) ||V||_F into the rise a step may make within that error.
_NEWTON_GTOL = 1e-12
_NEWTON_DAMP_START = 1e-1
_NEWTON_DAMP_MIN = 1e-12
_NEWTON_DAMP_MAX = 10.0
_NEWTON_MAX_ITER = 100
_NEWTON_F_ROUNDING = 1e-12
# f is pi-periodic in each angle, so longer steps only alias
_NEWTON_MAX_STEP = 0.25 * np.pi


def _iq_starts(v: CovarianceMatrix) -> np.ndarray:
    """Starting angles of a (K, 2N, 2N) stack, (K, S, N): per matrix, zero
    and shifts of its ``own_iq_angles``.

    f is invariant under a pi/2 turn of every mode (the II and QQ blocks
    swap and X becomes -X^T), so two starts that differ by that turn follow
    the same Newton path, shifted; only rounding tells them apart, and one
    of each such pair is kept.  For N <= 6 that leaves S = 2^(N-1) + 1
    starts, for N > 6 S = 5.
    """
    n = v.n_modes
    base = own_iq_angles(v)
    if n <= 6:
        # f is pi-periodic in each angle, so {0, pi/2}^n holds every
        # distinct pi/2 shift of the own-zeroing solution; flipping every
        # bit gives the twin, so the shifts that leave the last mode alone
        # hold one of each pair
        bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n)) & 1
        shifts = 0.5 * np.pi * bits
    else:
        # shift k + 4 is the pi/2 twin of shift k
        shifts = np.arange(4)[:, None] * (np.pi / 8.0)
    return np.concatenate(
        [np.zeros((len(base), 1, n)), base[:, None, :] + shifts], axis=1)


def _damped_step(hess, grad, damp, scale):
    """Levenberg-damped Newton step of each start, at most _NEWTON_MAX_STEP
    per angle."""
    e, u = np.linalg.eigh(hess)
    unit = np.maximum(np.abs(e).max(axis=-1), np.finfo(float).eps * scale)
    shift = np.maximum(0.0, -e[:, 0]) + damp * unit
    coef = np.einsum("bji,bj->bi", u, grad) / (e + shift[:, None])
    step = -np.einsum("bij,bj->bi", u, coef)
    longest = np.abs(step).max(axis=-1, keepdims=True)
    step *= _NEWTON_MAX_STEP / np.maximum(longest, _NEWTON_MAX_STEP)
    return step


def _iq_state(v, rows, angles):
    """f, its gradient and its Hessian, per start.

    Start i rotates ``v[rows[i]]`` by ``angles[i]``.  The gathered and the
    rotated stacks are dropped as soon as they are used, so that at most
    three start-sized stacks are alive at a time.
    """
    f, w = _iq_objective(v[rows], angles)
    grad, hess = _iq_derivatives(w)
    return f, grad, hess


def _decorrelate_stack(v: CovarianceMatrix):
    """``decorrelate_iq`` of each matrix of a (K, 2N, 2N) stack.

    The Newton loop runs on all K S starts of ``_iq_starts`` at once (S =
    2^(N-1) + 1 for N <= 6, 5 above), each against its own matrix; returns
    the rotated stack W, the (K, N) angles and the K residuals.  Of each
    start only f and its derivatives are kept.
    """
    k, n = v.v.shape[0], v.n_modes
    theta = _iq_starts(v)
    starts = theta.shape[1]
    theta = theta.reshape(k * starts, n)
    owner = np.repeat(np.arange(k), starts)
    f, grad, hess = _iq_state(v.v, owner, theta)
    gnorm = np.linalg.norm(grad, axis=-1)
    scale = np.sum(v.v**2, axis=(-2, -1))[owner]
    damp = np.full(theta.shape[0], _NEWTON_DAMP_START)
    active = gnorm > _NEWTON_GTOL * scale
    for _ in range(_NEWTON_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        trial = theta[idx] + _damped_step(hess[idx], grad[idx], damp[idx], scale[idx])
        f_trial, g_trial, h_trial = _iq_state(v.v, owner[idx], trial)
        gn_trial = np.linalg.norm(g_trial, axis=-1)
        # near the optimum f stops resolving Newton's decrease long before
        # the angles converge; there a step that keeps f within its rounding
        # is judged by the gradient it leaves
        level = f[idx] + _NEWTON_F_ROUNDING * np.sqrt(f[idx] * scale[idx])
        better = (f_trial < f[idx]) | (
            (f_trial <= level) & (gn_trial <= 0.5 * gnorm[idx])
        )
        ok, bad = idx[better], idx[~better]
        theta[ok], f[ok] = trial[better], f_trial[better]
        grad[ok], hess[ok], gnorm[ok] = g_trial[better], h_trial[better], gn_trial[better]
        damp[ok] = np.maximum(damp[ok] / 10.0, _NEWTON_DAMP_MIN)
        damp[bad] *= 100.0
        active[ok[gnorm[ok] <= _NEWTON_GTOL * scale[ok]]] = False
        active[bad[damp[bad] > _NEWTON_DAMP_MAX]] = False
        del g_trial, h_trial  # not alive while the next trial is evaluated

    best = np.arange(k) * starts + np.argmin(f.reshape(k, starts), axis=1)
    angles = theta[best]
    # turning every mode by pi/2 swaps the II and QQ blocks and maps X to
    # -X^T, so f ties exactly; keep the twin whose I quadratures carry more
    # variance, as own_iq_angles does per mode
    d = np.diagonal(_iq_objective(v.v, angles)[1], axis1=1, axis2=2)
    angles[d[:, 1::2].sum(axis=1) > d[:, 0::2].sum(axis=1)] += 0.5 * np.pi
    angles = np.mod(angles + 0.5 * np.pi, np.pi) - 0.5 * np.pi
    _, w = _iq_objective(v.v, angles)
    ii, qq, iq = (w[:, i::2, j::2].reshape(k, -1) for i, j in ((0, 0), (1, 1), (0, 1)))
    in_block = np.maximum(np.maximum(np.sqrt(rowdot(ii, ii)), np.sqrt(rowdot(qq, qq))), 1e-300)
    return w, angles, np.sqrt(rowdot(iq, iq)) / in_block


def decorrelate_iq(v: CovarianceMatrix):
    """Find per-mode rotation angles minimising the I-Q cross block.

    Zeroing each mode's own <IQ> moment pins its angle only modulo pi/2
    (and not at all for isotropic modes), so the remaining freedom is used
    to suppress inter-mode I-Q correlations as well: f = ||IQ block||^2 is
    minimised by damped Newton steps with the analytic gradient and Hessian
    of ``_iq_derivatives``, from all starts of ``_iq_starts`` at once.
    They are the zero angles and 2^(N-1) pi/2 shifts of the own-zeroing
    angles (for N > 6, four shifts of pi/8): of two shifts that a pi/2 turn
    of every mode exchanges only one is run, since f is invariant under
    that turn.  Each start shifts its Hessian to be positive definite
    (Levenberg damping), accepts a step only where f decreases, or where f
    stays within its rounding error and the gradient norm halves, and stops
    once its gradient vanishes or its damping saturates.  The best start
    wins, its angles reduced modulo pi
    (f and the witness are pi-periodic per mode) into [-pi/2, pi/2).  Of
    the two optima related by a pi/2 turn of every mode, the one with
    tr(II) >= tr(QQ) is returned.  Deterministic.

    Returns (rotated CovarianceMatrix, angles, residual) where residual is
    ||IQ block|| / max(||II block||, ||QQ block||) after rotation.
    """
    w, angles, residual = _decorrelate_stack(_one(v))
    return CovarianceMatrix(v.n_modes, w[0]), angles[0], float(residual[0])


# ---------------------------------------------------------------------------
# Multipartite witness


@dataclass
class EntanglementReport:
    """Witness value and optimisers for one bipartition.

    The report of a (K, 2N, 2N) stack carries the interval axis first:
    ``value`` and ``iq_residual`` of shape (K,), ``h``, ``g`` and
    ``angles`` of shape (K, N), and one list of ``flags`` per interval.
    """

    bipartition: Bipartition
    value: float
    h: np.ndarray
    g: np.ndarray
    angles: Optional[np.ndarray] = None
    iq_residual: Optional[float] = None
    flags: list = field(default_factory=list)


def _first(rep: EntanglementReport) -> EntanglementReport:
    """The report of a stack of one as that of its one matrix."""
    return EntanglementReport(
        rep.bipartition, float(rep.value[0]), rep.h[0], rep.g[0],
        None if rep.angles is None else rep.angles[0],
        None if rep.iq_residual is None else float(rep.iq_residual[0]), rep.flags[0])


def _svl_values(v, sides, h, g):
    """E(h, g) of every (interval, bipartition) pair of (K, B, N) ``h`` and
    ``g``, on the (K, 2N, 2N) stack ``v``; ``sides`` masks each bipartition's
    parts A and B, (B, 2, N).  The forms multiply the strided blocks and the
    overlaps add the modes in order, so each value rounds as the one-row
    ``x @ V_II @ x`` and the Python sum over a part do."""
    qh, qg = (((x[..., None, :] @ v[:, None, i::2, i::2]) @ x[..., None])[..., 0, 0]
              for i, x in enumerate((h, g)))
    t = 2.0 * np.abs(np.add.reduce(np.where(sides, (h * g)[..., None, :], 0.0), axis=-1))
    return qh + qg - t[..., 0] - t[..., 1]


def svl_value(v: CovarianceMatrix, bipartition: Bipartition, h, g) -> float:
    """Witness E(h, g) = h^T V_II h + g^T V_QQ g - 2|<h,g>_A| - 2|<h,g>_B|."""
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    if h.shape != (v.n_modes,) or g.shape != (v.n_modes,):
        raise DimensionMismatchError("h and g must each have one entry per mode")
    sides = np.zeros((1, 2, v.n_modes), dtype=bool)
    sides[0, 0, list(bipartition.part_a)] = sides[0, 1, list(bipartition.part_b)] = True
    return float(_svl_values(v.v[None], sides, h[None, None], g[None, None])[0, 0])


def _witness_reports(v: CovarianceMatrix, bipartitions, decorrelate: bool):
    """Witness reports of a (K, 2N, 2N) stack, one per bipartition.

    All K (1 + B) matrices are diagonalised in one ``eigh``.  Per matrix,
    row 0 is the shared Q(+,+) = [[V_II, -I], [-I, V_QQ]] and row b is
    Q(+,-) of bipartition b, with S = +1 on part A and -1 on part B.  Each
    bipartition takes the lower of the two smallest eigenvalues, Q(+,+) on
    a tie (see ``svl_test``).
    """
    n = v.n_modes
    if v.v.ndim != 3 or any(bp.n_modes != n for bp in bipartitions):
        raise DimensionMismatchError("bipartition and covariance sizes differ")
    k = v.v.shape[0]

    angles = residual = None
    flags = [[] for _ in range(k)]
    if decorrelate:
        w, angles, residual = _decorrelate_stack(v)
        v = CovarianceMatrix(n, w)
        flags = [["iq_residual_above_limit"] if r > IQ_RESIDUAL_LIMIT else [] for r in residual]

    signs = np.ones((1 + len(bipartitions), n))
    for row, bp in zip(signs[1:], bipartitions):
        row[list(bp.part_b)] = -1.0
    q = np.zeros((k, len(signs), 2 * n, 2 * n))
    q[:, :, :n, :n] = v.v[:, None, 0::2, 0::2]
    q[:, :, n:, n:] = v.v[:, None, 1::2, 1::2]
    d = np.arange(n)
    q[:, :, d, n + d] = q[:, :, n + d, d] = -signs
    lams, vecs = np.linalg.eigh(q)

    rows = np.arange(k)[:, None]
    best = np.where(lams[:, 1:, 0] < lams[:, :1, 0], np.arange(1, len(signs)), 0)
    x = np.sqrt(2.0) * vecs[rows, best, :, 0]  # ||h||^2 + ||g||^2 = 2
    h, g = x[..., :n], x[..., n:]
    values = _svl_values(v.v, np.stack([signs[1:] > 0.0, signs[1:] < 0.0], axis=1), h, g)
    # the evaluator re-derives the overlap signs, so it must agree exactly
    if np.any(np.abs(values - 2.0 * lams[rows, best, 0]) > 1e-8 * (1.0 + np.abs(values))):
        raise OptimizerFailureError("witness evaluator disagrees with eigenvalue optimum")
    return [EntanglementReport(bp, values[:, b], h[:, b], g[:, b], angles, residual,
                               [list(f) for f in flags])
            for b, bp in enumerate(bipartitions)]


def svl_test(
    v: CovarianceMatrix,
    bipartition: Bipartition,
    decorrelate: bool = True,
) -> EntanglementReport:
    """Global minimum of the witness over ||h||^2 + ||g||^2 = 2.

    Splitting by the signs (sA, sB) of the two partition overlaps turns the
    constrained problem into symmetric eigenproblems

        Q(s) = [[V_II, -S], [-S, V_QQ]],   S = diag(sA on A, sB on B),

    whose smallest doubled eigenvalue over the sign patterns is the exact
    optimum.  With D = diag(I, -I), D Q(s) D = Q(-s): the patterns (-,-)
    and (-,+) have the spectra of (+,+) and (+,-), so only those two are
    solved, and Q(+,+) does not depend on the bipartition.  E < 0
    certifies entanglement across the bipartition.
    """
    return _first(_witness_reports(_one(v), [bipartition], decorrelate)[0])


def all_bipartition_reports(v: CovarianceMatrix):
    """Witness reports for every bipartition, in one common rotated frame.

    A (K, 2N, 2N) stack is decorrelated and tested as one, and gives one
    report per bipartition whose fields carry the interval axis.
    """
    if v.v.ndim == 2:
        return [_first(rep) for rep in all_bipartition_reports(_one(v))]
    return _witness_reports(v, all_bipartitions(v.n_modes), decorrelate=True)


# ---------------------------------------------------------------------------
# Error propagation through the amplification chain


def propagate_errors(v_meas: CovarianceMatrix, amp, sem=None) -> np.ndarray:
    """Per-element uncertainty of the de-embedded covariance.

    ``v_meas`` is the measured (amplified) covariance, ``amp`` the calibrated
    AmplifierModel carrying fit uncertainties, ``sem`` the statistical
    standard errors of the measured elements (same shape, amplified units).
    Four contributions per element: gain-fit leverage, added-noise fit
    (diagonal), de-embedded statistical error, and the gain/noise fit
    covariance cross term (diagonal); returned as a symmetric 2N x 2N array,
    or a stack of them for a stacked ``v_meas`` and ``sem``.
    """
    if amp.sigma_gain is None or amp.sigma_noise is None:
        raise MissingFitCovarianceError(
            "amplifier model carries no fit uncertainties"
        )
    n = v_meas.n_modes
    if amp.n_modes != n:
        raise DimensionMismatchError("amplifier and covariance mode counts differ")
    vm = v_meas.v
    if sem is None:
        sem = np.zeros_like(vm)
    sem = np.asarray(sem, dtype=float)
    if sem.shape != vm.shape:
        raise DimensionMismatchError("sem must match the covariance shape")
    sem = 0.5 * (sem + np.swapaxes(sem, -1, -2))

    cov_gn = np.zeros(n) if amp.cov_gain_noise is None else amp.cov_gain_noise
    # element (a, b) belongs to mode i = a // 2 along its row and j = b // 2
    # along its column; ``diag`` keeps the terms that only variances carry
    gi, sgi, ni, sni, ci = (np.repeat(x, 2)[:, None] for x in (
        amp.gain, amp.sigma_gain, amp.added_photons, amp.sigma_noise, cov_gn))
    gj, sgj = gi.T, sgi.T
    diag = np.eye(2 * n)
    v_aa = np.diagonal(deamplify(v_meas, amp).v, axis1=-2, axis2=-1)[..., None]
    # float_power rounds like the scalar x ** k (C pow); array ** squares by
    # multiplication, which differs in the last bit for a few inputs
    pw = np.float_power
    # gain-fit leverage (three terms), added-noise fit, de-embedded
    # statistical error and the gain/noise fit covariance, summed in order
    var = ((1.0 + diag) * (pw(vm / (2.0 * np.sqrt(pw(gi, 3) * gj)) * sgi, 2)
                           + pw(vm / (2.0 * np.sqrt(pw(gj, 3) * gi)) * sgj, 2))
           + 2.0 * diag * pw((2.0 * ni + 1.0) * sgi / gi, 2)
           + diag * pw(2.0 * sni, 2)
           + pw(sem, 2) / (gi * gj)
           + diag * 4.0 * (v_aa - (2.0 * ni + 1.0)) / gi * ci)
    if np.any(var < 0.0):
        warnings.warn(
            "negative propagated variance clamped to zero",
            PhysicalityWarning,
            stacklevel=2,
        )
    return np.sqrt(np.maximum(var, 0.0))


def entanglement_sigma(sigma_matrix, h, g, angles=None):
    """Uncertainty of the witness value from per-element sigmas.

    Linear propagation of E through its quadratic forms: in the frame
    where h and g were found, E depends on the covariance through
    tr(C W) with C = h h^T on the II block and g g^T on the QQ block.
    ``angles`` are the per-mode rotations W = R V R^T from the frame of
    ``sigma_matrix`` into that frame (``EntanglementReport.angles``), so
    dE = sum_ij (R^T C R)_ij dV_ij; None means the two frames coincide.
    Leading axes of the arguments broadcast against each other: one sigma
    is a float, a stack of them an array.
    """
    sigma_matrix = np.asarray(sigma_matrix, dtype=float)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))
    n = h.shape[-1]
    if sigma_matrix.shape[-2:] != (2 * n, 2 * n) or g.shape[-1] != n:
        raise DimensionMismatchError("sigma matrix does not match h and g")
    c = np.zeros(np.broadcast_shapes(h.shape, g.shape)[:-1] + (2 * n, 2 * n))
    c[..., 0::2, 0::2] = h[..., :, None] * h[..., None, :]
    c[..., 1::2, 1::2] = g[..., :, None] * g[..., None, :]
    if angles is not None:
        r = mode_rotation(angles)
        c = np.swapaxes(r, -1, -2) @ c @ r
    sigma = np.sqrt(np.sum((c * sigma_matrix) ** 2, axis=(-2, -1)))
    return float(sigma) if sigma.ndim == 0 else sigma


def significance(values: Sequence[float], sigmas: Sequence[float]) -> float:
    """Inverse-variance weighted significance of repeated witness values.

    Returns weighted mean / weighted standard error; more negative means a
    stronger violation.  Two intervals with equal (E, sigma) give sqrt(2)
    times the single-interval ratio.
    """
    values = np.asarray(values, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if values.size == 0 or values.shape != sigmas.shape:
        raise DimensionMismatchError("values and sigmas must match and be non-empty")
    if np.any(sigmas <= 0.0):
        raise ZeroVarianceError("all witness sigmas must be positive")
    weights = 1.0 / sigmas**2
    return float(np.sum(values * weights) / np.sqrt(np.sum(weights)))
