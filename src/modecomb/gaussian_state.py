"""Gaussian states, the amplification chain, and quadrature statistics.

Covariance matrices use the interleaved quadrature basis (I_1, Q_1, ...) with
I = b + b^dag, so the vacuum covariance is the identity and a thermal mode has
variance 2 n_bar + 1. Physicality means V + i Omega >= 0, which also implies
V >= 0 for real symmetric V.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bases import min_physicality_eigenvalue, mode_rotation
from .constants import hbar as _HBAR
from .constants import k as _KB
from .errors import (
    DimensionMismatchError,
    EmptySamplesError,
    GainBelowUnityError,
    NotPSDError,
    NumericalError,
    ZeroVarianceError,
)

SYMMETRY_RTOL = 1e-12


def bose_occupation(omega, temperature):
    """Mean thermal occupation of a mode at angular frequency omega (rad/s)."""
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError("omega must be positive")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if temperature == 0:
        return np.zeros_like(omega)
    x = _HBAR * omega / (_KB * temperature)
    return 1.0 / np.expm1(x)


@dataclass
class CovarianceMatrix:
    """Real symmetric quadrature covariance matrix, interleaved basis.

    ``v`` may carry leading axes that stack matrices (one per probe point);
    each one is checked for symmetry on its own scale. ``rotate``,
    ``amplify``, ``deamplify``, ``covariance_sem`` and
    ``correlation_quantity`` take stacks; the other methods take one matrix
    and raise DimensionMismatchError on a stack.
    """

    n_modes: int
    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.shape[-2:] != (2 * self.n_modes, 2 * self.n_modes):
            raise DimensionMismatchError(
                f"covariance must be {2 * self.n_modes} x {2 * self.n_modes}, got {v.shape}"
            )
        vt = np.swapaxes(v, -1, -2)
        # per matrix: max |V - V^T| against max(1, max |V|)
        asym = np.max(np.abs(v - vt), axis=(-2, -1), initial=0.0)
        if np.any(asym > SYMMETRY_RTOL * np.max(np.abs(v), axis=(-2, -1), initial=1.0)):
            raise DimensionMismatchError("covariance matrix is not symmetric")
        self.v = (v + vt) / 2.0

    @classmethod
    def vacuum(cls, n_modes):
        return cls(n_modes, np.eye(2 * n_modes))

    def _single(self, method):
        """The one matrix of ``v``; a stack is refused."""
        if self.v.ndim != 2:
            raise DimensionMismatchError(
                f"{method} takes one covariance matrix, not a stack of shape {self.v.shape}"
            )
        return self.v

    def min_physicality_eigenvalue(self):
        """Smallest eigenvalue of V + i Omega."""
        return min_physicality_eigenvalue(self._single("min_physicality_eigenvalue"))

    def submatrix(self, mode_positions):
        """Covariance of a subset of modes, keeping the given order."""
        v = self._single("submatrix")
        idx = []
        for p in mode_positions:
            if not 0 <= p < self.n_modes:
                raise DimensionMismatchError(f"mode position {p} out of range")
            idx += [2 * p, 2 * p + 1]
        return CovarianceMatrix(len(mode_positions), v[np.ix_(idx, idx)])

    def rotate(self, angles):
        """Apply per-mode quadrature rotations (drift compensation, decorrelation).

        Angles of shape (..., N) broadcast against the leading axes of ``v``.
        """
        r = mode_rotation(angles)
        if r.shape[-1] != self.v.shape[-1]:
            raise DimensionMismatchError("need one rotation angle per mode")
        return CovarianceMatrix(self.n_modes, r @ self.v @ np.swapaxes(r, -1, -2))


def thermal_covariance(modes, temperature):
    """Thermal state of uncoupled modes: V = diag(2 n_bar_j + 1).

    ``modes`` is a sequence of ModeSpec. Temperature 0 returns the vacuum.
    """
    n_bar = bose_occupation([m.omega for m in modes], temperature)
    diag = np.repeat(2.0 * n_bar + 1.0, 2)
    return CovarianceMatrix(len(modes), np.diag(diag))


def two_mode_squeezed_covariance(r, phase=0.0):
    """Ideal two-mode squeezed vacuum with squeezing parameter r.

    At phase 0 the cross block is diag(sinh 2r, -sinh 2r), i.e. I quadratures
    correlated, Q quadratures anticorrelated.
    """
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    cp, sp = np.cos(2.0 * phase), np.sin(2.0 * phase)
    cross = s * np.array([[cp, sp], [sp, -cp]])
    v = np.eye(4) * c
    v[:2, 2:] = cross
    v[2:, :2] = cross.T
    return CovarianceMatrix(2, v)


def output_covariance(pair, v_in, v_loss=None):
    """Propagate input and loss-port covariances through a scattering pair.

    ``pair`` must already be in the quadrature basis; ``v_loss`` defaults to
    ``v_in`` (both ports thermalized identically). A stacked pair gives a
    stacked covariance.
    """
    if pair.basis != "quadrature":
        raise DimensionMismatchError(
            "scattering pair must be converted with to_quadrature() first"
        )
    if v_loss is None:
        v_loss = v_in
    if v_in.n_modes != pair.n_modes or v_loss.n_modes != pair.n_modes:
        raise DimensionMismatchError("covariance and scattering mode counts differ")
    s, s_loss = pair.s, pair.s_loss
    v = s @ v_in.v @ np.swapaxes(s, -1, -2) + s_loss @ v_loss.v @ np.swapaxes(s_loss, -1, -2)
    return CovarianceMatrix(pair.n_modes, v)


@dataclass
class AmplifierModel:
    """Phase-insensitive amplification chain, one gain per mode.

    The measured covariance is T V T + N with T = diag(sqrt(G_i)) per
    quadrature and N = diag((G_i - 1)(2 n_i + 1)).
    Fit uncertainties ride along for error propagation.
    """

    n_modes: int
    gain: np.ndarray
    added_photons: np.ndarray
    sigma_gain: np.ndarray = None
    sigma_noise: np.ndarray = None
    cov_gain_noise: np.ndarray = None

    def __post_init__(self):
        n = self.n_modes
        self.gain = np.asarray(self.gain, dtype=float)
        self.added_photons = np.asarray(self.added_photons, dtype=float)
        # fit uncertainties may legitimately be absent (None); keep the marker
        names = ["gain", "added_photons"]
        names += [
            name
            for name in ("sigma_gain", "sigma_noise", "cov_gain_noise")
            if getattr(self, name) is not None
        ]
        for name in names:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise DimensionMismatchError(f"{name} must have shape ({n},)")
            setattr(self, name, arr)
        if np.any(self.gain < 1.0):
            raise GainBelowUnityError("power gains below unity are not supported")
        if np.any(self.added_photons < 0):
            raise ValueError("added photon numbers must be non-negative")
        if self.sigma_gain is not None and np.any(self.sigma_gain < 0):
            raise ValueError("fit standard errors must be non-negative")
        if self.sigma_noise is not None and np.any(self.sigma_noise < 0):
            raise ValueError("fit standard errors must be non-negative")
        if self.has_fit_uncertainties():
            # per-mode 2x2 fit covariance [[sG^2, c], [c, sn^2]] must stay PSD
            bad = np.abs(self.cov_gain_noise) > self.sigma_gain * self.sigma_noise + 1e-300
            if np.any(bad):
                raise ValueError("cov_gain_noise exceeds sigma_gain * sigma_noise")

    def has_fit_uncertainties(self):
        return (
            self.sigma_gain is not None
            and self.sigma_noise is not None
            and self.cov_gain_noise is not None
        )

    @classmethod
    def uniform(cls, n_modes, gain, added_photons, **kwargs):
        arrays = {
            key: np.full(n_modes, float(val))
            for key, val in kwargs.items()
            if val is not None
        }
        return cls(
            n_modes,
            np.full(n_modes, float(gain)),
            np.full(n_modes, float(added_photons)),
            **arrays,
        )

    def t_diagonal(self):
        return np.repeat(np.sqrt(self.gain), 2)

    def n_diagonal(self):
        per_mode = (self.gain - 1.0) * (2.0 * self.added_photons + 1.0)
        return np.repeat(per_mode, 2)


def amplify(v, amp):
    """Measured-domain covariance T V T + N."""
    if v.n_modes != amp.n_modes:
        raise DimensionMismatchError("amplifier and covariance mode counts differ")
    t = amp.t_diagonal()
    return CovarianceMatrix(v.n_modes, t[:, None] * v.v * t[None, :] + np.diag(amp.n_diagonal()))


def deamplify(v, amp):
    """Exact algebraic inverse of amplify; takes stacks."""
    if v.n_modes != amp.n_modes:
        raise DimensionMismatchError("amplifier and covariance mode counts differ")
    t = amp.t_diagonal()
    return CovarianceMatrix(v.n_modes, (v.v - np.diag(amp.n_diagonal())) / t[:, None] / t[None, :])


def correlation_quantity(v):
    """Root-sum-square of the four cross-mode covariance elements (two modes).

    A float for one matrix, an array over the leading axes of a stack.

    For an ideal two-mode squeezed state this equals sqrt(2) sinh(2r), and it
    is invariant under local quadrature rotations, so it identifies r
    independently of the squeezing axis.
    """
    if v.n_modes != 2:
        raise DimensionMismatchError("correlation quantity is defined for mode pairs")
    cross = v.v[..., :2, 2:]
    c = np.sqrt(np.sum(cross**2, axis=(-2, -1)))
    return float(c) if c.ndim == 0 else c


@dataclass
class QuadratureSamples:
    """Rows of simulated quadrature records, interleaved columns."""

    n_modes: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[1] != 2 * self.n_modes:
            raise DimensionMismatchError("samples must have 2 N columns")

    @property
    def n_samples(self):
        return self.data.shape[0]

    def covariance(self):
        if self.n_samples < 2:
            raise EmptySamplesError("need at least two samples for a covariance")
        return CovarianceMatrix(self.n_modes, np.cov(self.data, rowvar=False, ddof=1))

    def covariance_with_sem(self):
        """Sample covariance and the per-element standard error.

        See ``covariance_sem``.
        """
        cm = self.covariance()
        return cm, covariance_sem(cm, self.n_samples)

    def rotate(self, angles):
        r = mode_rotation(angles)
        return QuadratureSamples(self.n_modes, self.data @ r.T)


def _psd_root(v):
    """Symmetric square root of a covariance (or a stack of them).

    Eigenvalues in (-1e-10, 0) are clipped to zero, anything lower raises
    NotPSDError.
    """
    evals, evecs = np.linalg.eigh(v)
    if np.any(evals[..., 0] < -1e-10):
        raise NotPSDError(f"covariance eigenvalue {np.min(evals[..., 0]):.3e} below -1e-10")
    return (evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]) @ np.swapaxes(evecs, -1, -2)


def sample(v, n_samples, seed):
    """Draw multivariate-normal quadrature records from a covariance matrix.

    Uses the symmetric eigendecomposition square root (see ``_psd_root``).
    Identical seeds give identical samples.
    """
    if n_samples <= 0:
        raise EmptySamplesError("n_samples must be positive")
    root = _psd_root(v.v)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((int(n_samples), 2 * v.n_modes)) @ root
    return QuadratureSamples(v.n_modes, data)


@lru_cache(maxsize=None)
def _below_diagonal(d, r):
    """Read-only row and column indices of the strictly lower triangle of a
    d x r matrix, shared by every call."""
    below = np.tril_indices(d, -1, r)
    for arr in below:
        arr.flags.writeable = False
    return below


def sample_covariance(v, n_rows, seed):
    """Sample covariance of simulated records, drawn without the records.

    ``v`` holds one covariance Sigma_i per interval (a single matrix is one
    interval); each interval contributes ``n_rows`` = m zero-mean Gaussian
    rows with covariance Sigma_i.  Returns the ddof=1 sample covariance of
    all K m rows about their grand mean, with exactly the distribution
    that ``sample`` followed by ``QuadratureSamples.covariance`` gives:

    * the scatter of interval i about its own mean is W_i ~ Wishart(Sigma_i,
      m - 1), drawn by Bartlett's decomposition L A A^T L^T with L the PSD
      root of Sigma_i and A lower triangular (d x min(d, m - 1)) with
      chi-distributed diagonal and standard normals below it;
    * the interval's row sum is s_i ~ N(0, m Sigma_i);
    * pooled: (sum W_i + sum s_i s_i^T / m - S S^T / (K m)) / (K m - 1) with
      S = sum s_i.

    That is d (d + 1) / 2 + d random numbers per interval instead of m d.
    It is the one-pool case of ``sample_covariance_stack``.  Identical
    seeds give identical results.
    """
    d = 2 * v.n_modes
    pool = CovarianceMatrix(v.n_modes, v.v.reshape(1, -1, d, d))
    return CovarianceMatrix(v.n_modes, sample_covariance_stack(pool, n_rows, [seed]).v[0])


def sample_covariance_stack(v, n_rows, seeds):
    """One pooled sample covariance per seed, as ``sample_covariance`` draws it.

    ``v`` is one covariance, which each seed draws one interval of its own
    from, or a (P, K, 2N, 2N) stack with one seed per pool: pool p pools
    the K intervals v[p], each of ``n_rows`` rows.  Pool p is bit for bit
    ``sample_covariance(v[p], n_rows, seeds[p])``: it draws its random
    numbers from its own ``default_rng(seeds[p])`` in the same order, but
    the PSD roots are taken in one call and the P pools are assembled as
    one stack.  Returns that (P, 2N, 2N) stack as one CovarianceMatrix.
    """
    d = 2 * v.n_modes
    if v.v.ndim not in (2, 4) or (v.v.ndim == 4 and len(v.v) != len(seeds)):
        raise DimensionMismatchError(
            f"need one covariance or a (pools, intervals) stack with one seed "
            f"per pool, got shape {v.v.shape} and {len(seeds)} seeds")
    root = _psd_root(v.v)
    if root.ndim == 2:
        root = np.broadcast_to(root, (len(seeds), 1, d, d))
    k, m = root.shape[1], int(n_rows)
    if len(seeds) == 0 or m < 1 or k * m < 2:
        raise EmptySamplesError("need at least one seed and two rows per pool")
    a, z = (np.stack(parts) for parts in zip(*(
        _bartlett_normals(np.random.default_rng(seed), k, d, m - 1) for seed in seeds)))
    return CovarianceMatrix(v.n_modes, _pooled_scatter(root, a, z, m))


def _bartlett_normals(rng, k, d, dof):
    """Bartlett factors A of K Wishart draws with ``dof`` degrees of freedom,
    (K, d, min(d, dof)), and K standard normal d-vectors z.

    ``rng`` draws A's normals below the diagonal, then its chi-distributed
    diagonal, then z.
    """
    r = min(d, dof)
    a = np.zeros((k, d, r))
    below = _below_diagonal(d, r)
    a[:, below[0], below[1]] = rng.standard_normal((k, below[0].size))
    diag = np.arange(r)
    a[:, diag, diag] = np.sqrt(rng.chisquare(dof - diag, size=(k, r)))
    return a, rng.standard_normal((k, d))


def _pooled_scatter(root, a, z, m):
    """ddof=1 sample covariance of each of P pools of K intervals, (P, d, d).

    Axis 0 of ``root``, ``a`` and ``z`` counts the pools, axis 1 the
    intervals of each.  Interval (p, i) has ``m`` rows, the PSD root
    L = ``root[p, i]``, the Bartlett factor A = ``a[p, i]`` and the row sum
    s = sqrt(m) L ``z[p, i]``; each pool's covariance is taken about the
    grand mean of its K m rows.
    """
    la = root @ a
    sums = np.sqrt(m) * np.einsum("pkij,pkj->pki", root, z)
    p, k, d, r = la.shape
    la = np.swapaxes(la, 1, 2).reshape(p, d, k * r)
    total = sums.sum(axis=1)
    scatter = (la @ np.swapaxes(la, 1, 2) + np.swapaxes(sums, 1, 2) @ sums / m
               - total[:, :, None] * total[:, None, :] / (k * m))
    return scatter / (k * m - 1.0)


def covariance_sem(v, n_rows):
    """Standard error of each element of a sample covariance of n_rows rows.

    Gaussian (Wishart) element variance: Var(V_ij) = (V_ii V_jj + V_ij^2) / (n - 1).
    A stacked ``v`` gives a stack.
    """
    d = np.diagonal(v.v, axis1=-2, axis2=-1)
    return np.sqrt((d[..., :, None] * d[..., None, :] + v.v**2) / (n_rows - 1.0))


def _mode_pair(pair, n_modes):
    """``pair`` as (j, k); DimensionMismatchError unless two distinct modes of n_modes."""
    j, k = pair
    if not (0 <= j < n_modes and 0 <= k < n_modes) or j == k:
        raise DimensionMismatchError(f"pair {pair!r} is not two distinct modes of {n_modes}")
    return j, k


def drift_compensation_angle(cov, pair):
    """Common rotation angle maximizing the <I_j I_k> correlation of a pair.

    The rotated correlator is harmonic in 2 alpha, so the maximizer is
    alpha = atan2(b, a) / 2 with a = <I_j I_k> - <Q_j Q_k> and
    b = <I_j Q_k> + <Q_j I_k>.  A float for one matrix, an array over the
    leading axes of a stack.
    """
    v = cov.v
    j, k = _mode_pair(pair, cov.n_modes)
    a = v[..., 2 * j, 2 * k] - v[..., 2 * j + 1, 2 * k + 1]
    b = v[..., 2 * j, 2 * k + 1] + v[..., 2 * j + 1, 2 * k]
    alpha = 0.5 * np.arctan2(b, a)
    return float(alpha) if alpha.ndim == 0 else alpha


def squeezing_stats(on, off, pair):
    """Squeezing ratios of a mode pair from pump-on and pump-off covariances.

    ``on`` and ``off`` are CovarianceMatrix objects: sample covariances give
    the measured ratios, model covariances the infinite-statistics
    prediction.  Floats (R_e, R_p) for one matrix each; for stacks, arrays
    over their broadcast leading axes.

    Both states are first rotated by the drift-compensation angle that
    maximizes the pump-on <I_j I_k> correlator. R_e is then the ratio of the
    larger to the smaller standard deviation of the two combinations
    I_j +- I_k (pump on), and R_p compares the squeezed combination against
    the rms single-mode pump-off amplitude, so an ideal two-mode squeezed
    state over vacuum gives sqrt(2) e^-r.
    """
    j, k = _mode_pair(pair, on.n_modes)
    alpha = drift_compensation_angle(on, pair)
    angles = np.zeros(np.shape(alpha) + (on.n_modes,))
    angles[..., j] = angles[..., k] = alpha
    on = on.rotate(angles).v
    off = off.rotate(angles).v
    # variances of I_j + I_k and I_j - I_k
    diag = on[..., 2 * j, 2 * j] + on[..., 2 * k, 2 * k]
    cross = 2 * on[..., 2 * j, 2 * k]
    low, high = np.minimum(diag + cross, diag - cross), np.maximum(diag + cross, diag - cross)
    if np.any(low <= 0):
        raise ZeroVarianceError("squeezed combination has zero variance")
    ref = (off[..., 2 * j, 2 * j] + off[..., 2 * k, 2 * k]) / 2.0
    if np.any(ref <= 0):
        raise ZeroVarianceError("pump-off reference has zero variance")
    r_e, r_p = np.sqrt(high / low), np.sqrt(low / ref)
    # r_p carries the leading axes of both states
    return (float(r_e), float(r_p)) if r_p.ndim == 0 else (r_e, r_p)


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Legendre Jacobi
    matrix, each weight twice the squared first component of its
    eigenvector.
    """
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0] ** 2


@dataclass
class PairHistogram:
    """Binned rows of one axis pair; axis 0 of each array is pump on, pump off.

    ``edges`` bound the bins of both axes; ``counts`` are the drawn rows per
    bin and ``expected`` their mean (rows times the bin probability), both
    (2, n_bins, n_bins); ``outside`` counts the drawn rows with a value
    outside the window.
    """

    edges: np.ndarray
    counts: np.ndarray
    expected: np.ndarray
    outside: np.ndarray


def histogram_bins(bin_width, span):
    """Number of bins of width ``bin_width`` that split [-span, span] whole.

    A width that leaves a partial bin, or is wider than the window, raises
    ValueError.
    """
    bins = 2.0 * span / bin_width
    n_bins = round(bins)
    if n_bins < 1 or abs(bins - n_bins) > 1e-9 * bins:
        raise ValueError(f"{bin_width!r} does not split the window "
                         f"[-{span!r}, {span!r}] into whole bins")
    return n_bins


def _bin_probabilities(blocks, edges):
    """Probability of each bin of a zero-mean bivariate normal, per 2 x 2 block.

    ``blocks`` is (U, 2, 2); returns (U, n_bins, n_bins). A tensor
    Gauss-Legendre rule with 4 nodes per axis integrates the density over
    every bin.
    """
    # per call, not at import: a LAPACK call at import adds ~1 MB to every pipeline's RSS
    nodes, weights = _gauss_legendre(4)
    n_bins = edges.size - 1
    width = np.diff(edges)
    x = (edges[:-1, None] + (nodes + 1.0) / 2.0 * width[:, None]).ravel()
    # bin i sums its own 4 nodes with weights w * width / 2
    w = np.repeat(np.eye(n_bins), nodes.size, axis=1) * np.outer(width / 2.0, weights).ravel()
    a, b, c = (blocks[:, i, j, None, None] for i, j in ((0, 0), (1, 1), (0, 1)))
    det = a * b - c * c
    # the exponent -(b x^2 + a y^2 - 2 c x y) / (2 det), built in one buffer
    density = c * np.outer(x, x)
    density -= b * x[:, None] ** 2 / 2.0
    density -= a * x[None, :] ** 2 / 2.0
    density /= det
    np.exp(density, out=density)
    density /= 2.0 * np.pi * np.sqrt(det)
    return w @ density @ w.T


def histogram2d_subtracted(v_on, v_off, pair, rows, seed, bin_width=0.25, span=6.0):
    """Pump-on and pump-off quadrature histograms of a mode pair, drawn from
    their exact bin probabilities.

    ``v_on`` and ``v_off`` hold one covariance per interval (a single matrix
    is one interval); every interval contributes ``rows`` rows per state.
    Returns {label: PairHistogram} for the axis pairs "I+I-", "Q+Q-" and
    "I+Q-"; subtract per bin. A row enters a bin only if both of its values
    lie in [-span, span]; the bins are uniform, and a ``bin_width`` that
    does not split that window into whole bins raises ValueError
    (``histogram_bins``).

    The counts have exactly the distribution of binning ``sample`` records
    with ``np.histogram2d``, but each axis pair is an independent draw: per
    state and axis pair, each distinct covariance gives every bin's
    probability (``_bin_probabilities``) plus one cell for the rows outside,
    and ``rng.multinomial`` draws its intervals' rows over them. Identical
    covariances are merged first, so a run without drift draws one table
    per axis pair and state. The rule is certified only where the narrow
    axis of the pair's 2 x 2 block is at least one bin spacing wide; a
    narrower one raises NumericalError. Identical seeds give identical
    counts.
    """
    j, k = _mode_pair(pair, v_on.n_modes)
    n_bins = histogram_bins(bin_width, span)
    edges = np.linspace(-span, span, n_bins + 1)
    spacing = 2.0 * span / n_bins
    axes = {"I+I-": [2 * j, 2 * k], "Q+Q-": [2 * j + 1, 2 * k + 1], "I+Q-": [2 * j, 2 * k + 1]}
    rng = np.random.default_rng(seed)
    counts = np.zeros((len(axes), 2, n_bins, n_bins))
    expected = np.zeros_like(counts)
    outside = np.zeros((len(axes), 2), dtype=np.int64)
    for s, v in enumerate((v_on, v_off)):
        d = v.v.shape[-1]
        distinct, repeats = np.unique(v.v.reshape(-1, d * d), axis=0, return_counts=True)
        distinct = distinct.reshape(-1, d, d)
        n_rows = int(rows) * repeats
        for t, (label, ab) in enumerate(axes.items()):
            blocks = distinct[:, ab][:, :, ab]
            a, b, c = blocks[:, 0, 0], blocks[:, 1, 1], blocks[:, 0, 1]
            narrow = (a + b) / 2.0 - np.hypot((a - b) / 2.0, c)
            if not np.all(narrow >= spacing**2):
                sd = np.sqrt(np.clip(np.min(narrow), 0.0, None))
                raise NumericalError(
                    f"{label} pump-{('on', 'off')[s]} block has a narrow-axis SD "
                    f"of {sd:.3g}, below the bin width {spacing:.6g}; the bin rule "
                    f"is not certified there")
            p = _bin_probabilities(blocks, edges).reshape(len(blocks), -1)
            p /= np.maximum(p.sum(axis=1), 1.0)[:, None]  # rounding may push the sum past 1
            cells = np.column_stack([p, np.clip(1.0 - p.sum(axis=1), 0.0, None)])
            drawn = rng.multinomial(n_rows, cells).sum(axis=0)
            counts[t, s] = drawn[:-1].reshape(n_bins, n_bins)
            outside[t, s] = drawn[-1]
            expected[t, s] = (n_rows @ p).reshape(n_bins, n_bins)
    return {label: PairHistogram(edges, counts[t], expected[t], outside[t])
            for t, label in enumerate(axes)}
