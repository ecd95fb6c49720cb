"""Gaussian states, the amplification chain, and quadrature statistics.

Covariance matrices use the interleaved quadrature basis (I_1, Q_1, ...) with
I = b + b^dag, so the vacuum covariance is the identity and a thermal mode has
variance 2 n_bar + 1. Physicality means V + i Omega >= 0, which also implies
V >= 0 for real symmetric V.
"""

from dataclasses import dataclass

import numpy as np

from .bases import min_physicality_eigenvalue, mode_rotation
from .constants import hbar as _HBAR
from .constants import k as _KB
from .errors import (
    DimensionMismatchError,
    EmptySamplesError,
    GainBelowUnityError,
    NotPSDError,
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
    each one is checked for symmetry on its own scale. ``amplify``,
    ``deamplify``, ``covariance_sem`` and ``correlation_quantity`` take
    stacks; the methods take one matrix and raise DimensionMismatchError on
    a stack.
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
        """Apply per-mode quadrature rotations (drift compensation, decorrelation)."""
        v = self._single("rotate")
        r = mode_rotation(angles)
        if r.shape != v.shape:
            raise DimensionMismatchError("need one rotation angle per mode")
        return CovarianceMatrix(self.n_modes, r @ v @ r.T)


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
    Identical seeds give identical results.
    """
    d = 2 * v.n_modes
    root = _psd_root(v.v).reshape(-1, d, d)
    k, m = root.shape[0], int(n_rows)
    if m < 1 or k * m < 2:
        raise EmptySamplesError("need at least two rows for a covariance")
    dof = m - 1
    r = min(d, dof)
    rng = np.random.default_rng(seed)
    a = np.zeros((k, d, r))
    below = np.tril_indices(d, -1, r)
    a[:, below[0], below[1]] = rng.standard_normal((k, below[0].size))
    diag = np.arange(r)
    a[:, diag, diag] = np.sqrt(rng.chisquare(dof - diag, size=(k, r)))
    sums = np.sqrt(m) * np.einsum("kij,kj->ki", root, rng.standard_normal((k, d)))
    la = np.swapaxes(root @ a, 0, 1).reshape(d, k * r)
    total = sums.sum(axis=0)
    scatter = la @ la.T + sums.T @ sums / m - np.outer(total, total) / (k * m)
    return CovarianceMatrix(v.n_modes, scatter / (k * m - 1.0))


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
    b = <I_j Q_k> + <Q_j I_k>.
    """
    v = cov.v
    j, k = _mode_pair(pair, cov.n_modes)
    a = v[2 * j, 2 * k] - v[2 * j + 1, 2 * k + 1]
    b = v[2 * j, 2 * k + 1] + v[2 * j + 1, 2 * k]
    return 0.5 * np.arctan2(b, a)


def squeezing_stats(on, off, pair):
    """Squeezing ratios of a mode pair from pump-on and pump-off covariances.

    ``on`` and ``off`` are CovarianceMatrix objects: sample covariances give
    the measured ratios, model covariances the infinite-statistics
    prediction.

    Both states are first rotated by the drift-compensation angle that
    maximizes the pump-on <I_j I_k> correlator. R_e is then the ratio of the
    larger to the smaller standard deviation of the two combinations
    I_j +- I_k (pump on), and R_p compares the squeezed combination against
    the rms single-mode pump-off amplitude, so an ideal two-mode squeezed
    state over vacuum gives sqrt(2) e^-r.
    """
    j, k = _mode_pair(pair, on.n_modes)
    angles = np.zeros(on.n_modes)
    angles[j] = angles[k] = drift_compensation_angle(on, pair)
    on = on.rotate(angles).v
    off = off.rotate(angles).v
    # variances of I_j + I_k and I_j - I_k
    diag = on[2 * j, 2 * j] + on[2 * k, 2 * k]
    combos_on = np.array([diag + 2 * on[2 * j, 2 * k], diag - 2 * on[2 * j, 2 * k]])
    low = int(np.argmin(combos_on))
    if combos_on[low] <= 0:
        raise ZeroVarianceError("squeezed combination has zero variance")
    r_e = float(np.sqrt(combos_on.max() / combos_on[low]))
    ref = (off[2 * j, 2 * j] + off[2 * k, 2 * k]) / 2.0
    if ref <= 0:
        raise ZeroVarianceError("pump-off reference has zero variance")
    r_p = float(np.sqrt(combos_on[low] / ref))
    return r_e, r_p


def histogram2d_subtracted(blocks, pair, bin_width=0.25, span=6.0):
    """Binned pump-on, pump-off, and subtracted counts for a mode pair.

    ``blocks`` is an iterable of (is_on, QuadratureSamples); each is binned
    as it arrives and then dropped. Returns {label: (edges, counts_on,
    counts_off)} for the axis pairs "I+I-", "Q+Q-" and "I+Q-"; subtract per
    bin. A row enters an axis pair's float counts only if both of its values
    lie in [-span, span] (NaN and +-inf never do), and only those rows are
    binned, as ``np.histogram2d`` bins them. Bins are uniform.
    """
    j, k = pair
    n_bins = max(1, int(round(2.0 * span / bin_width)))
    edges = np.linspace(-span, span, n_bins + 1)
    lower = np.append(edges[:-1], np.inf)  # +inf: an estimate of n_bins steps back
    upper = np.append(edges[1:-1], np.inf)  # +inf: the last bin keeps the last edge
    axes = {"I+I-": (2 * j, 2 * k), "Q+Q-": (2 * j + 1, 2 * k + 1), "I+Q-": (2 * j, 2 * k + 1)}
    counts = np.zeros((2, len(axes), n_bins * n_bins))
    for is_on, block in blocks:
        _mode_pair(pair, block.n_modes)
        x = block.data
        inside = {c: np.abs(x[:, c]) <= span for c in (2 * j, 2 * j + 1, 2 * k, 2 * k + 1)}
        for t, (a, b) in enumerate(axes.values()):
            rows = np.flatnonzero(inside[a] & inside[b])
            v = x.take(rows * x.shape[1] + [[a], [b]])  # x[rows, a], x[rows, b]
            # the floor estimate is at most one bin off; one step against the bin's edges fixes it
            idx = ((v + span) * (n_bins / (2.0 * span))).astype(np.intp)
            idx[v < lower.take(idx)] -= 1
            idx[v >= upper.take(idx)] += 1
            counts[0 if is_on else 1, t] += np.bincount(idx[0] * n_bins + idx[1],
                                                        minlength=n_bins * n_bins)
    h = counts.reshape(2, len(axes), n_bins, n_bins)
    return {label: (edges, h[0, t], h[1, t]) for t, label in enumerate(axes)}
