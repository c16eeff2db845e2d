"""Distribution estimation and variance-optimal level placement.

Dual vectors observed during a run are summarized, per type, by a weighted
distribution of their normalized coordinate magnitudes on [0, 1].  Each
sample vector is weighted by its squared q-norm relative to the batch, so
large-magnitude vectors dominate the estimate in proportion to their
contribution to the quantization variance.

Level sequences are then re-placed to minimize the expected rounding
variance  integral(sigma_Q^2(u; l) dF(u))  by an exact dynamic program over
a uniform grid of G + 1 candidate positions.  The interval cost c(i, j) of
two consecutive levels at grid points i < j satisfies the quadrangle
(Monge) inequality, so the leftmost optimal predecessor of a grid point is
non-decreasing in the point (Wu 1991, "Optimal quantization by matrix
searching").  Of the alpha + 1 DP layers for alpha interior levels, the
first has a closed form, the alpha - 1 middle ones are found by divide and
conquer over the grid points with every cost computed on the fly from
prefix moments, and of the last only the predecessor of the endpoint is
needed, found by replaying the one chain of the divide and conquer that
reaches it.  That takes O((alpha - 1) G log G + G) time, and O((alpha - 1) G)
memory for the predecessor table that the backtrack reads.

Every distribution object has one method, ``moments_below(x)``: the
(mass, first moment, second moment) of F restricted to [0, x).  ``x`` may be
a scalar or an array; the result has shape ``x.shape + (3,)``, one row per
x.  An atom at 1 counts below every x >= 1, as the quantizer puts u = 1 in
the last level interval, so ``moments_below(1.0)`` is the total and the
moments of the intervals between the points of any increasing array ending
at 1 are ``np.diff(cdf.moments_below(points), axis=0)``.  Only this module
reads a distribution: the level placement, its cost, and the level
probabilities the codec builds its Huffman books from.

scipy is imported only where the truncated-normal estimator runs:
``TruncNormCdf`` loads ``scipy.stats`` and ``_fit_one_truncnorm`` loads
``scipy.optimize``, each on first use.  A run with the default
``empirical`` (step-CDF) estimator never loads scipy, which would otherwise
be most of its import time and memory.
"""

import operator
import warnings
from functools import reduce

import numpy as np

from .levels import LevelFamily, LevelSequence


class InvalidCdf(ValueError):
    """CDF is not a valid probability distribution on [0, 1]."""


class AllZeroSamples(ValueError):
    """Every sample vector has zero norm; no distribution can be estimated."""


class BudgetTooLarge(ValueError):
    """More interior levels requested than grid candidate positions."""


class DegenerateSample(UserWarning):
    """Parametric fit fell back to a step CDF (too few distinct values)."""


class StepCdf:
    """Weighted empirical (step) distribution on [0, 1]."""

    def __init__(self, points, weights):
        points = np.asarray(points, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if points.size == 0:
            raise ValueError("empty point set")
        if np.any(weights < 0):
            raise ValueError("negative weight")
        if np.any(points < -1e-12) or np.any(points > 1 + 1e-12):
            raise ValueError("support must lie in [0, 1]")
        points = np.clip(points, 0.0, 1.0)
        order = np.argsort(points, kind="stable")
        points, weights = points[order], weights[order]
        # Merge duplicate support points.
        uniq, inverse = np.unique(points, return_inverse=True)
        merged = np.zeros_like(uniq)
        np.add.at(merged, inverse, weights)
        total = merged.sum()
        if total <= 0:
            raise ValueError("total weight must be positive")
        merged /= total
        self.points = uniq
        self.weights = merged
        # A point p counts below x when its key is < x.  The key of an atom
        # at 1 is the float just below 1, so it counts from x = 1 on.
        self._keys = np.minimum(uniq, np.nextafter(1.0, 0.0))
        cum = np.column_stack(
            [np.cumsum(merged), np.cumsum(merged * uniq), np.cumsum(merged * uniq**2)]
        )
        # Row k holds the moments of the k smallest support points.
        self._below = np.vstack([np.zeros(3), cum])

    def moments_below(self, x):
        i = np.searchsorted(self._keys, x, side="left")
        return np.take(self._below, i, axis=0)


class UniformCdf:
    """The uniform distribution on [0, 1]."""

    def moments_below(self, x):
        x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
        # Powers of Python floats (the C library's pow): numpy's vectorized
        # power differs from it in the last bit for some x.
        rows = [(u, u**2 / 2.0, u**3 / 3.0) for u in x.ravel().tolist()]
        return np.array(rows, dtype=np.float64).reshape(x.shape + (3,))


class TruncNormCdf:
    """A normal distribution truncated to [0, 1], in closed form."""

    def __init__(self, mu, sigma):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        from scipy.stats import norm  # see the module docstring

        self.mu = float(mu)
        self.sigma = float(sigma)
        self._a = (0.0 - mu) / sigma
        self._b = (1.0 - mu) / sigma
        self._z = norm.cdf(self._b) - norm.cdf(self._a)
        if self._z <= 0:
            raise ValueError("truncation interval carries no mass")

    def _raw(self, z):
        """Unnormalized (mass, m1, m2) of the parent normal over [.._a, z]."""
        from scipy.stats import norm

        phi_a, phi_z = norm.pdf(self._a), norm.pdf(z)
        cdf = norm.cdf(z) - norm.cdf(self._a)
        dphi = phi_z - phi_a
        mu, s = self.mu, self.sigma
        m1 = mu * cdf - s * dphi
        m2 = (mu**2 + s**2) * cdf - 2 * mu * s * dphi - s**2 * (z * phi_z - self._a * phi_a)
        return np.stack([cdf, m1, m2], axis=-1)

    def moments_below(self, x):
        z = np.clip((np.asarray(x, dtype=np.float64) - self.mu) / self.sigma, self._a, self._b)
        return self._raw(z) / self._z

    def mean_var(self):
        m = self.moments_below(1.0)
        return float(m[1]), float(m[2] - m[1] ** 2)


def _sample_weights(samples, family):
    """Squared q-norm weights, one per sample vector of the family's dimension."""
    if samples.shape[1] != family.dimension:
        raise ValueError("sample dimension does not match the family")
    norms = np.linalg.norm(samples, ord=family.q, axis=1)
    sq = norms**2
    total = sq.sum()
    if total <= 0:
        raise AllZeroSamples("all sample vectors have zero norm")
    return norms, sq / total


def _type_points(samples, norms, lam, family, m):
    """Normalized magnitudes and weights of type-m coordinates, all samples.

    (None, None) when type m has no coordinates or no sample has weight,
    so that the type keeps its levels.
    """
    cols = family.type_coordinates(m)
    keep = lam != 0.0
    if cols.size == 0 or not keep.any():
        return None, None
    pts = np.abs(samples[keep][:, cols]) / norms[keep, None]
    return pts.ravel(), np.repeat(lam[keep] / cols.size, cols.size)


def weighted_cdf(samples, family):
    """Per-type step CDFs of normalized coordinates from Z samples, as a list.

    Sample z receives weight lambda_z proportional to its squared q-norm;
    within a type each of its coordinates carries an equal share of that
    weight, so every type's CDF has total mass 1.  A type with no
    coordinates or no weighted sample gets None.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    norms, lam = _sample_weights(samples, family)
    cdfs = []
    for m in range(family.num_types):
        pts, wts = _type_points(samples, norms, lam, family, m)
        cdfs.append(None if pts is None else StepCdf(pts, wts))
    return cdfs


def _fit_one_truncnorm(mean, var):
    """Method-of-moments parameters of a [0,1]-truncated normal, or None."""
    from scipy import optimize  # see the module docstring

    def residual(theta):
        m, v = TruncNormCdf(theta[0], np.exp(theta[1])).mean_var()
        return [m - mean, v - var]

    theta0 = np.array([mean, 0.5 * np.log(max(var, 1e-8))])
    sol = optimize.least_squares(
        residual, theta0, bounds=([-10.0, np.log(1e-4)], [11.0, np.log(50.0)]),
        xtol=1e-14, ftol=1e-14,
    )
    if not sol.success or np.linalg.norm(sol.fun) > 1e-6:
        return None
    return float(sol.x[0]), float(np.exp(sol.x[1]))


def fit_truncated_normal(samples, family):
    """Per-type truncated normals fit by weighted mean and variance, as a list.

    Types are weighted and skipped (None) as in ``weighted_cdf``.  Types
    whose samples are degenerate (fewer than two distinct values) or whose
    moments no truncated normal can reproduce fall back to the step CDF,
    announced with a DegenerateSample warning.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    norms, lam = _sample_weights(samples, family)
    cdfs = []
    for m in range(family.num_types):
        pts, wts = _type_points(samples, norms, lam, family, m)
        if pts is None:
            cdfs.append(None)
            continue
        mean = float(np.sum(wts * pts))
        var = float(np.sum(wts * pts**2) - mean**2)
        fitted = None
        if np.unique(pts).size >= 2 and var > 1e-12:
            fitted = _fit_one_truncnorm(mean, var)
        if fitted is None:
            warnings.warn(
                f"type {m}: sample too degenerate for a truncated-normal fit, "
                "using the step CDF",
                DegenerateSample,
            )
            cdfs.append(StepCdf(pts, wts))
        else:
            cdfs.append(TruncNormCdf(*fitted))
    return cdfs


def quantization_cost(cdf, seq):
    """integral of (l_tau+1 - u)(u - l_tau) dF(u): the per-unit-norm variance."""
    ell = seq.levels if isinstance(seq, LevelSequence) else np.asarray(seq, float)
    m0, m1, m2 = np.diff(cdf.moments_below(ell), axis=0).T
    terms = -m2 + (ell[:-1] + ell[1:]) * m1 - ell[:-1] * ell[1:] * m0
    # Summed left to right from 0.0, one interval at a time (Python's sum
    # compensates rounding from 3.12 on, which would change the last bits).
    return reduce(operator.add, terms.tolist(), 0.0)


def estimate_level_probs(cdf, seq):
    """Probability of each level index when quantizing draws from ``cdf``.

    Mass in a level interval [l_j, l_j+1) is split between the two bracketing
    levels in proportion to the expected rounding probabilities, which
    reproduces exactly the symbol distribution the stochastic quantizer
    induces.  Raises InvalidCdf unless ``cdf`` has total mass 1 and no
    interval of negative mass.
    """
    ell = seq.levels
    below = np.asarray(cdf.moments_below(ell), dtype=np.float64)
    if abs(below[-1, 0] - 1.0) > 1e-9:
        raise InvalidCdf(f"total mass {below[-1, 0]} is not 1")
    m0, m1 = np.diff(below[:, :2], axis=0).T
    if (m0 < -1e-12).any():
        raise InvalidCdf("CDF is decreasing")
    w_up = (m1 - ell[:-1] * m0) / np.diff(ell)
    w_up = np.minimum(np.maximum(w_up, 0.0), np.maximum(m0, 0.0))
    row = np.zeros(len(ell))
    row[:-1] += m0 - w_up
    row[1:] += w_up
    np.clip(row, 0.0, None, out=row)
    return row


def level_histogram(family, cdfs):
    """Level probability rows of ``family`` under per-type CDFs; uniform where None."""
    return [
        estimate_level_probs(UniformCdf() if c is None else c, seq)
        for c, seq in zip(cdfs, family.sequences)
    ]


def optimize_levels(cdf, alpha, grid=512):
    """Variance-optimal placement of ``alpha`` interior levels on a grid.

    Runs an exact dynamic program over the uniform grid {0, 1/G, ..., 1}:
    state (level count, grid position), transition cost c(i, j) equal to the
    rounding variance accumulated on the interval between consecutive levels
    at grid points i < j.  The returned sequence is the exact minimizer among
    all grid-restricted sequences with the given budget.

    Layer k is a column-minimum search over the (G+1) x (G+1) matrix
    fprev[i] + c(i, j), and only the layers the backtrack reads are run in
    full.  The first layer has one finite row, i = 0, so it is c(0, j) in
    closed form with predecessor 0.  The alpha - 1 middle layers are found
    by divide and conquer (``_layer_min``) without building the matrix.  Of
    the last layer the backtrack reads only the predecessor of G, which
    ``_last_parent`` finds by replaying the divide and conquer's chain of
    segments that contain G: about log2 G scans.  Time is
    O((alpha - 1) G log G + G), and the alpha - 1 predecessor arrays of G + 1
    indices kept for the backtrack take O((alpha - 1) G) memory.

    Among equal-cost predecessors the leftmost is kept, as a dense argmin
    over each column would.  When the budget covers every interior support
    point of a step CDF, many placements cost zero and rounding decides
    which of them is returned; the chain replay keeps the full divide and
    conquer's choice there.
    """
    alpha = int(alpha)
    grid = int(grid)
    if alpha < 0:
        raise ValueError("level budget must be non-negative")
    if grid < 2:
        raise ValueError("grid must have at least 2 intervals")
    if alpha > grid - 1:
        raise BudgetTooLarge(f"{alpha} interior levels need a grid of > {alpha} points")

    xs = np.arange(grid + 1) / grid
    if alpha == 0:
        return LevelSequence(xs[[0, grid]])
    prefix = np.asarray(cdf.moments_below(xs), dtype=np.float64).T.copy()  # rows b0, b1, b2

    # Layer 0: fprev is 0 at i = 0 and inf elsewhere, so each column's
    # minimum is 0 + c(0, j), in _layer_min's own expression.
    b0, b1, b2 = prefix
    fprev = np.full(grid + 1, np.inf)
    fprev[1:] = 0.0 + (-(b2[1:] - b2[0]) + (xs[0] + xs[1:]) * (b1[1:] - b1[0])
                       - (xs[0] * xs[1:]) * (b0[1:] - b0[0]))
    parents = []
    for layer in range(1, alpha):
        fprev, par = _layer_min(fprev, layer, xs, prefix)
        parents.append(par)

    positions = [grid, _last_parent(fprev, alpha, xs, prefix)]
    for par in reversed(parents):
        positions.append(int(par[positions[-1]]))
    positions.append(0)
    return LevelSequence(xs[positions[::-1]])


def _last_parent(fprev, first, xs, prefix):
    """``_layer_min(fprev, first, xs, prefix)[1][-1]``, from one chain of segments.

    ``_layer_min`` splits the columns [first + 1, G] at their middle column
    m and finds opt(m) over rows ilo..min(ihi, m - 1); the segment holding G
    is always the right half, [m + 1, G] over rows [opt(m), ihi].  Following
    only that segment until m = G scans the same rows with the same
    expression, so it gives the same leftmost minimizer.
    """
    b0, b1, b2 = prefix
    n = fprev.size
    jlo, ilo = first + 1, first
    while True:
        m = (jlo + n - 1) // 2
        i = slice(ilo, min(n - 2, m - 1) + 1)
        vals = fprev[i] + (-(b2[m] - b2[i]) + (xs[i] + xs[m]) * (b1[m] - b1[i])
                           - (xs[i] * xs[m]) * (b0[m] - b0[i]))
        ilo += int(vals.argmin())
        if m == n - 1:
            return ilo
        jlo = m + 1


def _layer_min(fprev, first, xs, prefix):
    """One DP layer: min over i < j of fprev[i] + c(i, j), for every j.

    ``fprev`` is finite exactly from index ``first`` on.  Returns the minima
    and the leftmost minimizing i per column; columns j <= first have no
    finite candidate and get (inf, 0).

    Because c is Monge, the leftmost minimizer opt(j) is non-decreasing in
    j.  A segment of columns [jlo, jhi] whose minimizers lie in rows
    [ilo, ihi] is split at its middle column m: rows ilo..min(ihi, m - 1)
    are scanned for opt(m), and the halves keep rows [ilo, opt(m)] and
    [opt(m), ihi].  All segments of one recursion depth are scanned
    together as one ragged candidate list of at most 2 (G + 1) entries.
    """
    b0, b1, b2 = prefix
    n = fprev.size
    fnew = np.full(n, np.inf)
    par = np.zeros(n, dtype=np.intp)
    jlo, jhi = np.array([first + 1]), np.array([n - 1])
    ilo, ihi = np.array([first]), np.array([n - 2])
    while jlo.size:
        mid = (jlo + jhi) // 2
        lens = np.minimum(ihi, mid - 1) - ilo + 1
        starts = np.cumsum(lens) - lens
        seg = np.repeat(np.arange(mid.size), lens)
        i = np.arange(seg.size) + (ilo - starts)[seg]
        j = mid[seg]
        m0 = b0[j] - b0[i]
        m1 = b1[j] - b1[i]
        m2 = b2[j] - b2[i]
        vals = fprev[i] + (-m2 + (xs[i] + xs[j]) * m1 - (xs[i] * xs[j]) * m0)
        best = np.minimum.reduceat(vals, starts)
        opt = np.minimum.reduceat(np.where(vals == best[seg], i, n), starts)
        fnew[mid] = best
        par[mid] = opt
        left, right = mid > jlo, mid < jhi
        jlo, jhi, ilo, ihi = (
            np.concatenate([jlo[left], mid[right] + 1]),
            np.concatenate([mid[left] - 1, jhi[right]]),
            np.concatenate([ilo[left], opt[right]]),
            np.concatenate([opt[left], ihi[right]]),
        )
    return fnew, par


def place_levels(family, cdfs, grid):
    """``family`` with each type's levels re-placed optimally on its CDF.

    Every type keeps its number of interior levels; a type whose CDF is
    None (no observed coordinates) keeps its levels as they are.
    """
    seqs = [
        seq if c is None else optimize_levels(c, seq.alpha, grid)
        for c, seq in zip(cdfs, family.sequences)
    ]
    return LevelFamily(seqs, family.assignment, q=family.q)


def mqv_objective(family, cdfs):
    """Family-wide expected quantization variance per unit squared norm.

    Sums the per-type rounding-variance integrals under ``cdfs``, one per
    type, weighted by each type's share of coordinates.  Types without an
    estimated CDF (None: no observed coordinates) contribute nothing.
    """
    total = 0.0
    for m, (c, seq) in enumerate(zip(cdfs, family.sequences)):
        if c is not None:
            total += family.proportions[m] * quantization_cost(c, seq)
    return float(total)


def pooled_cdf(cdfs, family):
    """Mixture of the per-type step CDFs weighted by coordinate proportions.

    This is the distribution a single shared level sequence would face; it
    is the comparison point for layer-wise versus global level placement.
    """
    pts, wts = [], []
    for m, c in enumerate(cdfs):
        if c is None or family.proportions[m] == 0.0:
            continue
        pts.append(c.points)
        wts.append(c.weights * family.proportions[m])
    if not pts:
        raise AllZeroSamples("no type has an estimated CDF")
    return StepCdf(np.concatenate(pts), np.concatenate(wts))
