"""Synthetic monotone variational-inequality problems and noise oracles.

Operators are affine, A(x) = Bx + c, with B + B^T positive semidefinite so
that A is monotone.  A problem instance carries one operator per simulated
node whose average is the global operator, a noise model for the stochastic
oracle, and a ball-shaped evaluation domain for the restricted gap

    gap(x_hat) = sup over x in the ball of <A(x), x_hat - x>,

which is zero exactly at solutions when the ball contains one.  The gap is
exact, not an estimate: a closed form for skew operators and an
eigendecomposition-based trust-region solve for the rest.
"""

import functools

import numpy as np

from .quantizer import DimensionMismatch


class BadDimension(ValueError):
    """Problem factory called with an unusable dimension."""


_SKEW_TOL = 1e-12
_MONOTONE_TOL = 1e-9


def spectral_norm(M):
    """The spectral norm ||M||_2 of a real matrix.

    ||M||_2^2 is the largest eigenvalue of the symmetric M^T M, so one
    product and one symmetric eigensolve give it exactly up to rounding,
    with no SVD and no iteration.  M is first scaled by the power of two
    that brings max|M| into [1/2, 1).  That scaling is exact, and after it
    M^T M cannot overflow and its largest eigenvalue, at least 1/4, cannot
    underflow, whatever the magnitude of M.
    """
    M = np.asarray(M, dtype=np.float64)
    peak = float(np.abs(M).max(initial=0.0))
    if peak == 0.0:
        return 0.0
    _, exp = np.frexp(peak)
    S = np.ldexp(M, -exp)
    return float(np.ldexp(np.sqrt(np.linalg.eigvalsh(S.T @ S)[-1]), exp))


class AffineOperator:
    """A(x) = Bx + c with B + B^T required positive semidefinite.

    ``L`` is the spectral norm of B (``spectral_norm``: one eigensolve of
    B^T B) unless a larger value is declared; it is computed on first read
    and kept, and a declared value is checked against the norm here.  When
    B + B^T is exactly zero every eigenvalue of the symmetric part is 0, so
    the operator is skew and monotone without an eigensolve or a norm.  The
    eigendecomposition of B + B^T that the gap of a non-skew operator needs
    is likewise computed on first use and kept.
    """

    def __init__(self, B, c=None, L=None, beta=None, x_star=None):
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise BadDimension("B must be square")
        d = B.shape[0]
        c = np.zeros(d) if c is None else np.asarray(c, dtype=np.float64)
        if c.shape != (d,):
            raise DimensionMismatch("offset c must match B")
        self.B = B
        self.c = c
        self.d = d
        sym = 0.5 * (B + B.T)
        if sym.any():
            scale = max(1.0, self._op_norm)
            eigs = np.linalg.eigvalsh(sym)
            if eigs[0] < -_MONOTONE_TOL * scale:
                raise ValueError(
                    f"B + B^T has negative eigenvalue {eigs[0]}: operator not monotone"
                )
            self.sym_eig_max = float(eigs[-1])
            self.is_skew = float(np.abs(sym).max()) <= _SKEW_TOL * scale
        else:
            self.sym_eig_max = 0.0
            self.is_skew = True
        if L is not None and L < self._op_norm * (1 - 1e-9):
            raise ValueError(f"declared L={L} below the operator norm {self._op_norm}")
        self._L = None if L is None else float(L)
        self.beta = beta
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=np.float64)

    @functools.cached_property
    def _op_norm(self):
        return spectral_norm(self.B)

    @functools.cached_property
    def _sym_eigh(self):
        """Eigenvalues (ascending) and eigenvectors of B + B^T, for the gap."""
        return np.linalg.eigh(self.B + self.B.T)

    @property
    def L(self):
        return self._op_norm if self._L is None else self._L

    def apply(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise DimensionMismatch(f"operator dimension {self.d}, got {x.shape}")
        return self.B @ x + self.c


class AbsoluteNoise:
    """Additive Gaussian noise with E||error||^2 = sigma^2, any x."""

    def __init__(self, sigma):
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = float(sigma)

    def sample_batch(self, AX, rng):
        """Perturb each row of AX independently (rows are separate calls; a 1-D AX is one)."""
        if self.sigma == 0.0:
            return AX.copy()
        d = AX.shape[-1]
        return AX + rng.normal(0.0, self.sigma / np.sqrt(d), size=AX.shape)


class RelativeNoise:
    """Multiplicative-scale noise: E||error||^2 = sigma_r ||A(x)||^2 exactly.

    The perturbation is a uniformly random direction scaled by
    sqrt(sigma_r) ||A(x)||, so it vanishes identically at solutions.
    """

    def __init__(self, sigma_r):
        if sigma_r < 0:
            raise ValueError("sigma_r must be non-negative")
        self.sigma_r = float(sigma_r)

    def sample_batch(self, AX, rng):
        if self.sigma_r == 0.0:
            return AX.copy()
        eta = rng.standard_normal(AX.shape)
        norm_eta = np.linalg.norm(eta, axis=-1, keepdims=True)
        norm_eta[norm_eta == 0.0] = 1.0
        scale = np.sqrt(self.sigma_r) * np.linalg.norm(AX, axis=-1, keepdims=True)
        return AX + scale * eta / norm_eta


class AlmostSureClip:
    """Wrap another model and rescale any sample onto the ball ||g|| <= J."""

    def __init__(self, J, inner):
        if J <= 0:
            raise ValueError("clip radius J must be positive")
        self.J = float(J)
        self.inner = inner

    def sample_batch(self, AX, rng):
        g = self.inner.sample_batch(AX, rng)
        norms = np.linalg.norm(g, axis=-1, keepdims=True)
        factor = np.minimum(1.0, self.J / np.maximum(norms, 1e-300))
        return g * factor


def is_relative(noise):
    """True when the (possibly clip-wrapped) model scales with the operator."""
    if isinstance(noise, AlmostSureClip):
        return is_relative(noise.inner)
    return isinstance(noise, RelativeNoise)


class TestDomain:
    """Euclidean ball over which the restricted gap is evaluated."""

    def __init__(self, center, radius):
        if radius <= 0:
            raise ValueError("domain radius must be positive")
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)


def restricted_gap(x_hat, op, dom):
    """sup over x in the ball of <A(x), x_hat - x>, exactly.

    For skew B the objective is linear in x and the supremum has a closed
    form.  Otherwise, with x = center + z and H = B + B^T, the objective is
    <A(center), x_hat - center> + h.z - z.Hz/2 over ||z|| <= r: a
    trust-region subproblem (More & Sorensen 1983).  With lam the
    eigenvalues of H (cached per operator) and h in its eigenbasis, the dual
    value

        <A(center), x_hat - center> + (sum_i h_i^2 / (lam_i + mu) + mu r^2) / 2

    bounds the maximum from above for every mu >= max(0, -lam_min), and
    equals it at the least such mu with ||(Lam + mu I)^-1 h|| <= r.  That mu
    is the lower end when the inequality already holds there (the interior
    solution); otherwise it is the root of ||(Lam + mu I)^-1 h|| = r, found
    by bisection until the bracket cannot shrink in floating point.
    Components of h that are exactly zero are left out of both sums, so the
    hard case (h orthogonal to the eigenvectors of lam_min) needs no
    division by zero.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if not np.all(np.isfinite(x_hat)):
        raise ValueError("gap requested at a non-finite point")
    if op.is_skew:
        g = op.B.T @ x_hat - op.c
        const = float(op.c @ x_hat)
        return float(dom.center @ g) + dom.radius * float(np.linalg.norm(g)) + const

    lam, Q = op._sym_eigh
    mu = max(0.0, -float(lam[0]))  # least shift that makes H + mu I semidefinite
    dx = x_hat - dom.center
    a0 = op.B @ dom.center + op.c  # A at the ball centre
    h = Q.T @ (op.B.T @ dx - a0)  # objective gradient at the centre, rotated
    keep = h != 0.0
    lam, sq = lam[keep], h[keep] ** 2
    r2 = dom.radius ** 2
    if not (lam + mu).all() or sq @ (lam + mu) ** -2 > r2:
        lo, hi = mu, mu + float(np.sqrt(sq.sum())) / dom.radius
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if sq @ (lam + mid) ** -2 > r2:
                lo = mid
            else:
                hi = mid
        mu = hi
    return float(a0 @ dx) + 0.5 * (float(sq @ (1.0 / (lam + mu))) + mu * r2)


class ProblemInstance:
    """A distributed VI test problem: global operator, node split, noise, domain."""

    def __init__(self, kind, op, node_ops, noise, domain, x1):
        self.kind = kind
        self.op = op
        self.node_ops = node_ops
        self.noise = noise
        self.domain = domain
        self.x1 = np.asarray(x1, dtype=np.float64)
        self.d = op.d
        self.K = len(node_ops)
        self.x_star = op.x_star
        self.L = op.L
        self.beta = op.beta

    def gap(self, x_hat):
        return restricted_gap(x_hat, self.op, self.domain)


def _random_skew(rng, d):
    G = rng.standard_normal((d, d))
    return 0.5 * (G - G.T)


def _unit_spectral(M):
    norm = spectral_norm(M)
    return M / norm if norm > 0 else M


def make_problem(kind, d, K, seed, noise=None, x_star=None, node_split=None):
    """Build a seeded ProblemInstance.

    Kinds: ``bilinear`` (skew B from a random saddle matrix, needs even d),
    ``strongly_monotone:mu`` (mu I plus a skew part), and
    ``cocoercive:lmin,lmax`` (symmetric PSD B with that eigenvalue range,
    recording beta = 1 / lmax).  The solution defaults to a random unit
    vector; pass ``x_star`` explicitly (a vector or scalar) to override.

    Node operators either share B exactly (``node_split="identical"``, the
    default whenever the noise scales with the operator) or receive
    zero-sum skew perturbations (``node_split="skew"``).  Unit-norm
    matrices are divided by their ``spectral_norm``.
    """
    if K < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))

    base, _, arg = kind.partition(":")
    if base == "bilinear":
        if d < 2 or d % 2 != 0:
            raise BadDimension("bilinear problems need even dimension >= 2")
        h = d // 2
        M = _unit_spectral(rng.standard_normal((h, h)))  # ||B||_2 = ||M||_2
        B = np.zeros((d, d))
        B[:h, h:] = M
        B[h:, :h] = -M.T
        beta = None
    elif base == "strongly_monotone":
        mu = float(arg) if arg else 0.1
        if not 0 < mu <= 1:
            raise ValueError("mu must lie in (0, 1]")
        B = mu * np.eye(d) + (1.0 - mu) * _unit_spectral(_random_skew(rng, d))
        beta = None
    elif base == "cocoercive":
        if arg:
            lmin, lmax = (float(tok) for tok in arg.split(","))
        else:
            lmin, lmax = 0.1, 1.0
        if not 0 < lmin <= lmax:
            raise ValueError("need 0 < lmin <= lmax")
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        B = Q @ np.diag(np.linspace(lmin, lmax, d)) @ Q.T
        B = 0.5 * (B + B.T)
        beta = 1.0 / lmax
    else:
        raise ValueError(f"unknown problem kind {kind!r}")

    if x_star is None:
        xs = rng.standard_normal(d)
        xs /= np.linalg.norm(xs)
    else:
        xs = np.broadcast_to(np.asarray(x_star, dtype=np.float64), (d,)).copy()
    c = -B @ xs
    op = AffineOperator(B, c, beta=beta, x_star=xs)

    if node_split is None:
        node_split = "identical" if is_relative(noise) else "skew"
    if node_split == "identical" or K == 1:
        node_ops = [op] * K
    elif node_split == "skew":
        deltas = np.stack([0.25 * _unit_spectral(_random_skew(rng, d)) for _ in range(K)])
        deltas -= deltas.mean(axis=0)
        node_ops = [AffineOperator(B + deltas[k], c) for k in range(K)]
        del deltas  # K d x d arrays, freed before the global norm's eigensolve
    else:
        raise ValueError(f"unknown node split {node_split!r}")

    x1 = np.zeros(d)
    dist = float(np.linalg.norm(x1 - xs))
    domain = TestDomain(xs, 2.0 * dist if dist > 0 else 1.0)
    return ProblemInstance(kind, op, node_ops, noise, domain, x1)


def certify_monotone(op, rng, pairs=10000):
    """Minimum of <A(x) - A(y), x - y> over random pairs (should be >= -1e-9)."""
    worst = np.inf
    for _ in range(pairs):
        x = rng.standard_normal(op.d)
        y = rng.standard_normal(op.d)
        worst = min(worst, float((op.apply(x) - op.apply(y)) @ (x - y)))
    return worst


def certify_lipschitz(op, rng, pairs=10000):
    """Maximum of ||A(x) - A(y)|| / ||x - y|| over random pairs."""
    worst = 0.0
    for _ in range(pairs):
        x = rng.standard_normal(op.d)
        y = rng.standard_normal(op.d)
        nd = np.linalg.norm(x - y)
        if nd == 0:
            continue
        worst = max(worst, float(np.linalg.norm(op.apply(x) - op.apply(y)) / nd))
    return worst
