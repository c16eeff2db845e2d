"""Synthetic monotone variational-inequality problems and noise oracles.

Operators are affine, A(x) = Bx + c, with B + B^T positive semidefinite so
that A is monotone.  A problem instance carries one operator per simulated
node whose average is the global operator, a noise model for the stochastic
oracle, and a ball-shaped evaluation domain for the restricted gap

    gap(x_hat) = sup over x in the ball of <A(x), x_hat - x>,

which is zero exactly at solutions when the ball contains one.
"""

import functools
import warnings

import numpy as np

from .quantizer import DimensionMismatch


class BadDimension(ValueError):
    """Problem factory called with an unusable dimension."""


class NonConvergedAscent(UserWarning):
    """Projected gradient ascent hit its iteration cap; value is a lower bound."""


_SKEW_TOL = 1e-12
_MONOTONE_TOL = 1e-9


class AffineOperator:
    """A(x) = Bx + c with B + B^T required positive semidefinite.

    ``L`` is the spectral norm of B unless a larger value is declared; it is
    computed on first read and kept, and a declared value is checked against
    the norm here.  When B + B^T is exactly zero every eigenvalue of the
    symmetric part is 0, so the operator is skew and monotone without an
    eigensolve or a norm.
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
        return float(np.linalg.norm(self.B, 2))

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

    def sample(self, ax, rng):
        if self.sigma == 0.0:
            return ax.copy()
        d = ax.size
        return ax + rng.normal(0.0, self.sigma / np.sqrt(d), size=d)

    def sample_batch(self, AX, rng):
        """Perturb each row of AX independently (rows are separate calls)."""
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

    def sample(self, ax, rng):
        if self.sigma_r == 0.0:
            return ax.copy()
        eta = rng.standard_normal(ax.size)
        norm_eta = np.linalg.norm(eta)
        if norm_eta == 0.0:
            return ax.copy()
        return ax + np.sqrt(self.sigma_r) * np.linalg.norm(ax) * eta / norm_eta

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

    def sample(self, ax, rng):
        g = self.inner.sample(ax, rng)
        norm = np.linalg.norm(g)
        if norm > self.J:
            g = g * (self.J / norm)
        return g

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


def sample_oracle(op, noise, x, rng):
    """One stochastic oracle call: A(x) plus model noise."""
    ax = op.apply(x)
    if noise is None:
        return ax
    return noise.sample(ax, rng)


class TestDomain:
    """Euclidean ball over which the restricted gap is evaluated."""

    def __init__(self, center, radius):
        if radius <= 0:
            raise ValueError("domain radius must be positive")
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)

    def project(self, x):
        delta = x - self.center
        norm = np.linalg.norm(delta)
        if norm <= self.radius:
            return x
        return self.center + delta * (self.radius / norm)

    def d_squared(self, x1):
        """sup over the ball of ||x1 - p||^2."""
        return (np.linalg.norm(np.asarray(x1) - self.center) + self.radius) ** 2


def restricted_gap(x_hat, op, dom, tol=1e-6, restarts=3, max_iter=20000):
    """sup over x in the ball of <A(x), x_hat - x>.

    For skew B the objective is linear in x and the supremum has a closed
    form.  Otherwise the objective is concave (monotonicity makes its
    quadratic part negative semidefinite) and is maximized by projected
    gradient ascent from the ball center plus ``restarts`` random starts,
    stopping when the projected-gradient step moves less than ``tol``.  If no
    start converges the best value found is still returned (any feasible
    point lower-bounds the supremum) under a NonConvergedAscent warning.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if not np.all(np.isfinite(x_hat)):
        raise ValueError("gap requested at a non-finite point")
    g = op.B.T @ x_hat - op.c
    const = float(op.c @ x_hat)
    if op.is_skew:
        return float(dom.center @ g) + dom.radius * float(np.linalg.norm(g)) + const

    S2 = op.B + op.B.T  # gradient of <Bx, x>
    lip = max(op.sym_eig_max * 2.0, 1e-12)
    step = 1.0 / lip

    def value(x):
        return float(x @ g) - float(x @ (S2 @ x)) / 2.0 + const

    def ascend(x):
        for _ in range(max_iter):
            grad = g - S2 @ x
            x_new = dom.project(x + step * grad)
            if np.linalg.norm(x_new - x) <= tol * step:
                return x_new, True
            x = x_new
        return x, False

    local = np.random.default_rng(1729)
    starts = [dom.center.copy()]
    for _ in range(restarts):
        direction = local.standard_normal(op.d)
        direction /= max(np.linalg.norm(direction), 1e-12)
        starts.append(dom.center + dom.radius * local.random() * direction)

    best, any_ok = -np.inf, False
    for x0 in starts:
        x_end, ok = ascend(x0)
        any_ok = any_ok or ok
        best = max(best, value(x_end))
    if not any_ok:
        warnings.warn(
            "projected ascent did not reach tolerance; gap is a lower bound",
            NonConvergedAscent,
        )
    return best


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

    def gap(self, x_hat, **kw):
        return restricted_gap(x_hat, self.op, self.domain, **kw)


def _random_skew(rng, d):
    G = rng.standard_normal((d, d))
    return 0.5 * (G - G.T)


def _unit_spectral(M):
    norm = np.linalg.norm(M, 2)
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
    zero-sum skew perturbations (``node_split="skew"``).
    """
    if K < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))

    base, _, arg = kind.partition(":")
    if base == "bilinear":
        if d < 2 or d % 2 != 0:
            raise BadDimension("bilinear problems need even dimension >= 2")
        h = d // 2
        M = rng.standard_normal((h, h))
        B = np.zeros((d, d))
        B[:h, h:] = M
        B[h:, :h] = -M.T
        B = _unit_spectral(B)
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
