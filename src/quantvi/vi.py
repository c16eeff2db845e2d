"""Synthetic monotone variational-inequality problems and noise oracles.

Operators are affine, A(x) = Bx + c, with B + B^T positive semidefinite so
that A is monotone.  A problem instance carries the global operator, the
node split (node k's operator is B + S_k with offset c, where the S_k are
zero-sum skew deltas held as rank-r factors), a noise model for the
stochastic oracle, and a ball-shaped evaluation domain for the restricted
gap

    gap(x_hat) = sup over x in the ball of <A(x), x_hat - x>,

which is zero exactly at solutions when the ball contains one.  The gap is
exact, not an estimate: a closed form for skew operators and an
eigendecomposition-based trust-region solve for the rest.

``make_problem`` builds every operator with its structure known and hands
that structure over: a bilinear operator is held as its saddle block, and a
``cocoercive`` or ``strongly_monotone`` one carries its norm and the
eigenpairs of B + B^T, so no eigensolve rediscovers them.
"""

import functools

import numpy as np
from numpy.random import SeedSequence, default_rng

from .quantizer import DimensionMismatch


class BadDimension(ValueError):
    """Problem factory called with an unusable dimension."""


class UnknownKind(ValueError):
    """Problem kind string names no known problem."""


# The default numbers after each problem kind's colon.
_KIND_DEFAULTS = {"bilinear": (), "strongly_monotone": (0.1,), "cocoercive": (0.1, 1.0)}


def parse_kind(kind):
    """(base, numbers) of a problem kind such as ``cocoercive:0.1,1``.

    No numbers give the defaults.  Raises UnknownKind for an unknown base,
    and ValueError unless there are as many numbers as defaults, all finite
    and in range: mu in (0, 1], 0 < lmin <= lmax.
    """
    base, _, arg = kind.partition(":")
    if base not in _KIND_DEFAULTS:
        raise UnknownKind(f"unknown problem kind {kind!r}; kinds: {', '.join(_KIND_DEFAULTS)}")
    nums = defaults = _KIND_DEFAULTS[base]
    if arg:
        try:
            nums = tuple(float(tok) for tok in arg.split(","))
        except ValueError:
            nums = (np.nan,)  # unreadable counts as not finite
        if len(nums) != len(defaults) or not np.isfinite(nums).all():
            raise ValueError(f"{base} takes {len(defaults)} finite numbers after ':', "
                             f"got {arg!r}")
    if base == "strongly_monotone" and not 0 < nums[0] <= 1:
        raise ValueError("mu must lie in (0, 1]")
    if base == "cocoercive" and not 0 < nums[0] <= nums[1]:
        raise ValueError("need 0 < lmin <= lmax")
    return base, nums


_SKEW_TOL = 1e-12
_MONOTONE_TOL = 1e-9


def _abs_max(M):
    """max |M| (0 for an empty M), with no d x d temporary."""
    return max(float(M.max(initial=0.0)), -float(M.min(initial=0.0)))


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
    peak = _abs_max(M)
    if peak == 0.0:
        return 0.0
    _, exp = np.frexp(peak)
    S = np.ldexp(M, -exp)
    S = S.T @ S  # the scaled copy is freed before the eigensolve
    return float(np.ldexp(np.sqrt(np.linalg.eigvalsh(S)[-1]), exp))


class AffineOperator:
    """A(x) = Bx + c with B + B^T required positive semidefinite.

    Built from B alone, the operator learns what it needs from it.  ``L``,
    the spectral norm of B, is ``spectral_norm(B)``, one eigensolve of
    B^T B.  When B + B^T is exactly zero every eigenvalue of the symmetric
    part is 0, so the operator is skew and monotone without a second
    eigensolve; otherwise one ``eigvalsh`` of the symmetric part checks that
    its least eigenvalue is not negative, and the operator counts as skew
    when the largest entry of that part is at most 1e-12 max(1, L).  The
    eigendecomposition of B + B^T that the gap of a non-skew operator needs
    is computed on first use and kept.

    A caller that built B knows these and passes them in: ``L``, and
    ``sym_eigh``, the eigenvalues of B + B^T in ascending order with their
    eigenvectors, or None for eigenvectors when B + B^T is a multiple of
    the identity.  The least eigenvalue is then the monotonicity
    certificate, the operator counts as skew when the spectral norm of the
    symmetric part is at most 1e-12 max(1, L), and nothing is factorized.

    ``product(x)`` is Bx and ``transpose_product(x)`` is B^T x; ``matrix()``
    is B.  The solution a problem is built around is the problem's
    (``ProblemInstance.x_star``), not the operator's.
    """

    def __init__(self, B, c=None, L=None, sym_eigh=None):
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
        self.L = spectral_norm(B) if L is None else float(L)
        if sym_eigh is None:
            sym = B + B.T
            sym *= 0.5
            least = np.linalg.eigvalsh(sym)[0] if sym.any() else 0.0
            peak = _abs_max(sym)
        else:
            self._sym_eigh = sym_eigh
            lam = sym_eigh[0]  # those of B + B^T, twice the symmetric part's
            least, peak = 0.5 * lam[0], 0.5 * max(-lam[0], lam[-1])
        scale = max(1.0, self.L)
        if least < -_MONOTONE_TOL * scale:
            raise ValueError(f"B + B^T has negative eigenvalue {least}: operator not monotone")
        self.is_skew = peak <= _SKEW_TOL * scale

    @functools.cached_property
    def _sym_eigh(self):
        """Eigenvalues (ascending) and eigenvectors of B + B^T, for the gap."""
        return np.linalg.eigh(self.B + self.B.T)

    def matrix(self):
        return self.B

    def product(self, x):
        return self.B @ x

    def transpose_product(self, x):
        return self.B.T @ x


def _saddle_product(M, x):
    """Bx for B = [[0, M], [-M^T, 0]]: (M x_2, -M^T x_1)."""
    h = M.shape[0]
    out = np.empty(2 * h)
    np.matmul(M, x[h:], out=out[:h])
    np.negative(np.matmul(M.T, x[:h], out=out[h:]), out=out[h:])
    return out


class SaddleOperator:
    """A(x) = Bx + c for B = [[0, M], [-M^T, 0]], held as its h x h block M.

    It has the attributes and methods of ``AffineOperator`` that the gap and
    the node evaluator use.  B is skew by its structure, so B^T x = -Bx
    exactly and no B + B^T is formed or checked; ``L``, the norm of M and
    of B, is given.  Only ``matrix()`` assembles the d x d B, in a new array
    on every call.
    """

    is_skew = True

    def __init__(self, M, c, L):
        self.M = M
        self.c = c
        self.d = 2 * M.shape[0]
        self.L = float(L)

    def matrix(self):
        h, M = self.M.shape[0], self.M
        B = np.zeros((self.d, self.d))
        B[:h, h:] = M
        B[h:, :h] = -M.T
        return B

    def product(self, x):
        return _saddle_product(self.M, x)

    def transpose_product(self, x):
        return -_saddle_product(self.M, x)


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
        noise = rng.standard_normal(AX.shape)  # what normal(0, s) scales by s
        noise *= self.sigma / np.sqrt(AX.shape[-1])
        noise += AX
        return noise


def _row_norms(x):
    """``np.linalg.norm(x, axis=-1, keepdims=True)`` for real x, without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True))


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
        norm_eta = _row_norms(eta)
        norm_eta[norm_eta == 0.0] = 1.0
        eta *= np.sqrt(self.sigma_r) * _row_norms(AX)
        eta /= norm_eta
        eta += AX
        return eta


class AlmostSureClip:
    """Wrap another model and rescale any sample onto the ball ||g|| <= J."""

    def __init__(self, J, inner):
        if J <= 0:
            raise ValueError("clip radius J must be positive")
        self.J = float(J)
        self.inner = inner

    def sample_batch(self, AX, rng):
        g = self.inner.sample_batch(AX, rng)
        norms = _row_norms(g)
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
    eigenvalues of H (the operator's, given or cached) and h in its
    eigenbasis (h itself when H is a multiple of the identity), the dual
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
        g = op.transpose_product(x_hat) - op.c
        const = float(op.c @ x_hat)
        return float(dom.center @ g) + dom.radius * float(np.linalg.norm(g)) + const

    lam, Q = op._sym_eigh
    mu = max(0.0, -float(lam[0]))  # least shift that makes H + mu I semidefinite
    dx = x_hat - dom.center
    a0 = op.product(dom.center) + op.c  # A at the ball centre
    h = op.transpose_product(dx) - a0  # objective gradient at the centre
    if Q is not None:
        h = Q.T @ h
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
    """A distributed VI test problem: global operator, node split, noise, domain.

    Node k's operator is A_k(x) = (B + S_k) x + c, with B and c the global
    operator's.  ``factors`` is None when every node is the global operator
    (an identical split), and otherwise a (K, d, 2r) array [U W] per node:
    S_k is U_k W_k^T - W_k U_k^T less the mean of that over the K nodes, so
    the S_k are skew, sum to zero and leave every node monotone.
    ``node_evaluator`` evaluates every node at x.  ``x_star`` is the
    solution the operator was built around.
    """

    def __init__(self, op, factors, K, noise, domain, x1, x_star):
        self.op = op
        self.factors = factors
        self.K = K
        self.noise = noise
        self.domain = domain
        self.x1 = np.asarray(x1, dtype=np.float64)
        self.d = op.d
        self.x_star = np.asarray(x_star, dtype=np.float64)
        self.L = op.L

    def gap(self, x_hat):
        return restricted_gap(x_hat, self.op, self.domain)

    def node_matrices(self):
        """Every node's matrix, (K, d, d): B itself for an identical split.

        Each G = U_k W_k^T gives S_k = G - G^T, exactly skew; centring over
        the nodes keeps it so, and B, ``op.matrix()``, is added last.
        """
        K, d, B = self.K, self.d, self.op.matrix()
        if self.factors is None:
            return np.broadcast_to(B, (K, d, d))
        r = self.factors.shape[2] // 2
        S = self.factors[..., :r] @ np.swapaxes(self.factors[..., r:], 1, 2)
        S -= np.swapaxes(S, 1, 2)
        S -= S.mean(axis=0)
        S += B
        return S


# Node matrices below this many bytes are materialized and multiplied
# stacked; at and above it the factors are.  The two cost the same near
# 1.2-1.4 MiB for K from 2 to 8.  Bilinear, one BLAS thread on a 2-CPU x86
# VM, dense against factored per call: K = 4, d = 20: 5.5 against 27.7 us;
# d = 200 (1.22 MiB): 42.1 against 42.3 us; d = 250 (1.91 MiB): 90.9
# against 50.3 us.  K = 2, d = 300 (1.37 MiB): 53.6 against 50.1 us.  K = 8,
# d = 150 (1.37 MiB): 52.7 against 50.9 us.
_DENSE_BYTES = 5 << 18


def node_evaluator(problem):
    """``node_values(x)``: every node's A_k(x), a (K, d) array.

    Node matrices that take under ``_DENSE_BYTES`` are multiplied as
    ``problem.node_matrices()``, built once here, stacked; an identical
    split multiplies B, ``op.matrix()``, once, ``B @ x + c`` in every row.
    Above that size the global operator's ``product`` is taken once, a
    bilinear B's through its saddle block, and each node adds its centred
    delta from its factors, Z_k = [U_k W_k] ([W_k -U_k]^T x): O(K d r) work
    and no d x d matrix.  The path is fixed by d and K alone.
    """
    op, K, d, F = problem.op, problem.K, problem.d, problem.factors
    c = np.broadcast_to(op.c, (K, d))
    if 8 * K * d * d < _DENSE_BYTES:
        node_B = op.matrix() if F is None else problem.node_matrices()
        return lambda x: node_B @ x + c

    product = op.product
    if F is None:
        return lambda x: product(x) + c
    r = F.shape[2] // 2
    # [W_k -U_k]^T of every node, stacked into one (2rK, d) matrix.
    QT = np.concatenate((F[..., r:], -F[..., :r]), axis=2).transpose(0, 2, 1).reshape(-1, d)

    def node_values(x):
        Z = (F @ (QT @ x).reshape(K, 2 * r, 1))[..., 0]
        Z -= np.add.reduce(Z, axis=0) / K
        Z += product(x) + op.c
        return Z

    return node_values


def _random_skew(rng, d):
    G = rng.standard_normal((d, d))
    S = G - G.T
    S *= 0.5
    return S


def _unit_spectral(M):
    """M divided in place by its spectral norm; a zero M is left as it is."""
    norm = spectral_norm(M)
    if norm > 0:
        M /= norm
    return M


# Rank of each node's skew delta, at most d // 2.
_RANK = 16

# Each node's skew delta, before centring, has this spectral norm.  With it,
# K = 4 centred deltas have median spectral norms within 6% of 0.216 for d
# from 20 to 1000 (0.225 at d = 20, 0.204 at d = 1000).
_DELTA_NORM = 0.27


def make_problem(kind, d, K, seed, noise=None, x_star=None):
    """Build a seeded ProblemInstance.

    Kinds (read by ``parse_kind``): ``bilinear`` (skew B from a random
    saddle matrix, needs even d), ``strongly_monotone:mu`` (mu I plus a skew
    part), and ``cocoercive:lmin,lmax`` (symmetric PSD B with that
    eigenvalue range).  The solution defaults to a random unit vector; pass
    ``x_star`` explicitly (a vector or scalar) to override.

    When the noise scales with the operator (``is_relative``), or K = 1,
    every node is the global operator and there are no factors.  Otherwise
    each node k draws a d x 2r Gaussian [U_k W_k], r = min(_RANK, d // 2),
    and U_k is scaled so that U_k W_k^T - W_k U_k^T has spectral norm
    ``_DELTA_NORM``.  That norm is exact and O(d r^2): with [U_k W_k] = QR
    from one thin QR, the delta is Q (R_1 R_2^T - R_2 R_1^T) Q^T and has the
    spectral norm of that 2r x 2r core.  No d x d matrix is built per node.

    The operator keeps what the construction knows (``AffineOperator``).  A
    bilinear one is a ``SaddleOperator``: its h x h block M is divided by its
    ``spectral_norm``, so L = 1, and B is never formed.  A ``cocoercive`` B
    is Q diag(v) Q^T, so L = lmax and B + B^T has the eigenpairs (2v, Q).  A
    ``strongly_monotone`` B is mu I plus (1 - mu) times a skew part of
    spectral norm 1 (its one ``spectral_norm``); the skew part is exactly
    antisymmetric with a zero diagonal, so B + B^T is exactly 2 mu I, and B,
    a normal matrix, has L = sqrt(mu^2 + (1 - mu)^2).
    """
    if K < 1:
        raise ValueError("need at least one node")
    base, nums = parse_kind(kind)
    rng = default_rng(SeedSequence(entropy=seed, spawn_key=(7,)))

    M = None
    if base == "bilinear":
        if d < 2 or d % 2 != 0:
            raise BadDimension("bilinear problems need even dimension >= 2")
        M = _unit_spectral(rng.standard_normal((d // 2, d // 2)))
    elif base == "strongly_monotone":
        (mu,) = nums
        B = _unit_spectral(_random_skew(rng, d))
        B *= 1.0 - mu
        B.flat[:: d + 1] += mu  # onto the skew part's diagonal of exact zeros
        # At d = 1 the skew part is zero, not of norm 1.
        L = np.sqrt(mu * mu + (1.0 - mu) ** 2) if d > 1 else mu
        sym_eigh = (np.full(d, 2.0 * mu), None)
    else:
        lmin, lmax = nums
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        v = np.linspace(lmin, lmax, d)
        # Q diag(v) Q^T, bit for bit: scaling Q's columns by v is the product
        # with the diagonal, whose other terms are exact zeros.
        B = (Q * v) @ Q.T
        B = B + B.T
        B *= 0.5
        L, sym_eigh = v[-1], (2.0 * v, Q)

    if x_star is None:
        xs = rng.standard_normal(d)
        xs /= np.linalg.norm(xs)
    else:
        xs = np.broadcast_to(np.asarray(x_star, dtype=np.float64), (d,)).copy()
    # c makes x_star a zero of the operator.
    if M is None:
        op = AffineOperator(B, -(B @ xs), L, sym_eigh)
    else:
        op = SaddleOperator(M, -_saddle_product(M, xs), L=1.0)

    factors = None
    if not (is_relative(noise) or K == 1):
        r = min(_RANK, d // 2)
        factors = rng.standard_normal((K, d, 2 * r))
        R = np.linalg.qr(factors, mode="r")
        core = R[..., :r] @ np.swapaxes(R[..., r:], 1, 2)
        core -= np.swapaxes(core, 1, 2)
        # ||C||^2 is the largest eigenvalue of C^T C: one stacked eigensolve.
        norms = np.sqrt(np.linalg.eigvalsh(np.swapaxes(core, 1, 2) @ core)[:, -1])
        factors[..., :r] *= (_DELTA_NORM / norms)[:, None, None]

    x1 = np.zeros(d)
    dist = float(np.linalg.norm(x1 - xs))
    domain = TestDomain(xs, 2.0 * dist if dist > 0 else 1.0)
    return ProblemInstance(op, factors, K, noise, domain, x1, xs)
