"""Synthetic monotone variational-inequality problems and noise oracles.

Operators are affine, A(x) = Bx + c, with B + B^T positive semidefinite so
that A is monotone.  A problem instance carries the global operator, the
node split as data (one stacked (K, d, d) matrix and (K, d) offset whose
means are the global B and c), a noise model for the stochastic oracle, and
a ball-shaped evaluation domain for the restricted gap

    gap(x_hat) = sup over x in the ball of <A(x), x_hat - x>,

which is zero exactly at solutions when the ball contains one.  The gap is
exact, not an estimate: a closed form for skew operators and an
eigendecomposition-based trust-region solve for the rest.
"""

import contextlib
import functools
import os
from concurrent import futures

import numpy as np

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

    ``L`` is the spectral norm of B.  A caller that knows it from a smaller
    matrix (``make_problem`` takes a bilinear B's from its saddle block)
    passes it in; otherwise it is ``spectral_norm(B)``, one eigensolve of
    B^T B.  When B + B^T is exactly zero every eigenvalue of the symmetric
    part is 0, so the operator is skew and monotone without a second
    eigensolve; otherwise one ``eigvalsh`` of the symmetric part checks that
    its least eigenvalue is not negative.  The eigendecomposition of B + B^T
    that the gap of a non-skew operator needs is computed on first use and
    kept.  The solution a problem is built around is the problem's
    (``ProblemInstance.x_star``), not the operator's.
    """

    def __init__(self, B, c=None, L=None):
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
        sym = 0.5 * (B + B.T)
        if sym.any():
            scale = max(1.0, self.L)
            eigs = np.linalg.eigvalsh(sym)
            if eigs[0] < -_MONOTONE_TOL * scale:
                raise ValueError(
                    f"B + B^T has negative eigenvalue {eigs[0]}: operator not monotone"
                )
            self.is_skew = float(np.abs(sym).max()) <= _SKEW_TOL * scale
        else:
            self.is_skew = True

    @functools.cached_property
    def _sym_eigh(self):
        """Eigenvalues (ascending) and eigenvectors of B + B^T, for the gap."""
        return np.linalg.eigh(self.B + self.B.T)


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
    """A distributed VI test problem: global operator, node split, noise, domain.

    Node k's operator is A_k(x) = node_B[k] x + node_c[k]; ``node_B`` is
    (K, d, d) and ``node_c`` is (K, d), and their means over k are the
    global operator's B and c.  ``node_evaluator`` evaluates every node at
    x, bit for bit as ``node_B @ x + node_c``.  ``x_star`` is the solution
    the operator was built around.
    """

    def __init__(self, op, node_B, node_c, noise, domain, x1, x_star):
        self.op = op
        self.node_B = node_B
        self.node_c = node_c
        self.noise = noise
        self.domain = domain
        self.x1 = np.asarray(x1, dtype=np.float64)
        self.d = op.d
        self.K = node_B.shape[0]
        self.x_star = np.asarray(x_star, dtype=np.float64)
        self.L = op.L

    def gap(self, x_hat):
        return restricted_gap(x_hat, self.op, self.domain)


# Node matrices of at least this many bytes are multiplied in concurrent
# chunks of nodes.  Below it, handing a chunk to a thread (about 100 us)
# costs more than it saves.  With K = 4 on two CPUs and one BLAS thread,
# serial against split: d = 300 (2.7 MiB) 113 against 146 us, d = 350
# (3.7 MiB) 189 against 166 us, d = 400 (4.9 MiB) 224 against 224 us, and
# d = 1000 (31 MiB) 1.87 against 0.93 ms.
_SPLIT_BYTES = 4 << 20


def _usable_cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _matmul_into(M, x, out, errors):
    """out = M @ x under the floating-point error modes ``errors``."""
    with np.errstate(**errors):
        np.matmul(M, x, out=out)


@contextlib.contextmanager
def node_evaluator(problem):
    """Yield ``node_values(x)``: every node's A_k(x), a (K, d) array.

    The result is bit for bit ``problem.node_B @ x + problem.node_c``, and
    the same floating-point errors are raised or warned.  When every node
    has the same matrix (K = 1, or the no-copy view of an identical split)
    one product is broadcast over the K rows.  A skew split whose node
    matrices take at least ``_SPLIT_BYTES`` is cut into one contiguous chunk
    of nodes per usable CPU, at most K chunks.  The calling thread
    multiplies the first chunk and worker threads the others, into one
    output; each node's product is the same BLAS call as in the stacked
    product.  Workers run under the caller's ``np.errstate``, which numpy
    does not pass to other threads, and every chunk finishes before the
    first chunk's error in node order is re-raised, so no thread writes to
    the output afterwards.  The workers are shut down when the block exits.
    """
    node_B, node_c = problem.node_B, problem.node_c
    K, d = node_B.shape[:2]
    if K == 1 or node_B.strides[0] == 0:
        B = node_B[0]
        yield lambda x: B @ x + node_c
        return
    chunks = min(K, _usable_cpus())
    if chunks < 2 or node_B.nbytes < _SPLIT_BYTES:
        yield lambda x: node_B @ x + node_c
        return
    bounds = [K * i // chunks for i in range(chunks + 1)]
    first, *rest = [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def node_values(x):
        out = np.empty((K, d))
        errors = np.geterr()
        jobs = [pool.submit(_matmul_into, node_B[s], x, out[s], errors) for s in rest]
        try:
            np.matmul(node_B[first], x, out=out[first])
        finally:
            futures.wait(jobs)
        for job in jobs:
            job.result()
        out += node_c
        return out

    with futures.ThreadPoolExecutor(max_workers=chunks - 1) as pool:
        yield node_values


def _random_skew(rng, d):
    G = rng.standard_normal((d, d))
    return 0.5 * (G - G.T)


def _unit_spectral(M):
    norm = spectral_norm(M)
    return M / norm if norm > 0 else M


# A skew node delta's Frobenius norm over sqrt(d).  A random skew matrix's
# spectral norm is near 2 ||.||_F / sqrt(d), a little less at small d.  With
# this value, K = 4 centred deltas have median spectral norms within 7% of
# 0.216 for d from 20 to 1000, as when each delta had spectral norm 0.25.
_DELTA_FROB = 0.133


def make_problem(kind, d, K, seed, noise=None, x_star=None):
    """Build a seeded ProblemInstance.

    Kinds (read by ``parse_kind``): ``bilinear`` (skew B from a random
    saddle matrix, needs even d), ``strongly_monotone:mu`` (mu I plus a skew
    part), and ``cocoercive:lmin,lmax`` (symmetric PSD B with that
    eigenvalue range).  The solution defaults to a random unit vector; pass
    ``x_star`` explicitly (a vector or scalar) to override.

    When the noise scales with the operator (``is_relative``), every node
    matrix is B itself, through a read-only (K, d, d) view with no copy;
    otherwise node k's is B plus the k-th of K zero-sum skew perturbations.
    Every node has the offset c.  Each skew delta is scaled to Frobenius
    norm ``_DELTA_FROB * sqrt(d)``, exact and O(d^2), where a spectral norm
    would take a d x d eigensolve.  The other unit-norm matrices are divided
    by their ``spectral_norm``, and a bilinear operator's L is that of its
    h x h saddle block, as ||B||_2 = ||M||_2.
    """
    if K < 1:
        raise ValueError("need at least one node")
    base, nums = parse_kind(kind)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))

    L = None  # AffineOperator takes spectral_norm(B)
    if base == "bilinear":
        if d < 2 or d % 2 != 0:
            raise BadDimension("bilinear problems need even dimension >= 2")
        h = d // 2
        M = _unit_spectral(rng.standard_normal((h, h)))
        L = spectral_norm(M)
        B = np.zeros((d, d))
        B[:h, h:] = M
        B[h:, :h] = -M.T
    elif base == "strongly_monotone":
        (mu,) = nums
        B = mu * np.eye(d) + (1.0 - mu) * _unit_spectral(_random_skew(rng, d))
    else:
        lmin, lmax = nums
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        B = Q @ np.diag(np.linspace(lmin, lmax, d)) @ Q.T
        B = 0.5 * (B + B.T)

    if x_star is None:
        xs = rng.standard_normal(d)
        xs /= np.linalg.norm(xs)
    else:
        xs = np.broadcast_to(np.asarray(x_star, dtype=np.float64), (d,)).copy()
    c = -B @ xs
    op = AffineOperator(B, c, L=L)

    if is_relative(noise) or K == 1:
        node_B = np.broadcast_to(B, (K, d, d))
    else:
        node_B = np.empty((K, d, d))
        for G in node_B:
            rng.standard_normal(out=G)
            G -= G.T  # ufuncs buffer the overlapping transpose
            norm = np.linalg.norm(G)
            if norm > 0:
                G *= _DELTA_FROB * np.sqrt(d) / norm
        # Still exactly skew, so each node's B + B^T is B's up to rounding.
        node_B -= node_B.mean(axis=0)
        node_B += B

    x1 = np.zeros(d)
    dist = float(np.linalg.norm(x1 - xs))
    domain = TestDomain(xs, 2.0 * dist if dist > 0 else 1.0)
    return ProblemInstance(op, node_B, np.broadcast_to(c, (K, d)), noise, domain, x1, xs)
