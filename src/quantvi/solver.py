"""Optimistic dual averaging with quantized broadcasts, plus a baseline.

Each iteration of the main solver makes exactly one oracle call per node:

    X_{t+1/2} = X_t - gamma_t * mean_k Vhat_{k, t-1/2}
    V_{k, t+1/2} = oracle_k(X_{t+1/2})          (one call per node)
    Vhat_{k, t+1/2} = decode(encode(quantize(V_{k, t+1/2})))
    Y_{t+1} = Y_t - mean_k Vhat_{k, t+1/2}
    X_{t+1} = X_1 + eta_{t+1} * Y_{t+1}

The extrapolation step reuses the stored decoded messages from the previous
iteration instead of a second oracle call.  Broadcast cost is counted on the
sender side: one encoded message per node per broadcast.

Decoding a message reproduces its quantized vector exactly, so the loop
takes Vhat straight from the quantizer and counts each message's bits from
the codebook's code lengths (``Codebook.message_bits``) without building the
bit stream.  At every checkpoint both solvers send that iteration's messages
through the real encoder and decoder and raise ``codec.WireMismatch`` unless
the roundtrip is exact and the messages hold exactly the counted bits.

Two adaptive learning-rate schedules are provided.  The general schedule
sets gamma_t = eta_t from the accumulated squared differences of decoded
messages.  The alternative schedule splits the two rates, lags its
accumulators by two iterations, and guarantees eta_t <= gamma_t <= 1, which
is what the theory needs when co-coercivity is unavailable.

An identity transport (``quant=None``) passes float64 vectors through
unchanged, counting 64 bits per coordinate, so solver behavior can be
compared against unquantized runs exactly.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import adapt, codec
from .codec import LevelHistogram, build_codebook, code_length_bound, estimate_level_probs
from .levels import LevelFamily, variance_bound_eps
from .quantizer import dequantize_batch, quantize_batch


class BadQHat(ValueError):
    """Alternative-schedule exponent outside (0, 1/4]."""


METRIC_COLUMNS = ("t", "gap", "gamma", "eta", "bits", "oracle_calls", "eps_q")


class SolverState:
    """Mutable per-run state: iterates, stored messages, rate accumulators.

    ``s_diff`` accumulates sum_k ||Vhat_{k,s+1/2} - Vhat_{k,s-1/2}||^2 / K^2
    over completed iterations s; ``s_norm`` the same for plain squared norms
    and ``s_move`` for ||X_s - X_{s+1}||^2.  The ``*_last`` fields hold the
    most recent term of each sum so the alternative schedule can read the
    sums lagged by one completed iteration.
    """

    def __init__(self, x1, K):
        self.x1 = np.array(x1, dtype=np.float64)
        self.x = self.x1.copy()
        self.y = np.zeros_like(self.x1)
        self.x_half = self.x1.copy()
        self.v_hat_prev = np.zeros((K, self.x1.size))
        self.t = 1
        self.K = K
        self.s_diff = 0.0
        self.s_norm = 0.0
        self.s_norm_last = 0.0
        self.s_move = 0.0
        self.s_move_last = 0.0
        self.x_half_sum = np.zeros_like(self.x1)
        self.bits = 0
        self.oracle_calls = 0
        self.gamma = 1.0
        self.eta = 1.0


def rates_general(state):
    """gamma_t = eta_t = (1 + accumulated message differences)^(-1/2)."""
    v = (1.0 + state.s_diff) ** -0.5
    return v, v


def rates_alt(state, q_hat):
    """Split rates from lag-2 accumulators; guarantees eta_t <= gamma_t <= 1."""
    if not 0.0 < q_hat <= 0.25:
        raise BadQHat(f"q_hat must lie in (0, 1/4], got {q_hat}")
    s_norm = state.s_norm - state.s_norm_last
    s_move = state.s_move - state.s_move_last
    eta = (1.0 + s_norm + s_move) ** -0.5
    gamma = (1.0 + s_norm) ** (q_hat - 0.5)
    return gamma, eta


class GeneralRates:
    kind = "general"

    def rates(self, state):
        return rates_general(state)

    def eta_next(self, state):
        # s_diff already includes the term of the iteration being finished.
        return (1.0 + state.s_diff) ** -0.5


class AltRates:
    kind = "alt"

    def __init__(self, q_hat=0.25):
        if not 0.0 < q_hat <= 0.25:
            raise BadQHat(f"q_hat must lie in (0, 1/4], got {q_hat}")
        self.q_hat = q_hat

    def rates(self, state):
        return rates_alt(state, self.q_hat)

    def eta_next(self, state):
        # Norm terms through the just-finished iteration minus the newest
        # one, movement terms through the previous iteration: both lag the
        # next iteration index by two.
        return (1.0 + (state.s_norm - state.s_norm_last) + state.s_move) ** -0.5


class ConstantRates:
    kind = "constant"

    def __init__(self, c):
        if c <= 0:
            raise ValueError("constant rate must be positive")
        self.c = float(c)

    def rates(self, state):
        return self.c, self.c

    def eta_next(self, state):
        return self.c


@dataclass
class QuantizationConfig:
    """Everything the compression pipeline needs besides the problem."""

    family: LevelFamily
    protocol: str = codec.PROTOCOL_MAIN
    scheme: str = codec.SCHEME_HUFFMAN
    update_period: int = 1000  # 0 disables level adaptation
    grid: int = 512
    estimator: str = "empirical"  # or "truncated-normal"
    samples_per_node: int = 16


def _prior_histogram(family):
    """Level histogram under a uniform prior on normalized magnitudes."""
    rows = [
        estimate_level_probs(adapt.UniformCdf(), seq) for seq in family.sequences
    ]
    return LevelHistogram(rows)


def refresh_levels(samples, family, budgets, grid, estimator, protocol, scheme):
    """Re-estimate CDFs, re-place levels, and rebuild codebooks from samples.

    Returns (new_family, books, hist, cdf).  Raises adapt.AllZeroSamples when
    the samples carry no information (callers keep the old family).
    """
    if estimator == "truncated-normal":
        cdf = adapt.fit_truncated_normal(samples, family)
    else:
        cdf = adapt.weighted_cdf(samples, family)
    new_seqs = []
    for m, seq in enumerate(family.sequences):
        c = cdf.type_cdfs[m]
        new_seqs.append(seq if c is None else adapt.optimize_levels(c, budgets[m], grid))
    new_family = LevelFamily(new_seqs, family.assignment, q=family.q)
    rows = [
        estimate_level_probs(
            cdf.type_cdfs[m] if cdf.type_cdfs[m] is not None else adapt.UniformCdf(),
            new_family.sequences[m],
        )
        for m in range(new_family.num_types)
    ]
    hist = LevelHistogram(rows)
    books = build_codebook(new_family, hist, protocol, scheme)
    return new_family, books, hist, cdf


class _QuantPipeline:
    """Quantize, count wire bits, reconstruct; track bounds and segments."""

    def __init__(self, cfg, d, K, seed):
        if cfg.family.dimension != d:
            raise ValueError("family dimension does not match the problem")
        self.cfg = cfg
        self.d = d
        self.K = K
        self.family = cfg.family
        self.budgets = [seq.alpha for seq in cfg.family.sequences]
        self.hist = _prior_histogram(self.family)
        self.books = build_codebook(self.family, self.hist, cfg.protocol, cfg.scheme)
        self.eps_q = variance_bound_eps(self.family, d)
        self.n_q = code_length_bound(self.hist, self.family, d, cfg.protocol)
        self.segments = [(1, self.eps_q, self.n_q)]
        self.buffers = [deque(maxlen=cfg.samples_per_node) for _ in range(K)]
        # The last broadcast's rows, codebook, family and counted bits.
        self.sent = None
        self.rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(2,)))

    def observe(self, V):
        if self.cfg.update_period <= 0:
            return
        for k in range(self.K):
            self.buffers[k].append(V[k].copy())

    def maybe_update(self, t):
        """Refresh levels and codebooks when t is on the update schedule."""
        R = self.cfg.update_period
        if R <= 0 or t <= 1 or (t - 1) % R != 0:
            return False
        samples = [v for buf in self.buffers for v in buf]
        if not samples:
            return False
        try:
            self.family, self.books, self.hist, _ = refresh_levels(
                np.stack(samples), self.family, self.budgets, self.cfg.grid,
                self.cfg.estimator, self.cfg.protocol, self.cfg.scheme,
            )
        except adapt.AllZeroSamples:
            return False
        self.eps_q = variance_bound_eps(self.family, self.d)
        self.n_q = code_length_bound(self.hist, self.family, self.d, self.cfg.protocol)
        self.segments.append((t, self.eps_q, self.n_q))
        return True

    def broadcast(self, V):
        """Compress one message per node; returns (Vhat, bits).

        The bits are counted from the codebook's code lengths and Vhat is
        the quantizer's own output: decoding the wire would reproduce it.
        """
        uniforms = self.rng.random((self.K, self.d))
        norms, signs, idx = quantize_batch(V, self.family, uniforms=uniforms)
        bits = int(self.books.message_bits(norms, idx).sum())
        self.sent = (norms, signs, idx, self.books, self.family, bits)
        return dequantize_batch(norms, signs, idx, self.family), bits

    def check_wire(self):
        """Send the last broadcast through the real codec and check it."""
        codec.verify_wire(*self.sent)


class _IdentityPipeline:
    """Float64 pass-through transport: no quantization, 64 bits/coordinate."""

    def __init__(self, d, K):
        self.d = d
        self.K = K
        self.eps_q = 0.0
        self.n_q = 64.0 * d
        self.segments = [(1, 0.0, 64.0 * d)]

    def observe(self, V):
        pass

    def maybe_update(self, t):
        return False

    def broadcast(self, V):
        return V.copy(), 64 * self.d * self.K

    def check_wire(self):
        pass


class RunMetrics:
    """Checkpoint rows plus end-of-run summary aggregates."""

    def __init__(self, rows, summary, avg_iterate, iterates=None):
        self.rows = rows
        self.summary = summary
        self.avg_iterate = avg_iterate
        self.iterates = iterates

    def column(self, name):
        i = METRIC_COLUMNS.index(name)
        return np.array([row[i] for row in self.rows])


def _segment_averages(segments, T):
    """Duration-weighted averages of the per-segment bounds.

    Returns (eps_bar, eps_hat, n_bar): mean variance bound, mean square-root
    variance bound, and mean code-length bound across the run.
    """
    if T == 0:
        return 0.0, 0.0, 0.0
    starts = [s for s, _, _ in segments] + [T + 1]
    eps_bar = eps_hat = n_bar = 0.0
    for i, (_, eps, n) in enumerate(segments):
        span = min(starts[i + 1], T + 1) - starts[i]
        if span <= 0:
            continue
        eps_bar += span * eps
        eps_hat += span * np.sqrt(eps)
        n_bar += span * n
    return eps_bar / T, eps_hat / T, n_bar / T


def _checkpoints(T):
    pts = set()
    p = 1
    while p <= T:
        pts.add(p)
        p *= 2
    if T >= 1:
        pts.add(T)
    return sorted(pts)


def _stacked_ops(problem):
    B = np.stack([op.B for op in problem.node_ops])
    c = np.stack([op.c for op in problem.node_ops])
    return B, c


def _noise_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))


def _make_pipeline(quant, problem, seed):
    if quant is None:
        return _IdentityPipeline(problem.d, problem.K)
    return _QuantPipeline(quant, problem.d, problem.K, seed)


def qoda_step(state, problem, pipeline, schedule, node_B, node_c, noise_rng):
    """Advance the solver by one iteration (one oracle call per node)."""
    K = problem.K
    gamma, eta = schedule.rates(state)
    state.gamma, state.eta = gamma, eta

    state.x_half = state.x - gamma * (state.v_hat_prev.sum(axis=0) / K)

    V = node_B @ state.x_half + node_c
    if problem.noise is not None:
        V = problem.noise.sample_batch(V, noise_rng)
    state.oracle_calls += 1
    pipeline.observe(V)

    v_hat, bits = pipeline.broadcast(V)
    state.bits += bits
    state.x_half_sum += state.x_half

    diff = v_hat - state.v_hat_prev
    state.s_diff += float(np.einsum("kd,kd->", diff, diff)) / K**2
    norm_term = float(np.einsum("kd,kd->", v_hat, v_hat)) / K**2
    state.s_norm += norm_term
    state.s_norm_last = norm_term

    state.y = state.y - v_hat.sum(axis=0) / K
    eta_next = schedule.eta_next(state)
    x_next = state.x1 + eta_next * state.y

    move = state.x - x_next
    move_term = float(move @ move)
    state.s_move += move_term
    state.s_move_last = move_term

    state.v_hat_prev = v_hat
    state.x = x_next
    state.t += 1


def run_qoda(problem, schedule, T, quant=None, seed=0, x1=None,
             record_iterates=False, gap_kwargs=None):
    """Run the quantized optimistic dual-averaging loop for T iterations.

    Returns RunMetrics with one row per checkpoint (powers of two plus T)
    and summary aggregates.  Fully deterministic given (problem, seed).
    """
    gap_kwargs = gap_kwargs or {}
    state = SolverState(problem.x1 if x1 is None else x1, problem.K)
    pipeline = _make_pipeline(quant, problem, seed)
    node_B, node_c = _stacked_ops(problem)
    noise_rng = _noise_rng(seed)
    checkpoints = _checkpoints(T)
    rows = []
    iterates = [] if record_iterates else None
    next_cp = 0
    for t in range(1, T + 1):
        pipeline.maybe_update(t)
        qoda_step(state, problem, pipeline, schedule, node_B, node_c, noise_rng)
        if record_iterates:
            iterates.append(state.x.copy())
        if next_cp < len(checkpoints) and t == checkpoints[next_cp]:
            pipeline.check_wire()
            avg = state.x_half_sum / t
            gap = problem.gap(avg, **gap_kwargs)
            if not np.isfinite(gap):
                raise RuntimeError(f"non-finite gap at iteration {t}")
            rows.append(
                (t, gap, state.gamma, state.eta, state.bits, state.oracle_calls,
                 pipeline.eps_q)
            )
            next_cp += 1
    return _finish(rows, state, pipeline, T, iterates)


def run_extragradient_baseline(problem, T, quant=None, seed=0, step=0.3,
                               x1=None, gap_kwargs=None):
    """Stochastic extragradient through the same compression pipeline.

    Per iteration and per node: two oracle calls and two broadcasts, i.e.
    twice the solver's communication at equal T.  Uses a constant step
    ``step / L``.  Metrics rows match run_qoda's schema (gamma = eta = the
    constant step).
    """
    gap_kwargs = gap_kwargs or {}
    state = SolverState(problem.x1 if x1 is None else x1, problem.K)
    pipeline = _make_pipeline(quant, problem, seed)
    node_B, node_c = _stacked_ops(problem)
    noise_rng = _noise_rng(seed)
    K = problem.K
    gamma = step / problem.L
    state.gamma = state.eta = gamma
    checkpoints = _checkpoints(T)
    rows = []
    next_cp = 0
    for t in range(1, T + 1):
        at_checkpoint = next_cp < len(checkpoints) and t == checkpoints[next_cp]
        pipeline.maybe_update(t)
        V = node_B @ state.x + node_c
        if problem.noise is not None:
            V = problem.noise.sample_batch(V, noise_rng)
        state.oracle_calls += 1
        pipeline.observe(V)
        v_hat, bits = pipeline.broadcast(V)
        if at_checkpoint:
            pipeline.check_wire()
        state.bits += bits
        state.x_half = state.x - gamma * (v_hat.sum(axis=0) / K)

        V = node_B @ state.x_half + node_c
        if problem.noise is not None:
            V = problem.noise.sample_batch(V, noise_rng)
        state.oracle_calls += 1
        pipeline.observe(V)
        v_hat, bits = pipeline.broadcast(V)
        if at_checkpoint:
            pipeline.check_wire()
        state.bits += bits
        state.x = state.x - gamma * (v_hat.sum(axis=0) / K)

        state.x_half_sum += state.x_half
        state.t += 1
        if at_checkpoint:
            avg = state.x_half_sum / t
            gap = problem.gap(avg, **gap_kwargs)
            if not np.isfinite(gap):
                raise RuntimeError(f"non-finite gap at iteration {t}")
            rows.append(
                (t, gap, gamma, gamma, state.bits, state.oracle_calls,
                 pipeline.eps_q)
            )
            next_cp += 1
    return _finish(rows, state, pipeline, T, None)


def _finish(rows, state, pipeline, T, iterates):
    eps_bar, eps_hat, n_bar = _segment_averages(pipeline.segments, T)
    if T >= 1:
        avg = state.x_half_sum / T
        final_gap = rows[-1][1]
    else:
        avg = None
        final_gap = float("nan")
    summary = {
        "final_gap": final_gap,
        "total_bits": state.bits,
        "oracle_calls_per_node": state.oracle_calls,
        "eps_bar": eps_bar,
        "eps_hat": eps_hat,
        "n_bar": n_bar,
        "T": T,
        "empty": T == 0,
    }
    return RunMetrics(rows, summary, avg, iterates)
