"""Optimistic dual averaging with quantized broadcasts, plus a baseline.

Each iteration of the main solver makes exactly one oracle call per node:

    X_{t+1/2} = X_t - gamma_t * mean_k Vhat_{k, t-1/2}
    V_{k, t+1/2} = oracle_k(X_{t+1/2})          (one call per node)
    Vhat_{k, t+1/2} = decode(encode(quantize(V_{k, t+1/2})))
    Y_{t+1} = Y_t - mean_k Vhat_{k, t+1/2}
    X_{t+1} = X_1 + eta_{t+1} * Y_{t+1}

The extrapolation step reuses the stored decoded messages from the previous
iteration instead of a second oracle call.  The extragradient baseline makes
two oracle calls and two broadcasts per iteration with a constant step.
Broadcast cost is counted on the sender side: one encoded message per node
per broadcast.

Both algorithms run in one driver (``_drive``).  It owns the state, the
compression pipeline and the noise stream, and hands each algorithm's step
one ``oracle(x)``: every node's operator at x (``vi.node_evaluator``), the
noise, the broadcast and decoding.  The driver refreshes levels on schedule,
computes the gap and writes a row at each checkpoint, and builds the
summary; a step only updates the iterates and its rates.  Iteration 1 and
each refresh start a segment, one immutable ``Segment``: broadcasts and rows
use the last one, and the summary averages the bounds of all.

Decoding a message reproduces its quantized vector exactly, so a broadcast
takes Vhat and each message's bit count straight from the quantizer's level
indices, by one gather each at the family's flat (type, level) indices
(``LevelFamily.flat_levels``), without building the bit stream.  At
checkpoint iterations every broadcast also sends its messages through the
real encoder and decoder and raises ``codec.WireMismatch`` unless the
roundtrip is exact and the messages hold exactly the counted bits.  A run
that overflows, produces an invalid value or a norm the wire format cannot
hold, or whose gap turns non-finite, raises ``RuntimeError`` naming the
iteration.

Two adaptive learning-rate schedules are provided.  The general schedule
sets gamma_t = eta_t from the accumulated squared differences of decoded
messages.  The alternative schedule splits the two rates, lags its
accumulators by two iterations, and guarantees eta_t <= gamma_t <= 1, which
is what the theory needs when co-coercivity is unavailable.  The step keeps
only the accumulators its schedule class lists.

An identity transport (``quant=None``) passes float64 vectors through
unchanged, counting 64 bits per coordinate, so solver behavior can be
compared against unquantized runs exactly.
"""

from collections import deque, namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import adapt, codec, vi
from .codec import build_codebook, code_length_bound
from .levels import LevelFamily, variance_bound_eps
from .quantizer import NonFinite, quantize_batch, reconstruct_flat


class BadQHat(ValueError):
    """Alternative-schedule exponent outside (0, 1/4]."""


METRIC_COLUMNS = ("t", "gap", "gamma", "eta", "bits", "oracle_calls", "eps_q")


class SolverState:
    """Mutable per-run state: iterates, stored messages, rate accumulators.

    ``s_diff`` accumulates sum_k ||Vhat_{k,s+1/2} - Vhat_{k,s-1/2}||^2 / K^2
    over completed iterations s; ``s_norm`` the same for plain squared norms
    and ``s_move`` for ||X_s - X_{s+1}||^2.  The ``*_last`` fields hold the
    most recent term of each sum so the alternative schedule can read the
    sums lagged by one completed iteration.  The qoda step keeps only the
    sums in its schedule's ``sums`` (general: diff; alternative: norm and
    move; constant: move); they live here so a schedule can serve many runs.
    ``v_bar_prev`` is the mean over nodes of the stored messages
    ``v_hat_prev``, summed once when they arrive.  ``at_checkpoint`` is set
    by the driver on checkpoint iterations; while it is set, every
    broadcast checks its messages on the real wire.
    """

    def __init__(self, x1, K):
        self.x1 = np.array(x1, dtype=np.float64)
        self.x = self.x1.copy()
        self.y = np.zeros_like(self.x1)
        self.x_half = self.x1.copy()
        self.v_hat_prev = np.zeros((K, self.x1.size))
        self.v_bar_prev = np.zeros_like(self.x1)
        self.at_checkpoint = False
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


class GeneralRates:
    sums = frozenset({"diff"})

    def rates(self, state):
        """gamma_t = eta_t = (1 + accumulated message differences)^(-1/2)."""
        v = (1.0 + state.s_diff) ** -0.5
        return v, v

    def eta_next(self, state):
        # s_diff already includes the term of the iteration being finished.
        return (1.0 + state.s_diff) ** -0.5


class AltRates:
    sums = frozenset({"norm", "move"})

    def __init__(self, q_hat=0.25):
        if not 0.0 < q_hat <= 0.25:
            raise BadQHat(f"q_hat must lie in (0, 1/4], got {q_hat}")
        self.q_hat = q_hat

    def rates(self, state):
        """Split rates from lag-2 accumulators; guarantees eta_t <= gamma_t <= 1."""
        s_norm = state.s_norm - state.s_norm_last
        s_move = state.s_move - state.s_move_last
        eta = (1.0 + s_norm + s_move) ** -0.5
        gamma = (1.0 + s_norm) ** (self.q_hat - 0.5)
        return gamma, eta

    def eta_next(self, state):
        # Norm terms through the just-finished iteration minus the newest
        # one, movement terms through the previous iteration: both lag the
        # next iteration index by two.
        return (1.0 + (state.s_norm - state.s_norm_last) + state.s_move) ** -0.5


class ConstantRates:
    # No rate reads a sum, but a diverging run on the identity transport stops
    # where the move's square overflows, long before a checkpoint's gap does.
    sums = frozenset({"move"})

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


def refresh_levels(samples, family, grid, estimator, protocol, scheme):
    """Re-estimate CDFs, re-place levels, and rebuild codebooks from samples.

    Returns (new_family, books, hist).  Raises adapt.AllZeroSamples when
    the samples carry no information (callers keep the old family).
    """
    if estimator == "truncated-normal":
        cdfs = adapt.fit_truncated_normal(samples, family)
    else:
        cdfs = adapt.weighted_cdf(samples, family)
    new_family = adapt.place_levels(family, cdfs, grid)
    hist = adapt.level_histogram(new_family, cdfs)
    books = build_codebook(new_family, hist, protocol, scheme)
    return new_family, books, hist


# From iteration t on: a level family, its books, their histogram and bounds.
Segment = namedtuple("Segment", "t family books hist eps_q n_q")


class _QuantPipeline:
    """Quantize, count wire bits, reconstruct; keep the segments in order."""

    def __init__(self, cfg, d, K, seed):
        if cfg.family.dimension != d:
            raise ValueError("family dimension does not match the problem")
        self.cfg = cfg
        self.d = d
        self.K = K
        self.segments = []
        hist = adapt.level_histogram(cfg.family, [None] * cfg.family.num_types)
        self._start_segment(
            1, cfg.family, build_codebook(cfg.family, hist, cfg.protocol, cfg.scheme), hist
        )
        # The latest broadcast blocks V (K, d); nothing writes to them later.
        self.recent = deque(maxlen=cfg.samples_per_node)
        self.rng = default_rng(SeedSequence(entropy=seed, spawn_key=(2,)))

    def _start_segment(self, t, family, books, hist):
        """Quantize with ``family`` and ``books`` from iteration t on."""
        self.segments.append(Segment(
            t, family, books, hist, variance_bound_eps(family, self.d),
            code_length_bound(hist, family, self.cfg.protocol),
        ))

    def maybe_update(self, t):
        """Refresh levels and codebooks when t is on the update schedule."""
        # The window is empty before the first broadcast and with adaptation off.
        if not self.recent or (t - 1) % self.cfg.update_period != 0:
            return
        # Node by node, oldest first.
        samples = np.stack(self.recent, axis=1).reshape(-1, self.d)
        try:
            refreshed = refresh_levels(
                samples, self.segments[-1].family, self.cfg.grid,
                self.cfg.estimator, self.cfg.protocol, self.cfg.scheme,
            )
        except adapt.AllZeroSamples:
            return
        self._start_segment(t, *refreshed)

    def broadcast(self, V, state):
        """Compress one message per node, add its bits to ``state``; returns Vhat.

        The K rows are quantized in one ``quantize_batch(V, family,
        uniforms=...)`` call.  Vhat and the bits are gathered at the
        quantizer's own level indices, which need no range check; decoding
        the wire would reproduce Vhat.  The bits of the whole broadcast are
        one gather and one sum (``Codebook.batch_bits``).  At a checkpoint
        the messages also go through the real codec.
        """
        if self.cfg.update_period > 0:
            self.recent.append(V)
        seg = self.segments[-1]
        uniforms = self.rng.random((self.K, self.d))
        norms, signs, idx = quantize_batch(V, seg.family, uniforms=uniforms)
        values, coord_start, _ = seg.family.flat_levels()
        flat = idx + coord_start
        bits = seg.books.batch_bits(norms, flat)
        if state.at_checkpoint:
            codec.verify_wire(norms, signs, idx, seg.books, bits)
        state.bits += bits
        return reconstruct_flat(norms, signs, flat, values)


class _IdentityPipeline:
    """Float64 pass-through transport: no quantization, 64 bits/coordinate."""

    def __init__(self, d, K):
        self.broadcast_bits = 64 * d * K
        self.segments = [Segment(1, None, None, None, 0.0, 64.0 * d)]

    def maybe_update(self, t):
        pass

    def broadcast(self, V, state):
        state.bits += self.broadcast_bits
        return V.copy()


# Checkpoint rows plus end-of-run summary aggregates.
RunMetrics = namedtuple("RunMetrics", "rows summary")


def _segment_averages(segments, T):
    """Duration-weighted averages of the bounds of the ``Segment`` records.

    Returns (eps_bar, eps_hat, n_bar): mean variance bound, mean square-root
    variance bound, and mean code-length bound across the run.
    """
    ends = [seg.t for seg in segments[1:]] + [T + 1]
    eps_bar = eps_hat = n_bar = 0.0
    for seg, end in zip(segments, ends):
        span = end - seg.t
        eps_bar += span * seg.eps_q
        eps_hat += span * np.sqrt(seg.eps_q)
        n_bar += span * seg.n_q
    T = max(T, 1)  # a run of no iterations averages to 0
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


def _drive(problem, T, quant, seed, step):
    """Run ``step(state, oracle)`` for t = 1..T; returns RunMetrics.

    ``oracle(x)`` makes one oracle call per node at x, broadcasts the
    results and returns the decoded messages Vhat (K, d).
    """
    K, d = problem.K, problem.d
    state = SolverState(problem.x1, K)
    if quant is None:
        pipeline = _IdentityPipeline(d, K)
    else:
        pipeline = _QuantPipeline(quant, d, K, seed)
    noise_rng = default_rng(SeedSequence(entropy=seed, spawn_key=(1,)))

    def oracle(x):
        V = node_values(x)
        if problem.noise is not None:
            V = problem.noise.sample_batch(V, noise_rng)
        state.oracle_calls += 1
        return pipeline.broadcast(V, state)

    node_values = vi.node_evaluator(problem)
    checkpoints = set(_checkpoints(T))
    rows = []
    try:
        # A run diverges at its first overflow, not checkpoints later.
        with np.errstate(over="raise", invalid="raise"):
            for t in range(1, T + 1):
                state.at_checkpoint = t in checkpoints
                pipeline.maybe_update(t)
                step(state, oracle)
                state.x_half_sum += state.x_half
                if state.at_checkpoint:
                    gap = problem.gap(state.x_half_sum / t)
                    if not np.isfinite(gap):
                        raise RuntimeError(f"non-finite gap at iteration {t}")
                    rows.append((t, gap, state.gamma, state.eta, state.bits,
                                 state.oracle_calls, pipeline.segments[-1].eps_q))
    except (NonFinite, FloatingPointError) as exc:
        raise RuntimeError(f"diverged at iteration {t}: {exc}") from exc

    eps_bar, eps_hat, n_bar = _segment_averages(pipeline.segments, T)
    summary = {
        "final_gap": rows[-1][1] if T >= 1 else float("nan"),
        "total_bits": state.bits,
        "oracle_calls_per_node": state.oracle_calls,
        "eps_bar": eps_bar,
        "eps_hat": eps_hat,
        "n_bar": n_bar,
        "T": T,
    }
    return RunMetrics(rows, summary)


def run_qoda(problem, schedule, T, quant=None, seed=0):
    """Run the quantized optimistic dual-averaging loop for T iterations.

    Returns RunMetrics with one row per checkpoint (powers of two plus T)
    and summary aggregates.  Fully deterministic given (problem, seed).
    """
    K = problem.K

    def step(state, oracle):
        state.gamma, state.eta = schedule.rates(state)
        state.x_half = state.x - state.gamma * state.v_bar_prev
        v_hat = oracle(state.x_half)
        v_bar = np.add.reduce(v_hat, axis=0) / K
        if "diff" in schedule.sums:
            diff = v_hat - state.v_hat_prev
            state.s_diff += float(np.einsum("kd,kd->", diff, diff)) / K**2
        if "norm" in schedule.sums:
            state.s_norm_last = float(np.einsum("kd,kd->", v_hat, v_hat)) / K**2
            state.s_norm += state.s_norm_last

        state.y = state.y - v_bar
        x_next = state.x1 + schedule.eta_next(state) * state.y

        if "move" in schedule.sums:
            move = state.x - x_next
            state.s_move_last = float(move @ move)
            state.s_move += state.s_move_last

        state.v_hat_prev = v_hat
        state.v_bar_prev = v_bar
        state.x = x_next

    return _drive(problem, T, quant, seed, step)


def run_extragradient_baseline(problem, T, quant=None, seed=0, step=0.3):
    """Stochastic extragradient through the same compression pipeline.

    Per iteration and per node: two oracle calls and two broadcasts, i.e.
    twice the solver's communication at equal T.  Uses a constant step
    ``step / L``.  Metrics rows match run_qoda's schema (gamma = eta = the
    constant step).
    """
    K = problem.K
    gamma = step / problem.L

    def eg_step(state, oracle):
        state.gamma = state.eta = gamma
        state.x_half = state.x - gamma * (oracle(state.x).sum(axis=0) / K)
        state.x = state.x - gamma * (oracle(state.x_half).sum(axis=0) / K)

    return _drive(problem, T, quant, seed, eg_step)
