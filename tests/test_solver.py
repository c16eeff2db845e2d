import copy
import math
import warnings

import numpy as np
import pytest

from quantvi import adapt, codec, solver, vi
from quantvi.codec import code_length_bound
from quantvi.levels import LevelFamily, LevelSequence, variance_bound_eps
from quantvi.solver import (
    AltRates,
    BadQHat,
    ConstantRates,
    GeneralRates,
    METRIC_COLUMNS,
    QuantizationConfig,
    SolverState,
    refresh_levels,
    run_extragradient_baseline,
    run_qoda,
)
from quantvi.quantizer import dequantize_batch
from quantvi.vi import AbsoluteNoise, make_problem

import reference


def _column(metrics, name):
    return np.array([row[METRIC_COLUMNS.index(name)] for row in metrics.rows])


def _fam(d, alpha=3, q=2):
    seq = LevelSequence([j / (alpha + 1) for j in range(alpha + 2)])
    return LevelFamily([seq], np.zeros(d, dtype=np.int64), q=q)


def _quant(d, **kw):
    kw.setdefault("update_period", 0)
    return QuantizationConfig(family=_fam(d), **kw)


def test_state_initialization():
    st = SolverState(np.array([1.0, 2.0]), K=3)
    assert st.x.tolist() == [1.0, 2.0]
    assert st.y.tolist() == [0.0, 0.0]
    assert st.v_hat_prev.shape == (3, 2)
    assert st.at_checkpoint is False
    assert (st.gamma, st.eta) == (1.0, 1.0)
    assert st.bits == 0 and st.oracle_calls == 0


def test_rates_general_frozen():
    st = SolverState(np.zeros(2), K=1)
    assert GeneralRates().rates(st) == (1.0, 1.0)
    st.s_diff = 3.0
    assert GeneralRates().rates(st) == (0.5, 0.5)


def test_rates_alt_frozen():
    st = SolverState(np.zeros(2), K=1)
    assert AltRates(0.25).rates(st) == (1.0, 1.0)
    st.s_norm, st.s_norm_last = 5.0, 2.0  # lagged norm sum 3
    st.s_move, st.s_move_last = 13.0, 1.0  # lagged move sum 12
    gamma, eta = AltRates(0.25).rates(st)
    assert eta == pytest.approx(0.25)  # (1 + 3 + 12)^(-1/2)
    assert gamma == pytest.approx(4.0 ** -0.25)  # (1 + 3)^(0.25 - 0.5)
    assert eta <= gamma <= 1.0


def test_bad_q_hat_rejected():
    for bad in (0.0, 0.3, -0.1, 1.0):
        with pytest.raises(BadQHat):
            AltRates(bad)
    AltRates(0.25)  # boundary value is allowed


def test_constant_rates():
    sched = ConstantRates(0.125)
    st = SolverState(np.zeros(2), K=1)
    assert sched.rates(st) == (0.125, 0.125)
    assert sched.eta_next(st) == 0.125
    with pytest.raises(ValueError):
        ConstantRates(0.0)


def test_refresh_levels_places_levels_and_books():
    rng = np.random.default_rng(0)
    fam = _fam(8, alpha=2)
    samples = np.abs(rng.standard_normal((12, 8)))
    new_fam, cdfs = refresh_levels(samples, fam, 64, "empirical")
    assert new_fam.sequences[0].alpha == 2
    assert new_fam.fingerprint() != fam.fingerprint()
    assert [type(c) for c in cdfs] == [adapt.StepCdf]
    # A pipeline segment builds the books and histogram of the refreshed levels.
    pipe = solver._QuantPipeline(QuantizationConfig(family=fam, grid=64), 8, 1, seed=0)
    assert pipe.segments[0].books.family_id == fam.fingerprint()
    pipe._start_segment(2, new_fam, cdfs)
    seg = pipe.segments[-1]
    assert (seg.t, seg.family) == (2, new_fam)
    assert seg.books.family_id == new_fam.fingerprint()
    codec.validate_histogram(seg.hist, new_fam)
    assert seg.n_q == code_length_bound(seg.hist, new_fam, "main")
    with pytest.raises(adapt.AllZeroSamples):
        refresh_levels(np.zeros((3, 8)), fam, 64, "empirical")


def test_run_qoda_row_schema_and_counts():
    problem = make_problem("bilinear", d=6, K=2, seed=1, noise=AbsoluteNoise(0.1))
    metrics = run_qoda(problem, GeneralRates(), 40, quant=_quant(6), seed=0)
    assert METRIC_COLUMNS == ("t", "gap", "gamma", "eta", "bits", "oracle_calls", "eps_q")
    assert [row[0] for row in metrics.rows] == [1, 2, 4, 8, 16, 32, 40]
    for row in metrics.rows:
        assert len(row) == len(METRIC_COLUMNS)
        assert all(np.isfinite(v) for v in row)
    assert metrics.summary["oracle_calls_per_node"] == 40
    assert metrics.summary["T"] == 40
    assert metrics.summary["final_gap"] == metrics.rows[-1][1]
    assert _column(metrics, "t").tolist() == [1, 2, 4, 8, 16, 32, 40]


def test_run_qoda_is_deterministic():
    problem = make_problem("bilinear", d=6, K=2, seed=1, noise=AbsoluteNoise(0.1))
    a = run_qoda(problem, GeneralRates(), 30, quant=_quant(6), seed=4)
    b = run_qoda(problem, GeneralRates(), 30, quant=_quant(6), seed=4)
    c = run_qoda(problem, GeneralRates(), 30, quant=_quant(6), seed=5)
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_identity_transport_bit_accounting():
    problem = make_problem("bilinear", d=6, K=3, seed=2, noise=AbsoluteNoise(0.1))
    metrics = run_qoda(problem, GeneralRates(), 10, quant=None, seed=0)
    # 64 bits per coordinate per node per iteration, no variance penalty.
    assert metrics.summary["total_bits"] == 64 * 6 * 3 * 10
    assert metrics.summary["eps_bar"] == 0.0
    assert metrics.summary["n_bar"] == 64.0 * 6


def _scattered_quant(**kw):
    fam = LevelFamily(
        [LevelSequence([0.0, 0.25, 0.5, 0.75, 1.0]), LevelSequence([0.0, 0.5, 1.0])],
        np.array([0, 1, 1, 0, 1, 0]),
    )
    return QuantizationConfig(family=fam, **kw)


@pytest.mark.parametrize("algorithm", ["qoda", "extragradient"])
def test_quantized_bits_match_message_sizes(monkeypatch, algorithm):
    # The run's counted bits must equal the lengths of the real messages
    # for the same draws, across level refreshes (t = 6, 11), under both
    # protocols and both schemes, for every broadcast of either algorithm.
    sent = []  # (norms, s, books) of every broadcast
    quantize, broadcast = solver.quantize_batch, solver._QuantPipeline.broadcast

    def recording_quantize(V, family, **kw):
        rows = quantize(V, family, **kw)
        sent.append(rows)
        return rows

    def recording_broadcast(self, V, state):
        out = broadcast(self, V, state)
        sent[-1] = (*sent[-1], self.segments[-1].books)
        return out

    monkeypatch.setattr(solver, "quantize_batch", recording_quantize)
    monkeypatch.setattr(solver._QuantPipeline, "broadcast", recording_broadcast)
    problem = make_problem("bilinear", d=6, K=2, seed=3, noise=AbsoluteNoise(0.1))
    per_iteration = 1 if algorithm == "qoda" else 2
    for protocol in ("main", "alternating"):
        for scheme in ("huffman", "elias"):
            sent.clear()
            quant = _scattered_quant(protocol=protocol, scheme=scheme, update_period=5,
                                     samples_per_node=4)
            if algorithm == "qoda":
                metrics = run_qoda(problem, GeneralRates(), 12, quant=quant, seed=0)
            else:
                metrics = run_extragradient_baseline(problem, 12, quant=quant, seed=0)
            assert len(sent) == 12 * per_iteration
            assert len({id(books) for _, _, books in sent}) == 3
            wire = sum(m.nbits for rows in sent for m in codec.encode_batch(*rows))
            assert metrics.summary["total_bits"] == wire
            assert metrics.rows[-1][4] == wire


def _random_family(rng):
    M = int(rng.integers(1, 4))
    seqs = [LevelSequence(np.concatenate(([0.0], np.sort(rng.random(a)), [1.0])))
            for a in rng.integers(0, 6, M)]
    d = int(rng.integers(3, 9))
    return LevelFamily(seqs, rng.integers(0, M, d), q=int(rng.integers(1, 3)))


def test_broadcast_matches_the_checked_public_functions():
    # The broadcast gathers Vhat and the bits at wire indices without a
    # range check; with the same uniforms both must equal what
    # dequantize_batch and the range-checked bit count return, bit for bit,
    # and Vhat must equal norm * sign * level value from the library's
    # signs and levels.  No zero of Vhat may be -0.0: a negative coordinate
    # rounded to level 0 comes back as +0.0.  The rows cover a zero vector,
    # a norm that underflows float32, a lone nonzero coordinate (u = 1
    # exactly) and scattered zeros.
    rng = np.random.default_rng(11)
    negative_at_zero = 0
    for trial in range(60):
        fam = _random_family(rng)
        d = fam.dimension
        V = rng.standard_normal((5, d))
        V[0] = 0.0
        V[1] *= 1e-50
        V[2] = 0.0
        V[2, rng.integers(d)] = -3.0
        V[3, rng.random(d) < 0.5] = 0.0
        quant = QuantizationConfig(family=fam, protocol=("main", "alternating")[trial % 2],
                                   scheme=("huffman", "elias")[trial // 2 % 2])
        pipe = solver._QuantPipeline(quant, d, 5, seed=trial)
        U = copy.deepcopy(pipe.rng).random((5, d))
        state = SolverState(np.zeros(d), 5)
        state.at_checkpoint = trial % 3 == 0
        v_hat = pipe.broadcast(V, state)

        norms, s = solver.quantize_batch(V, fam, uniforms=U)
        signs, idx = reference.level_indices(s, fam.coord_start)
        lone = int(np.flatnonzero(V[2])[0])
        assert norms[0] == norms[1] == 0.0
        assert idx[2, lone] == len(fam.sequences[fam.assignment[lone]]) - 1
        expected = dequantize_batch(norms, s, fam)
        assert v_hat.tobytes() == expected.tobytes()
        values = fam.values[idx + fam.coord_start]
        assert v_hat.tobytes() == (norms[:, None] * signs * values).tobytes()
        assert not np.signbit(v_hat[v_hat == 0.0]).any()
        negative_at_zero += int(((V < 0) & (idx == 0)).sum())
        books = pipe.segments[-1].books
        assert state.bits == int(books.message_bits(norms, books.wire_indices(norms, s)).sum())
    assert negative_at_zero > 0


@pytest.mark.parametrize("estimator", ["empirical", "truncated-normal"])
@pytest.mark.parametrize("protocol", ["main", "alternating"])
def test_refresh_keeps_the_levels_of_a_type_without_coordinates(monkeypatch, protocol,
                                                                estimator):
    seq = LevelSequence([0.0, 0.25, 0.5, 0.75, 1.0])
    fam = LevelFamily([seq] * 3, np.array([0, 2, 0, 2, 2, 0]))
    quant = QuantizationConfig(family=fam, protocol=protocol, estimator=estimator,
                               update_period=100, grid=64)
    problem = make_problem("bilinear", d=6, K=2, seed=1, noise=AbsoluteNoise(0.1))
    refreshed = []
    start = solver._QuantPipeline._start_segment

    def recording_start(self, t, family, cdfs):
        refreshed.append((t, family))
        start(self, t, family, cdfs)

    monkeypatch.setattr(solver._QuantPipeline, "_start_segment", recording_start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", adapt.DegenerateSample)
        metrics = run_qoda(problem, GeneralRates(), 400, quant=quant, seed=0)
    assert metrics.rows[-1][0] == 400
    assert [t for t, _ in refreshed] == [1, 101, 201, 301]
    assert all(f.sequences[1] == seq for _, f in refreshed)


@pytest.mark.parametrize("algorithm", ["qoda", "extragradient"])
def test_layer_calls_keep_the_traced_argument_positions(monkeypatch, algorithm):
    # perfbench traces quantize_batch and optimize_levels and its hooks read
    # the batch from args[0], the family from args[1] and the grid from
    # args[2]: each broadcast must quantize its K rows in one call made that
    # way, and each refresh must place each type's levels in one call.
    quantized, placed = [], []
    quantize, optimize = solver.quantize_batch, adapt.optimize_levels

    def recording_quantize(*args, **kw):
        quantized.append(args)
        return quantize(*args, **kw)

    def recording_optimize(*args, **kw):
        placed.append((args, kw))
        return optimize(*args, **kw)

    monkeypatch.setattr(solver, "quantize_batch", recording_quantize)
    monkeypatch.setattr(adapt, "optimize_levels", recording_optimize)
    seqs = [LevelSequence(np.linspace(0.0, 1.0, a + 2)) for a in (1, 3, 2)]
    fam = LevelFamily(seqs, np.array([0, 1, 2, 1, 0, 2, 2, 1]))
    quant = QuantizationConfig(family=fam, update_period=5, grid=48)
    problem = make_problem("bilinear", d=8, K=3, seed=2, noise=AbsoluteNoise(0.1))
    if algorithm == "qoda":
        run_qoda(problem, GeneralRates(), 12, quant=quant, seed=0)
    else:
        run_extragradient_baseline(problem, 12, quant=quant, seed=0)
    assert len(quantized) == 12 * (1 if algorithm == "qoda" else 2)
    for args in quantized:
        assert args[0].shape == (3, 8) and isinstance(args[1], LevelFamily)
    # Refreshes at t = 6 and 11, one call per type.
    assert [(a[1], a[2]) for a, _ in placed] == [(1, 48), (3, 48), (2, 48)] * 2
    assert all(len(a) == 3 and not kw and hasattr(a[0], "moments_below") for a, kw in placed)


def test_wire_is_checked_at_every_checkpoint(monkeypatch):
    encoded = []
    encode = codec.encode_batch

    def counting(*args):
        encoded.append(len(args[0]))
        return encode(*args)

    monkeypatch.setattr(codec, "encode_batch", counting)
    problem = make_problem("bilinear", d=6, K=2, seed=3, noise=AbsoluteNoise(0.1))
    run_qoda(problem, GeneralRates(), 40, quant=_scattered_quant(update_period=0), seed=0)
    # Checkpoints 1, 2, 4, 8, 16, 32, 40: one broadcast of K = 2 messages each.
    assert encoded == [2] * 7
    encoded.clear()
    run_extragradient_baseline(problem, 40, quant=_scattered_quant(update_period=0), seed=0)
    assert encoded == [2] * 14


@pytest.mark.parametrize("algorithm", ["qoda", "extragradient"])
def test_wire_mismatch_raises_before_the_row_is_written(monkeypatch, algorithm):
    # From the fourth checkpoint on (t = 8) the encoder emits one bit too
    # many: the run must raise there, after writing only three rows.
    per_checkpoint = 1 if algorithm == "qoda" else 2
    calls = []
    encode = codec.encode_batch

    def one_bit_long(*args):
        msgs = encode(*args)
        calls.append(1)
        if len(calls) > 3 * per_checkpoint:
            msgs[0] = msgs[0]._replace(nbits=msgs[0].nbits + 1)
        return msgs

    monkeypatch.setattr(codec, "encode_batch", one_bit_long)
    problem = make_problem("bilinear", d=6, K=2, seed=3, noise=AbsoluteNoise(0.1))
    rows = []
    gap = problem.gap

    def recording_gap(x):
        rows.append(x)
        return gap(x)

    problem.gap = recording_gap
    quant = _scattered_quant(update_period=0)
    with pytest.raises(codec.WireMismatch):
        if algorithm == "qoda":
            run_qoda(problem, GeneralRates(), 20, quant=quant, seed=0)
        else:
            run_extragradient_baseline(problem, 20, quant=quant, seed=0)
    assert len(rows) == 3


def test_level_adaptation_updates_on_schedule():
    problem = make_problem("bilinear", d=6, K=2, seed=5, noise=AbsoluteNoise(0.3))
    quant = QuantizationConfig(family=_fam(6), update_period=5, samples_per_node=8)
    metrics = run_qoda(problem, GeneralRates(), 16, quant=quant, seed=0)
    eps = _column(metrics, "eps_q")
    # Updates fire at t = 6, 11, 16, so the bound changes between the t = 4
    # checkpoint and the final one.
    assert eps[0] == eps[1] == eps[2]
    assert eps[-1] != eps[0]


def test_refresh_on_a_large_grid_runs_in_bounded_memory():
    # The first refresh fires at t = 1001 and places levels on a grid of
    # 20000 intervals, where a dense DP cost matrix would need 3.2 GB.
    problem = make_problem("bilinear", d=20, K=2, seed=5, noise=AbsoluteNoise(0.3))
    quant = QuantizationConfig(family=_fam(20), update_period=1000, grid=20000)
    metrics = run_qoda(problem, GeneralRates(), 1002, quant=quant, seed=0)
    eps = _column(metrics, "eps_q")
    assert _column(metrics, "t")[-1] == 1002
    assert eps[-1] != eps[0]


def test_eta_never_exceeds_gamma_on_alt_schedule():
    recorded = []

    class Recording(AltRates):
        def rates(self, state):
            pair = super().rates(state)
            recorded.append(pair)
            return pair

    problem = make_problem("bilinear", d=6, K=2, seed=7, noise=AbsoluteNoise(0.2))
    run_qoda(problem, Recording(0.25), 60, quant=_quant(6), seed=1)
    assert len(recorded) == 60
    assert all(eta <= gamma <= 1.0 + 1e-15 for gamma, eta in recorded)


def test_general_schedule_rates_never_increase():
    problem = make_problem("bilinear", d=6, K=2, seed=8, noise=AbsoluteNoise(0.2))
    metrics = run_qoda(problem, GeneralRates(), 50, quant=_quant(6), seed=2)
    gammas = _column(metrics, "gamma")
    assert np.all(np.diff(gammas) <= 1e-15)
    assert np.all(_column(metrics, "gamma") == _column(metrics, "eta"))


def test_extragradient_doubles_oracle_calls_and_bits():
    problem = make_problem("bilinear", d=6, K=2, seed=9, noise=AbsoluteNoise(0.1))
    q = run_qoda(problem, GeneralRates(), 25, quant=None, seed=0)
    e = run_extragradient_baseline(problem, 25, quant=None, seed=0)
    assert q.summary["oracle_calls_per_node"] == 25
    assert e.summary["oracle_calls_per_node"] == 50
    assert e.summary["total_bits"] == 2 * q.summary["total_bits"]


def test_extragradient_converges_on_strongly_monotone():
    problem = make_problem("strongly_monotone:0.5", d=6, K=1, seed=10)
    metrics = run_extragradient_baseline(problem, 300, quant=None, seed=0, step=0.3)
    assert metrics.rows[-1][1] < metrics.rows[0][1] * 1e-2


def test_segment_averages_frozen():
    segs = [solver.Segment(1, None, None, None, 0.5, 100.0),
            solver.Segment(11, None, None, None, 0.125, 40.0)]
    eps_bar, eps_hat, n_bar = solver._segment_averages(segs, 20)
    assert eps_bar == pytest.approx(0.3125)
    assert eps_hat == pytest.approx((10 * math.sqrt(0.5) + 10 * math.sqrt(0.125)) / 20)
    assert n_bar == pytest.approx(70.0)


def test_a_refresh_appends_one_record_with_its_own_bounds():
    d, K, R = 6, 2, 5
    quant = _scattered_quant(update_period=R, samples_per_node=4)
    pipe = solver._QuantPipeline(quant, d, K, seed=0)
    rng = np.random.default_rng(3)
    state = SolverState(np.zeros(d), K)
    for t in range(1, 2 * R + 2):
        pipe.maybe_update(t)
        pipe.broadcast(rng.standard_normal((K, d)), state)
    assert [seg.t for seg in pipe.segments] == [1, R + 1, 2 * R + 1]
    assert pipe.segments[0].family is quant.family
    for seg in pipe.segments:
        assert seg.books.family_id == seg.family.fingerprint()
        assert seg.eps_q == variance_bound_eps(seg.family, d)
        assert seg.n_q == code_length_bound(seg.hist, seg.family, quant.protocol)
    with pytest.raises(AttributeError):
        pipe.segments[0].eps_q = 0.0


def test_an_identity_run_has_one_record():
    assert solver._IdentityPipeline(6, 3).segments == [(1, None, None, None, 0.0, 64.0 * 6)]


class _SumsSeen:
    def __init__(self, base):
        self.base, self.seen, self.sums = base, [], base.sums

    def rates(self, state):
        pair = self.base.rates(state)
        self.seen.append((pair, state.s_diff, state.s_norm, state.s_norm_last,
                          state.s_move, state.s_move_last))
        return pair

    def eta_next(self, state):
        return self.base.eta_next(state)


@pytest.mark.parametrize("schedule, sums", [
    (GeneralRates(), {"diff"}), (AltRates(0.25), {"norm", "move"}), (ConstantRates(0.1), {"move"}),
], ids=["general", "alt", "constant"])
def test_the_step_computes_only_the_sums_its_schedule_lists(schedule, sums):
    # Against a step that adds to every sum: the rows and every iteration's
    # rates are equal, and a sum the schedule does not list stays 0.  The
    # constant schedule keeps the move sum only as a divergence check.
    assert schedule.sums == sums
    problem = make_problem("bilinear", d=6, K=2, seed=7, noise=AbsoluteNoise(0.2))
    quant = _scattered_quant(update_period=10, samples_per_node=4)
    ours, full = _SumsSeen(schedule), _SumsSeen(schedule)
    got = run_qoda(problem, ours, 40, quant=quant, seed=1)
    want = solver._drive(problem, 40, quant, 1, reference.qoda_step(full, problem.K))
    assert got.rows == want.rows and got.summary == want.summary
    assert [seen[0] for seen in ours.seen] == [seen[0] for seen in full.seen]
    for seen, every in zip(ours.seen, full.seen):
        for name, i in (("diff", 1), ("norm", 2), ("norm", 3), ("move", 4), ("move", 5)):
            assert seen[i] == (every[i] if name in schedule.sums else 0.0)
    assert any(every[1] > 0.0 and every[2] > 0.0 and every[4] > 0.0 for every in full.seen)


def test_checkpoints_are_powers_of_two_plus_final():
    assert solver._checkpoints(10) == [1, 2, 4, 8, 10]
    assert solver._checkpoints(8) == [1, 2, 4, 8]
    assert solver._checkpoints(1) == [1]


def test_unquantized_noiseless_run_matches_plain_recurrence():
    # With the identity transport, no noise, and one node, the solver's
    # trajectory must follow the bare optimistic dual-averaging recurrence
    # written out longhand here.
    problem = make_problem("bilinear", d=6, K=1, seed=12)
    T = 100
    recorded = reference.RecordingRates()
    run_qoda(problem, recorded, T + 1, quant=None, seed=0)

    B, c = problem.op.matrix(), problem.op.c
    x1 = problem.x1.copy()
    x = x1.copy()
    y = np.zeros_like(x1)
    v_prev = np.zeros_like(x1)
    s = 0.0
    avg_sum = np.zeros_like(x1)
    got_sum = np.zeros_like(x1)
    for t in range(T):
        gamma = (1.0 + s) ** -0.5
        x_half = x - gamma * v_prev
        v = B @ x_half + c
        avg_sum += x_half
        got_sum += recorded.x_half[t]
        y = y - v
        s += float((v - v_prev) @ (v - v_prev))
        x = x1 + (1.0 + s) ** -0.5 * y
        v_prev = v
        assert np.max(np.abs(recorded.x[t + 1] - x)) <= 1e-12

    assert np.max(np.abs(got_sum / T - avg_sum / T)) <= 1e-12


@pytest.mark.parametrize("d", [20, 512])
def test_overflow_in_one_node_factor_diverges_at_iteration_1(d):
    # Node 3's first columns of U and W are all 1e308 and e_0, so its delta
    # has a row and a column of -+1e308.  At d = 20 the node matrices are materialized and finite, and their
    # product overflows; at d = 512 the factored product overflows in
    # [W -U]^T x.  Either way the run stops at its first oracle call.
    K = 4
    r = min(vi._RANK, d // 2)
    factors = np.zeros((K, d, 2 * r))
    factors[3, :, 0] = 1e308
    factors[3, 0, r] = 1.0
    problem = vi.ProblemInstance(vi.AffineOperator(np.zeros((d, d))), factors, K, None,
                                 vi.TestDomain(np.zeros(d), 1.0), np.ones(d), np.zeros(d))
    assert (8 * K * d * d < vi._DENSE_BYTES) == (d == 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError) as err:
            run_qoda(problem, GeneralRates(), T=1)
    assert str(err.value) == "diverged at iteration 1: overflow encountered in matmul"
    assert isinstance(err.value, solver.Diverged) and (err.value.t, err.value.rows) == (1, [])


def test_a_non_finite_gap_diverges_with_the_rows_before_it(monkeypatch):
    # The gap at checkpoint 8 turns NaN: the run stops there, carrying the
    # rows of checkpoints 1, 2 and 4.
    problem = make_problem("bilinear", d=6, K=2, seed=1, noise=AbsoluteNoise(0.1))
    gap = problem.gap
    calls = []

    def nan_at_8(x_hat):
        calls.append(x_hat)
        return gap(x_hat) if len(calls) < 4 else float("nan")

    monkeypatch.setattr(problem, "gap", nan_at_8)
    with pytest.raises(solver.Diverged, match="^non-finite gap at iteration 8$") as err:
        run_qoda(problem, GeneralRates(), T=20)
    assert err.value.t == 8
    assert [row[0] for row in err.value.rows] == [1, 2, 4]
