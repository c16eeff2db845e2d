"""End-to-end acceptance checks with pinned tolerances.

One test per criterion. Each prints a single line such as

    [acceptance 04] codec roundtrip: PASS (2000/2000 bit-exact)

so running ``pytest tests/test_acceptance.py -v -s`` doubles as a report.
Seeds are fixed; tolerances are part of the contract, not tuning knobs.
"""

import itertools
import math
import statistics
import time

import numpy as np

from quantvi import codec, runner, solver, vi
from quantvi.adapt import (
    StepCdf,
    optimize_levels,
    mqv_objective,
    pooled_cdf,
    quantization_cost,
    weighted_cdf,
)
from quantvi.codec import build_codebook, build_huffman
from quantvi.levels import (
    LevelFamily,
    LevelSequence,
    assignment_from_layer_sizes,
    variance_bound_eps,
)
from quantvi.quantizer import (
    QuantizedVector,
    dequantize_batch,
    exact_quantization_variance,
    quantize_batch,
    quantize_vector,
)
from quantvi.solver import AltRates, run_qoda
from reference import RecordingRates, locate_level


def _report(num, name, ok, detail):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _near_equal_split(d, M):
    base, extra = divmod(d, M)
    return [base + (1 if i < extra else 0) for i in range(M)]


def _random_family(rng, d, q, M):
    seqs = []
    for _ in range(M):
        alpha = int(rng.integers(1, 4))
        interior = (np.arange(1, alpha + 1) + rng.uniform(-0.3, 0.3, alpha)) / (
            alpha + 1.0
        )
        seqs.append(LevelSequence(np.concatenate(([0.0], interior, [1.0]))))
    return LevelFamily(seqs, assignment_from_layer_sizes(_near_equal_split(d, M)), q=q)


def _lq_norm(v, q):
    return float(np.sum(np.abs(v) ** q) ** (1.0 / q))


def _analytic_rounding_se(v, fam, norm32, n_draws):
    # Per-coordinate standard error of the Monte-Carlo mean: each rounding
    # is a two-point draw between the bracketing levels, so its standard
    # deviation is norm * (gap between levels) * sqrt(xi * (1 - xi)).
    norm64 = _lq_norm(v, fam.q)
    se = np.zeros(v.size)
    if norm64 == 0.0:
        return se
    for m in range(fam.num_types):
        seq = fam.sequences[m]
        for i in fam.type_coordinates(m):
            tau, xi = locate_level(abs(v[i]) / norm64, seq)
            gap = seq.levels[tau + 1] - seq.levels[tau] if xi > 0.0 else 0.0
            se[i] = norm32 * gap * math.sqrt(xi * (1.0 - xi))
    return se / math.sqrt(n_draws)


def test_criterion_01_unbiasedness():
    # Monte-Carlo mean of the stochastic rounding matches the input vector
    # per coordinate within 4 standard errors, for 20 vectors spanning
    # d in {8, 64, 512}, q in {1, 2}, M in {1, 2, 4}.  The standard error
    # is the analytic one (the empirical estimate degenerates to zero on
    # coordinates whose round-up probability is below 1/n_draws); the small
    # absolute floor covers coordinates the rounding reproduces exactly,
    # where the only deviation is the 32-bit wire rounding of the norm.
    start = time.monotonic()
    rng = np.random.default_rng(101)
    combos = list(itertools.product((8, 64, 512), (1, 2), (1, 2, 4)))
    combos += [(512, 2, 4), (8, 1, 1)]
    n_draws = 50_000
    worst = 0.0
    checked = 0
    for d, q, M in combos:
        fam = _random_family(rng, d, q, M)
        v = rng.standard_normal(d)
        total = np.zeros(d)
        norm32 = 0.0
        remaining = n_draws
        chunk = max(1, 2_000_000 // d)
        while remaining:
            b = min(chunk, remaining)
            norms, signs, idx = quantize_batch(np.tile(v, (b, 1)), fam, rng=rng)
            deq = dequantize_batch(norms, signs, idx, fam)
            total += deq.sum(axis=0)
            norm32 = norms[0]
            remaining -= b
        mean = total / n_draws
        se = _analytic_rounding_se(v, fam, norm32, n_draws)
        tol = 4.0 * se + 1.2e-7 * np.abs(v) + 1e-12
        worst = max(worst, float(np.max(np.abs(mean - v) - tol)))
        checked += d
    elapsed = time.monotonic() - start
    ok = worst <= 0.0 and elapsed < 30.0
    _report(1, "unbiased rounding", ok,
            f"{len(combos)} vectors, {checked} coordinates, "
            f"worst excess {worst:.3g}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_variance_bound():
    # exact_quantization_variance(v) <= variance_bound_eps * ||v||_2^2 on
    # 1000 random (vector, family, d, q) configurations, zero violations.
    start = time.monotonic()
    rng = np.random.default_rng(202)
    violations = 0
    worst_ratio = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 400))
        q = int(rng.integers(1, 4))
        M = int(rng.integers(1, 1 + min(4, d)))
        fam = _random_family(rng, d, q, M)
        kind = rng.integers(0, 3)
        if kind == 0:
            v = rng.standard_normal(d)
        elif kind == 1:
            v = rng.standard_normal(d)
            v[rng.random(d) < 0.7] = 0.0
            if not v.any():
                v[0] = 1.0
        else:
            v = rng.standard_cauchy(d)
        bound = variance_bound_eps(fam, d) * float(v @ v)
        exact = exact_quantization_variance(v, fam)
        if exact > bound * (1 + 1e-12):
            violations += 1
        if bound > 0:
            worst_ratio = max(worst_ratio, exact / bound)
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 10.0
    _report(2, "variance bound", ok,
            f"0 violations required, got {violations}; "
            f"worst exact/bound {worst_ratio:.5f}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_exact_matches_empirical_variance():
    # The closed-form rounding variance matches a Monte-Carlo estimate
    # within 3 standard errors on 50 configurations.
    rng = np.random.default_rng(304)
    n_draws = 40_000
    worst_z = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 11))
        q = int(rng.integers(1, 3))
        M = int(rng.integers(1, 1 + min(3, d)))
        fam = _random_family(rng, d, q, M)
        v = rng.standard_normal(d)
        exact = exact_quantization_variance(v, fam)
        norms, signs, idx = quantize_batch(np.tile(v, (n_draws, 1)), fam, rng=rng)
        deq = dequantize_batch(norms, signs, idx, fam)
        # The wire rounds the norm to 32 bits, so the realized spread is the
        # closed form scaled by (rounded norm / exact norm)^2.
        scale = (norms[0] / _lq_norm(v, fam.q)) ** 2
        mean_vec = v * (norms[0] / _lq_norm(v, fam.q))
        z_draws = np.sum((deq - mean_vec) ** 2, axis=1)
        est = float(z_draws.mean())
        se = float(z_draws.std(ddof=1) / math.sqrt(n_draws))
        z = abs(est - exact * scale) / se
        worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    _report(3, "exact vs empirical variance", ok,
            f"50 configs, worst |z| {worst_z:.2f} <= 3")
    assert ok


def test_criterion_04_codec_roundtrip():
    # decode(encode(qv)) is the identity, bit-exact, on 1000 random
    # quantized vectors per protocol.
    rng = np.random.default_rng(404)
    per_protocol = {"main": 0, "alternating": 0}
    for f in range(50):
        d = int(rng.integers(1, 41))
        M = int(rng.integers(1, 1 + min(3, d)))
        fam = _random_family(rng, d, 2, M)
        hist = [rng.dirichlet(np.ones(s.alpha + 2)) for s in fam.sequences]
        scheme = "huffman" if f % 2 == 0 else "elias"
        books = {
            p: build_codebook(fam, hist, p, scheme) for p in ("main", "alternating")
        }
        for k in range(20):
            v = np.zeros(d) if k == 0 else rng.standard_normal(d)
            qv = quantize_vector(v, fam, rng=rng)
            for protocol in ("main", "alternating"):
                back = codec.decode(codec.encode(qv, books[protocol]), books[protocol])
                assert back == qv
                per_protocol[protocol] += 1
    ok = per_protocol == {"main": 1000, "alternating": 1000}
    _report(4, "codec roundtrip", ok,
            f"{per_protocol['main']}+{per_protocol['alternating']} bit-exact")
    assert ok


def test_criterion_05_entropy_sandwich_and_length_bound():
    # (a) Huffman expected length lies in [H, H + 1) for 100 random
    # histograms; (b) the mean measured message size stays below the
    # analytic per-message bound for i.i.d. messages, per protocol.
    rng = np.random.default_rng(505)
    sandwich_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 13))
        probs = rng.dirichlet(np.ones(n))
        lengths = [nb for nb, _ in build_huffman(probs)]
        expected = float(np.dot(probs, lengths))
        entropy = float(-np.sum(probs * np.log2(probs)))
        if not (entropy - 1e-9 <= expected <= entropy + 1.0):
            sandwich_ok = False

    d = 64
    fam = _random_family(rng, d, 2, 2)
    rows = [rng.dirichlet(np.ones(s.alpha + 2)) for s in fam.sequences]
    margins = {}
    for protocol in ("main", "alternating"):
        books = build_codebook(fam, rows, protocol)
        total = 0
        n_msgs = 1000
        for _ in range(n_msgs):
            idx = np.concatenate(
                [
                    rng.choice(len(rows[m]), size=fam.counts[m], p=rows[m])
                    for m in range(fam.num_types)
                ]
            ).astype(np.int32)
            signs = np.where(idx > 0, rng.choice([-1, 1], size=d), 1).astype(np.int8)
            qv = QuantizedVector(1.0, signs, idx, fam.fingerprint())
            total += codec.encode(qv, books).nbits
        bound = codec.code_length_bound(rows, fam, protocol)
        margins[protocol] = bound - total / n_msgs
    ok = sandwich_ok and all(m >= 0.0 for m in margins.values())
    _report(5, "entropy sandwich and length bound", ok,
            "100 histograms in [H, H+1]; bound margin "
            f"main {margins['main']:.2f}, alternating {margins['alternating']:.2f} bits")
    assert ok


def test_criterion_06_layerwise_dominates_pooled():
    # With the same per-coordinate level budget, optimizing levels per layer
    # never does worse than one shared sequence fit to the pooled data.
    rng = np.random.default_rng(606)
    worst_gap = -np.inf
    for _ in range(20):
        M = int(rng.integers(2, 4))
        d = int(rng.integers(2 * M, 40))
        fam = _random_family(rng, d, 2, M)
        samples = np.abs(rng.standard_normal((int(rng.integers(3, 9)), d)))
        samples *= rng.uniform(0.2, 3.0, size=(samples.shape[0], 1))
        cdfs = weighted_cdf(samples, fam)
        alpha = int(rng.integers(1, 4))
        per_type = [optimize_levels(c, alpha, grid=128) for c in cdfs]
        layer_fam = LevelFamily(per_type, fam.assignment, q=2)
        shared = optimize_levels(pooled_cdf(cdfs, fam), alpha, grid=128)
        pooled_fam = LevelFamily([shared] * M, fam.assignment, q=2)
        gap = mqv_objective(layer_fam, cdfs) - mqv_objective(pooled_fam, cdfs)
        worst_gap = max(worst_gap, gap)
    ok = worst_gap <= 1e-12
    _report(6, "layer-wise dominance", ok,
            f"20 sample sets, max(layerwise - pooled) {worst_gap:.3g} <= 1e-12")
    assert ok


def test_criterion_07_dp_matches_exhaustive_search():
    # The dynamic program returns exactly the best grid-restricted level
    # sequence found by brute force over all interior-point subsets.
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 11))
        cdf = StepCdf(
            np.sort(rng.uniform(0.02, 1.0, size=n)), rng.uniform(0.1, 1.0, size=n)
        )
        grid = int(rng.integers(6, 31))
        alpha = int(rng.integers(1, 4))
        xs = np.arange(grid + 1) / grid
        best = np.inf
        for combo in itertools.combinations(range(1, grid), alpha):
            seq = LevelSequence(np.concatenate(([0.0], xs[list(combo)], [1.0])))
            best = min(best, quantization_cost(cdf, seq))
        dp_cost = quantization_cost(cdf, optimize_levels(cdf, alpha, grid=grid))
        worst = max(worst, abs(dp_cost - best))
    ok = worst <= 1e-12
    _report(7, "dynamic program optimality", ok,
            f"50 CDFs, grids <= 30, budgets <= 3, max |dp - brute| {worst:.3g}")
    assert ok


def test_criterion_08_absolute_noise_rate():
    # Averaged-iterate gap on the bilinear preset with absolute noise decays
    # like a power law with median fitted slope in [-0.7, -0.35] over five
    # seeds at T = 100000.
    start = time.monotonic()
    slopes = []
    for seed in range(5):
        cfg = runner.preset_config("bilinear-abs", {
            "quantization": {"grid": "256"},
            "run": {"T": "100000", "seed": str(seed)},
        })
        slopes.append(runner.execute(cfg)[1])
    elapsed = time.monotonic() - start
    med = statistics.median(slopes)
    ok = -0.7 <= med <= -0.35 and elapsed < 120.0
    _report(8, "absolute-noise rate", ok,
            f"median slope {med:.3f} in [-0.7, -0.35], {elapsed:.0f}s < 120s")
    assert ok


def test_criterion_09_relative_noise_rate():
    # Relative noise on the co-coercive preset gives a strictly faster decay:
    # median fitted slope at most -0.8 over five seeds at T = 10000.
    start = time.monotonic()
    slopes = []
    for seed in range(5):
        cfg = runner.preset_config("cocoercive-rel", {
            "quantization": {"grid": "256"},
            "run": {"seed": str(seed)},
        })
        slopes.append(runner.execute(cfg)[1])
    elapsed = time.monotonic() - start
    med = statistics.median(slopes)
    ok = med <= -0.8 and elapsed < 60.0
    _report(9, "relative-noise rate", ok,
            f"median slope {med:.3f} <= -0.8, {elapsed:.0f}s < 60s")
    assert ok


def test_criterion_10_alt_schedule_rate_and_invariant():
    # The alternative step-size schedule reaches the fast rate on a problem
    # that is monotone but not co-coercive, and its extrapolation step size
    # never exceeds its averaging step size.
    slopes = []
    for seed in range(5):
        cfg = runner.preset_config("bilinear-alt", {
            "quantization": {"grid": "256"},
            "run": {"seed": str(seed)},
        })
        slopes.append(runner.execute(cfg)[1])
    med = statistics.median(slopes)

    recorded = []

    class Recording(AltRates):
        def rates(self, state):
            pair = super().rates(state)
            recorded.append(pair)
            return pair

    cfg = runner.preset_config("bilinear-alt", {"quantization": {"grid": "256"}})
    run_qoda(runner.build_problem(cfg), Recording(0.25), cfg.T,
             quant=runner.build_quant(cfg), seed=0)
    invariant = (
        len(recorded) == cfg.T
        and all(eta <= gamma <= 1.0 + 1e-15 for gamma, eta in recorded)
    )
    ok = med <= -0.8 and invariant
    _report(10, "alt-schedule rate and step ordering", ok,
            f"median slope {med:.3f} <= -0.8; eta <= gamma at all "
            f"{len(recorded)} steps: {invariant}")
    assert ok


def test_criterion_11_gap_non_increasing_in_node_count():
    # More nodes averaging independent noisy oracle calls never hurts:
    # median final gap over 10 seeds is non-increasing in K.
    medians = {}
    for K in (1, 4, 16):
        gaps = []
        for seed in range(10):
            cfg = runner.preset_config("bilinear-abs", {
                "problem": {"K": str(K)},
                "noise": {"sigma": "0.5"},
                "quantization": {"update_period": "0"},
                "run": {"T": "10000", "seed": str(seed)},
            })
            metrics, _ = runner.execute(cfg)
            gaps.append(metrics.rows[-1][1])
        medians[K] = statistics.median(gaps)
    ok = medians[1] >= medians[4] >= medians[16]
    _report(11, "gap non-increasing in K", ok,
            f"median final gap K=1: {medians[1]:.4f}, K=4: {medians[4]:.4f}, "
            f"K=16: {medians[16]:.4f}")
    assert ok


def test_criterion_12_single_call_halves_communication():
    # At equal T the one-call solver makes exactly T oracle calls per node
    # against 2T for the extragradient baseline, and transmits close to
    # half the bits.
    overrides = {
        "quantization": {"update_period": "0"},
        "run": {"T": "2000"},
    }
    m_one, _ = runner.execute(runner.preset_config("bilinear-abs", overrides))
    overrides["run"]["algorithm"] = "extragradient"
    m_two, _ = runner.execute(runner.preset_config("bilinear-abs", overrides))
    calls_one = m_one.summary["oracle_calls_per_node"]
    calls_two = m_two.summary["oracle_calls_per_node"]
    ratio = m_two.summary["total_bits"] / m_one.summary["total_bits"]
    ok = calls_one == 2000 and calls_two == 4000 and 1.8 <= ratio <= 2.2
    _report(12, "communication halving", ok,
            f"oracle calls {calls_one} vs {calls_two}, bits ratio {ratio:.3f}")
    assert ok


def test_criterion_13_identity_transport_matches_plain_recurrence():
    # With no quantization, no noise, and one node, the solver reproduces
    # the bare optimistic dual-averaging recurrence to 1e-12 for 1000 steps.
    problem = vi.make_problem("bilinear", d=8, K=1, seed=42)
    T = 1000
    recorded = RecordingRates()
    run_qoda(problem, recorded, T + 1, quant=None, seed=0)

    B, c = problem.op.matrix(), problem.op.c
    x1 = problem.x1.copy()
    x = x1.copy()
    y = np.zeros_like(x1)
    v_prev = np.zeros_like(x1)
    s = 0.0
    avg_sum = np.zeros_like(x1)
    got_sum = np.zeros_like(x1)
    worst = 0.0
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
        worst = max(worst, float(np.max(np.abs(recorded.x[t + 1] - x))))
    worst = max(worst, float(np.max(np.abs(got_sum / T - avg_sum / T))))
    ok = worst <= 1e-12
    _report(13, "identity transport equals plain recurrence", ok,
            f"max deviation {worst:.2e} over {T} steps")
    assert ok


def test_criterion_14_same_seed_byte_identical(tmp_path):
    # Re-running any experiment with the same seed writes byte-identical CSV.
    outputs = []
    for name in ("first", "second"):
        cfg = runner.preset_config("bilinear-abs", {
            "quantization": {"update_period": "50"},
            "run": {"T": "300", "seed": "5", "out": str(tmp_path / name)},
        })
        runner.run_experiment(cfg)
        with open(str(tmp_path / name) + ".csv", "rb") as fh:
            outputs.append(fh.read())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(14, "seeded rerun determinism", ok,
            f"{len(outputs[0])} CSV bytes identical across reruns")
    assert ok
