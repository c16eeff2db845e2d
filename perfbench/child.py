"""One sample of a benchmark workload, in a fresh process.

``run.py`` starts this script once per sample; it is not meant to be run by
hand.  It resolves the workload's config, times the set-up
(``runner.build_problem`` plus ``runner.build_quant``) and the solver call,
checks the outputs, and prints one JSON object as its last stdout line.
With ``--trace 1`` it also solves once more with the layer spans of
``tracer.py`` installed and reports them.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from quantvi import adapt, codec, levels, quantizer, runner, solver, vi  # noqa: E402
from tracer import Tracer, installed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

VAR_SAMPLE_CALLS = 32  # quantize calls whose rows feed levels.var_over_eps
WARMUP_D = 20  # a warm-up child runs the workload at this dimension


def csv_digest(rows):
    """sha256 of the rows in the format of the run's ``<out>.csv``."""
    lines = [",".join(solver.METRIC_COLUMNS)]
    for row in rows:
        lines.append(",".join(format(x, ".12g") if isinstance(x, float) else str(x)
                              for x in row))
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def solve(cfg, problem, quant):
    if cfg.algorithm == "extragradient":
        return solver.run_extragradient_baseline(problem, cfg.T, quant=quant,
                                                 seed=cfg.seed, step=cfg.step)
    return solver.run_qoda(problem, runner.build_schedule(cfg), cfg.T, quant=quant,
                           seed=cfg.seed)


def output_checks(wl, cfg, metrics):
    s = metrics.summary
    bits_per_msg = s["total_bits"] / (cfg.T * cfg.K * wl.broadcasts_per_iter)
    checks = {
        "gaps_finite": all(math.isfinite(row[1]) for row in metrics.rows),
        "bits_within_nq": bits_per_msg <= s["n_bar"],
        "oracle_calls": s["oracle_calls_per_node"] == cfg.T * wl.broadcasts_per_iter,
    }
    return checks, bits_per_msg


class LayerHooks:
    """Counters that need a call's arguments or result."""

    def __init__(self, tracer, stride):
        self.tracer = tracer
        self.stride = stride
        self.var_rows = []  # (rows, family) of every stride-th quantize call

    def quantize(self, args, kwargs, result):
        V = np.atleast_2d(args[0])
        self.tracer.counts["quantizer.rows"] += V.shape[0]
        if (self.tracer.calls["quantizer.quantize"] - 1) % self.stride == 0:
            self.var_rows.append((np.array(V, dtype=np.float64), args[1]))

    def encode(self, args, kwargs, result):
        self.tracer.counts["codec.messages"] += len(result)

    def dp(self, args, kwargs, result):
        grid = args[2] if len(args) > 2 else kwargs.get("grid", 512)
        key = "adapt.dp_matrix_bytes"
        self.tracer.maxes[key] = max(self.tracer.maxes[key], 8 * (int(grid) + 1) ** 2)

    def var_over_eps(self):
        """Mean and max of exact rounding variance / (eps_q ||v||_2^2)."""
        ratios = []
        for V, family in self.var_rows:
            eps = levels.variance_bound_eps(family, V.shape[1])
            for v in V:
                sq = float(v @ v)
                if sq > 0:
                    ratios.append(quantizer.exact_quantization_variance(v, family)
                                  / (eps * sq))
        return (float(np.mean(ratios)), float(np.max(ratios))) if ratios else (0.0, 0.0)


def layer_targets(hooks):
    """(owner, attribute, span name, hook) for every traced layer function."""
    targets = [
        (quantizer, "quantize_batch", "quantizer.quantize", hooks.quantize),
        (quantizer, "dequantize_batch", "quantizer.dequantize", None),
        (codec, "encode_batch", "codec.encode", hooks.encode),
        (codec, "decode_batch", "codec.decode", None),
        (codec, "build_codebook", "codec.codebook", None),
        (solver, "refresh_levels", "adapt.refresh", None),
        (adapt, "weighted_cdf", "adapt.cdf", None),
        (adapt, "fit_truncated_normal", "adapt.cdf", None),
        (adapt, "optimize_levels", "adapt.dp", hooks.dp),
        (vi, "make_problem", "vi.make_problem", None),
        (vi, "restricted_gap", "vi.gap", None),
        (vi.ProblemInstance, "gap", "vi.gap", None),
        (levels, "variance_bound_eps", "levels.bound", None),
    ]
    for cls in vars(vi).values():
        if isinstance(cls, type) and "sample_batch" in vars(cls):
            targets.append((cls, "sample_batch", "vi.noise", None))
    return targets


def traced_sample(wl, args, T, out):
    """Trace set-up and a second solve; report per-layer metrics."""
    tracer = Tracer()
    expected_calls = T * wl.broadcasts_per_iter
    hooks = LayerHooks(tracer, max(1, expected_calls // VAR_SAMPLE_CALLS))
    targets = layer_targets(hooks)
    with installed(tracer, targets):
        cfg = tracer.call("runner.preset_config", runner.preset_config, wl.preset,
                          wl.config_overrides(args.seed, T))
        problem = tracer.call("runner.build_problem", runner.build_problem, cfg)
        quant = tracer.call("runner.build_quant", runner.build_quant, cfg)

    t0 = perf_counter()
    plain = solve(cfg, problem, quant)
    plain_s = perf_counter() - t0
    with installed(tracer, targets):
        metrics = tracer.call("solver.solve", solve, cfg, problem, quant)

    checks, bits_per_msg = output_checks(wl, cfg, metrics)
    solve_ns = tracer.inclusive["solver.solve"]
    children_ns = sum(tracer.children("solver.solve").values())
    var_mean, var_max = hooks.var_over_eps()
    digest = csv_digest(metrics.rows)
    checks.update({
        "self_time_nonnegative": tracer.min_self_ns >= 0,
        "solve_accounted": children_ns + tracer.self_ns["solver.solve"] == solve_ns,
        "trace_keeps_csv": digest == csv_digest(plain.rows),
        "variance_within_eps": var_max <= 1.0 + 1e-9,
    })
    sec = tracer.seconds
    layers = {
        "quantizer.quantize_s": sec("quantizer.quantize"),
        "quantizer.dequantize_s": sec("quantizer.dequantize"),
        "quantizer.quantize_calls": tracer.calls["quantizer.quantize"],
        "quantizer.rows": tracer.counts["quantizer.rows"],
        "codec.encode_s": sec("codec.encode"),
        "codec.decode_s": sec("codec.decode"),
        "codec.messages": tracer.counts["codec.messages"],
        "codec.codebook_s": sec("codec.codebook"),
        "codec.codebook_builds": tracer.calls["codec.codebook"],
        "codec.bits_over_nq": bits_per_msg / metrics.summary["n_bar"],
        "adapt.refresh_s": sec("adapt.refresh"),
        "adapt.refreshes": tracer.calls["adapt.refresh"],
        "adapt.cdf_s": sec("adapt.cdf"),
        "adapt.dp_s": sec("adapt.dp"),
        "adapt.dp_calls": tracer.calls["adapt.dp"],
        "adapt.dp_matrix_bytes": tracer.maxes["adapt.dp_matrix_bytes"],
        "vi.make_problem_s": sec("vi.make_problem"),
        "vi.noise_s": sec("vi.noise"),
        "vi.noise_calls": tracer.calls["vi.noise"],
        "vi.gap_s": sec("vi.gap"),
        "vi.gap_calls": tracer.calls["vi.gap"],
        "levels.bound_s": sec("levels.bound"),
        "levels.var_over_eps": var_mean,
        "solver.solve_s": solve_ns / 1e9,
        "solver.self_s": tracer.self_ns["solver.solve"] / 1e9,
        "solver.oracle_calls": metrics.summary["oracle_calls_per_node"] * cfg.K,
        "runner.config_s": sec("runner.preset_config") + sec("runner.build_quant"),
        "trace.overhead": solve_ns / 1e9 / plain_s,
    }
    out.update({
        "checks": checks,
        "digest": digest,
        "layers": layers,
        "solve_children_s": {k: v / 1e9 for k, v in tracer.children("solver.solve").items()},
        "setup_s": sec("runner.build_problem") + sec("runner.build_quant"),
        "setup_children_s": {
            k: v / 1e9 for parent in ("runner.build_problem", "runner.build_quant")
            for k, v in tracer.children(parent).items()},
        "var_over_eps_max": var_max,
    })


def plain_sample(wl, args, T, d, out):
    """Time set-up and solve with nothing traced; report end-to-end metrics."""
    cfg = runner.preset_config(wl.preset, wl.config_overrides(args.seed, T, d))
    t0 = perf_counter()
    problem = runner.build_problem(cfg)
    quant = runner.build_quant(cfg)
    t1 = perf_counter()
    metrics = solve(cfg, problem, quant)
    t2 = perf_counter()
    checks, bits_per_msg = output_checks(wl, cfg, metrics)
    out.update({
        "checks": checks,
        "digest": csv_digest(metrics.rows),
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "wall_s": t2 - t0,
        "iters_per_s": cfg.T / (t2 - t1),
        "bits_per_msg": bits_per_msg,
        "n_bar": metrics.summary["n_bar"],
    })


def nested_span_check():
    """A clipped noise model calls its inner model: one noise span, not two."""
    tracer = Tracer()
    noise = vi.AlmostSureClip(1.0, vi.AbsoluteNoise(0.1))
    with installed(tracer, layer_targets(LayerHooks(tracer, 1))):
        noise.sample_batch(np.ones((4, 8)), np.random.default_rng(0))
    inner = tracer.edges[("vi.noise", "vi.noise")]
    ok = (tracer.calls["vi.noise"] == 1 and 0 < inner < tracer.inclusive["vi.noise"]
          and tracer.self_ns["vi.noise"] == tracer.inclusive["vi.noise"])
    print(json.dumps({"nested_span_check": ok}))
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--T", type=int, default=None, help="override the workload's T")
    p.add_argument("--warmup", action="store_true",
                   help=f"run at d={WARMUP_D} to load libraries; result is discarded")
    p.add_argument("--nested-span-check", action="store_true",
                   help="check the tracer on nested spans of one name, then exit")
    args = p.parse_args(argv)
    if args.nested_span_check:
        return nested_span_check()
    if args.workload is None:
        p.error("--workload is required")
    wl = WORKLOADS[args.workload]
    T = wl.T if args.T is None else args.T
    out = {"workload": args.workload, "seed": args.seed, "T": T, "env": environment()}
    if args.trace:
        traced_sample(wl, args, T, out)
    else:
        plain_sample(wl, args, T, WARMUP_D if args.warmup else None, out)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
