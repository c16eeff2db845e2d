"""quantvi benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S
    python3 perfbench/run.py --smoke

Run from the repository root.  One run discards a warm-up child, then starts
fresh child processes (``child.py``) one after another, one sample each,
while the next one is expected to finish within ``--seconds``.  Children run
with one BLAS thread.  The run prints a report, then as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics (medians over samples) with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload in both
modes and checks the output against ``BENCHMARK.json``; ``--smoke`` does the
same at a tiny T, one sample each.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1  # at most nproc; one thread keeps set-up times steady
HARD_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = {  # name: unit
    "wall_s": "s", "setup_s": "s", "iters_per_s": "1/s",
    "peak_rss_mb": "MB", "bits_per_msg": "bits",
}
LAYER_UNITS = {"_s": "s", "bits_over_nq": "ratio", "var_over_eps": "ratio",
               "overhead": "ratio", "dp_matrix_bytes": "bytes_computed"}
LAYERS = ("quantizer", "codec", "adapt", "vi", "levels", "solver", "runner")


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_child(workload, seed, trace, timeout, T=None, warmup=False):
    """Run one sample in a fresh process; returns (result or None, error)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if T is not None:
        cmd += ["--T", str(T)]
    if warmup:
        cmd.append("--warmup")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    return json.loads(lines[-1]), ""


def tail(values):
    """Highest of p99/p90/p75/p50 with >= 10 samples beyond it, else the max."""
    n = len(values)
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return "max", max(values)


def measure(workload, seed, seconds, trace, T=None, warmup=True, log=print):
    """Collect samples for ``seconds``; returns the result-line object."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    if warmup:
        _, err = run_child(workload, seed, 0, deadline - time.monotonic(), T=2, warmup=True)
        if err:
            log(f"warm-up failed: {err}")
    t_measure = time.monotonic()
    samples, errors, attempted = [], [], 0
    while True:
        t0 = time.monotonic()
        res, err = run_child(workload, seed, trace, deadline - t0, T=T)
        attempted += 1
        took = time.monotonic() - t0
        if res is None:
            errors.append(err)
        elif not all(res["checks"].values()):
            errors.append(f"failed checks: {[k for k, v in res['checks'].items() if not v]}")
        else:
            samples.append(res)
        now = time.monotonic()
        if now + took - t_measure > seconds or now + 1.5 * took > deadline:
            break

    digests = sorted({s["digest"] for s in samples})
    if len(digests) > 1:
        errors.append(f"CSV digests disagree across samples: {digests}")
    failed = attempted - len(samples)
    correct = not errors
    for err in errors:
        log(f"error: {err}")

    if samples:
        report_header(workload, seed, trace, samples, attempted, warmup, digests, log)
    else:
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
    if trace:
        names = list(samples[0]["layers"])
        table = {n: [s["layers"][n] for s in samples] for n in names}
        units = {n: layer_unit(n) for n in names}
        report_trace(samples, log)
    else:
        table = {n: [s[n] for s in samples] for n in END_TO_END}
        units = END_TO_END
    metrics = {}
    for name, values in table.items():
        med = statistics.median(values)
        metrics[name] = {"value": med, "unit": units[name]}
        label, tv = tail(values)
        log(f"  {name:26s} median {med:<12.6g} {label} {tv:<12.6g} n={len(values)} {units[name]}")
    log(f"  failed_share               {failed}/{attempted} = {failed / attempted:.3g}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def report_header(workload, seed, trace, samples, attempted, warmup, digests, log):
    wl = WORKLOADS[workload]
    env = samples[0]["env"]
    log(f"perfbench {workload} seed={seed} trace={trace} T={samples[0]['T']} "
        f"preset={wl.preset} samples={len(samples)}/{attempted}"
        + (" after a discarded warm-up" if warmup else ""))
    log(f"  why: {wl.why}")
    log(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"{env['blas']}, BLAS threads {env['blas_threads']}, nproc {env['nproc']}, "
        f"commit {git_commit()}")
    log(f"  csv sha256: {' '.join(digests)}")


def report_trace(samples, log):
    """Where the solve and the set-up went, from the median sample's spans."""
    mid = sorted(samples, key=lambda s: s["layers"]["solver.solve_s"])[len(samples) // 2]
    solve = mid["layers"]["solver.solve_s"]
    log(f"  solve {solve:.4f} s = self {mid['layers']['solver.self_s']:.4f} s + children:")
    for name, sec in sorted(mid["solve_children_s"].items(), key=lambda kv: -kv[1]):
        log(f"    {name:24s} {sec:10.4f} s  {100 * sec / solve:5.1f}%")
    setup = mid["setup_s"]
    log(f"  set-up {setup:.4f} s, of which:")
    for name, sec in sorted(mid["setup_children_s"].items(), key=lambda kv: -kv[1]):
        log(f"    {name:24s} {sec:10.4f} s  {100 * sec / max(setup, 1e-12):5.1f}%")
    log(f"  levels.var_over_eps max {mid['var_over_eps_max']:.4g}")


def run_all(seed, seconds, smoke):
    """Every workload in both modes; check names, units and layers.

    With ``smoke`` each workload runs once at its tiny T, with no warm-up.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems, nonzero = [], set()
    nested = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                             "--nested-span-check"], cwd=ROOT, capture_output=True)
    if nested.returncode != 0:
        problems.append("tracer counts a nested noise call twice")
    undefined = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if undefined:
        problems.append(f"BENCHMARK.json workloads not in workloads.py: {sorted(undefined)}")
    for workload, wl in WORKLOADS.items():
        for trace in (0, 1):
            if smoke:
                res = measure(workload, seed, 0, trace, T=wl.smoke_T, warmup=False)
            else:
                res = measure(workload, seed, seconds, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if not res["correct"]:
                problems.append(f"{workload} trace={trace}: not correct")
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want[trace]}")
            nonzero |= {k.split(".")[0] for k, v in res["metrics"].items()
                        if trace and v["value"] != 0}
    missing = [layer for layer in LAYERS if layer not in nonzero]
    if missing:
        problems.append(f"layers with no non-zero span or count: {missing}")
    label = "smoke" if smoke else "all"
    for p in problems:
        print(f"{label}: {p}")
    print(f"{label}: ok" if not problems else f"{label}: FAILED")
    return 0 if not problems else 1


def main(argv=None):
    p = argparse.ArgumentParser(description="quantvi benchmark runner")
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                   help="'all' runs every workload, untraced then traced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload once at a tiny T and check the output")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quantvi", "__init__.py")):
        print("error: src/quantvi not found; run from the repository root", file=sys.stderr)
        return 2
    if args.smoke or args.workload == "all":
        return run_all(args.seed, args.seconds, args.smoke)
    if args.workload is None:
        p.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
