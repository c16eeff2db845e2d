"""A run imports at start-up every module it uses, and scipy only on demand.

The check runs in a fresh interpreter: pytest's own process has scipy loaded
already (``test_adapt.py`` imports it).  A module that loads inside a run
lands in its set-up or solve time, and scipy alone is most of the package's
import time and memory, needed only by the truncated-normal estimator.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import json, os, sys, tempfile

from quantvi import runner, vi

loaded = set(sys.modules)
vi._usable_cpus = lambda: 2  # the concurrent node products, on any machine

def config(preset, **sections):
    return runner.preset_config(preset, {sec: dict(kv) for sec, kv in sections.items()})

# refresh-d200's config: relative noise, level refreshes, the non-skew gap.
runner.execute(config(
    "cocoercive-rel", problem={"d": "200"}, run={"T": "501"},
    quantization={"M": "4", "grid": "2048", "update_period": "500"}))
# A skew split above vi._SPLIT_BYTES, evaluated in concurrent chunks.
runner.execute(config(
    "bilinear-abs", problem={"d": "512", "K": "4"}, run={"T": "2", "algorithm": "extragradient"},
    quantization={"M": "4", "budgets": "2,3,5,7", "protocol": "alternating",
                  "scheme": "elias", "update_period": "0"}))
with tempfile.TemporaryDirectory() as tmp:
    runner.run_experiment(config("bilinear-abs", run={"T": "300", "out": os.path.join(tmp, "r")},
                                 quantization={"update_period": "100"}))
added = sorted(set(sys.modules) - loaded)
scipy_before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

runner.execute(config("bilinear-abs", run={"T": "300"},
                      quantization={"estimator": "truncated-normal", "update_period": "100"}))
print(json.dumps({"added": added, "scipy_before": scipy_before,
                  "stats_after": "scipy.stats" in sys.modules}))
"""


def test_runs_load_no_module_and_scipy_only_for_the_truncated_normal_estimator():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["added"] == []
    assert out["scipy_before"] == []
    assert out["stats_after"]
