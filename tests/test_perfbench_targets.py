"""The benchmark traces layer functions by name; a rename must not go unnoticed.

``perfbench/tracer.installed`` skips an (owner, attribute) pair that no
longer exists, so a renamed function would silently record no spans and
empty its benchmark layer.  This test loads ``perfbench/child.py`` without
running it and checks that every traced attribute is still there.
"""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

from quantvi import adapt, codec, levels, quantizer, runner, solver, vi

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _NoHooks:
    """Stands in for the child's LayerHooks: every hook is absent."""

    def __getattr__(self, name):
        return None


def test_every_traced_layer_function_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    targets = child.layer_targets(_NoHooks())
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert not missing, f"traced but missing from the program: {missing}"
    spans = {span for _, _, span, _ in targets}
    assert {"vi.gap", "vi.noise", "adapt.dp", "codec.encode"} <= spans


def test_every_solve_entry_point_exists():
    # The child sets up and solves through these; a rename would only show
    # when the benchmark crashes.  Every quantvi attribute child.py reads
    # must exist, and every direct call must bind to the callee's signature.
    modules = {m.__name__.rpartition(".")[2]: m
               for m in (adapt, codec, levels, quantizer, runner, solver, vi)}
    called = set()
    for node in ast.walk(ast.parse((PERFBENCH / "child.py").read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in modules):
                fn = getattr(modules[func.value.id], func.attr)
                inspect.signature(fn).bind(*node.args, **{kw.arg: None for kw in node.keywords})
                called.add(f"{func.value.id}.{func.attr}")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            assert hasattr(modules[node.value.id], node.attr), \
                f"child.py uses missing {node.value.id}.{node.attr}"
    assert {"solver.run_qoda", "solver.run_extragradient_baseline", "runner.build_schedule",
            "runner.build_problem", "runner.build_quant", "runner.preset_config"} <= called


def test_benchmark_smoke_passes():
    # Every workload end to end at a tiny T, checked by the benchmark itself.
    proc = subprocess.run([sys.executable, "-B", str(PERFBENCH / "run.py"), "--smoke"],
                          cwd=PERFBENCH.parent, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
