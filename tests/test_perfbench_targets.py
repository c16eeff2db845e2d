"""The benchmark traces layer functions by name; a rename must not go unnoticed.

``perfbench/tracer.installed`` skips an (owner, attribute) pair that no
longer exists, so a renamed function would silently record no spans and
empty its benchmark layer.  This test loads ``perfbench/child.py`` without
running it and checks that every traced attribute is still there.
"""

import importlib.util
import sys
from pathlib import Path

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
