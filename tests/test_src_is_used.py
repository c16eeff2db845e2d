"""Every function, class and method in ``src/quantvi`` is used by the program.

A name that only tests read belongs in ``tests/``.  This test walks the AST
of each module and collects every reference: a name, an attribute or an
import alias.  A definition counts as used when some reference to its name
lies outside its own body, anywhere in ``src/quantvi/`` or in
``perfbench/child.py``.  The benchmark child also names the functions it
traces as strings, so its string constants count as references too.
Dunder methods are called by Python itself and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _walk(node, stack, defs, refs):
    """Collect (name, qualified name, node) definitions and (name, enclosing defs) references."""
    for child in ast.iter_child_nodes(node):
        inner = stack
        if isinstance(child, DEFS):
            qual = ".".join([d.name for d in stack] + [child.name])
            defs.append((child.name, qual, child))
            inner = stack + [child]
        elif isinstance(child, ast.Name):
            refs.append((child.id, stack))
        elif isinstance(child, ast.Attribute):
            refs.append((child.attr, stack))
        elif isinstance(child, ast.alias):
            refs.append((child.name, stack))
        _walk(child, inner, defs, refs)


def unused_definitions():
    defs, refs = [], []
    for path in sorted((ROOT / "src" / "quantvi").glob("*.py")):
        module_defs = []
        _walk(ast.parse(path.read_text()), [], module_defs, refs)
        defs += [(name, f"{path.stem}.{qual}", node) for name, qual, node in module_defs]
    child, child_refs = ast.parse((ROOT / "perfbench" / "child.py").read_text()), []
    _walk(child, [], [], child_refs)
    outside = {name for name, _ in child_refs}
    outside |= {n.value for n in ast.walk(child)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return sorted(
        qual for name, qual, node in defs
        if not (name.startswith("__") and name.endswith("__"))
        and name not in outside
        and not any(ref == name and node not in stack for ref, stack in refs)
    )


def test_every_src_definition_has_a_program_caller():
    unused = unused_definitions()
    assert not unused, f"read by nothing in src/quantvi or perfbench/child.py: {unused}"
