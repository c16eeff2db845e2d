"""Every function, class and method in ``src/quantvi`` is used by the program.

A name that only tests read belongs in ``tests/``.  This test walks the AST
of each module and collects every reference: a name, an attribute or an
import alias.  A definition counts as used when some reference to its name
lies outside its own body, anywhere in ``src/quantvi/`` or in
``perfbench/child.py``.  The benchmark child also names the functions it
traces as strings, so its string constants count as references too.
Dunder methods are called by Python itself and are not checked.

A second scan does the same for state: every attribute a method stores on
``self`` must be loaded, on any object, somewhere in ``src/quantvi/`` or in
``perfbench/child.py``.
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


# Stored and read only by tests, on purpose.
STORED_FOR_CALLERS = {
    # The solution a problem was built around: the documented answer of a
    # built problem, which callers compare a run's iterates against.
    "vi.ProblemInstance.x_star",
}


def unread_attributes():
    stored, loaded = [], set()
    paths = sorted((ROOT / "src" / "quantvi").glob("*.py")) + [ROOT / "perfbench" / "child.py"]
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            # An augmented assignment reads its target as well.
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                loaded.add(node.target.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
        if path.parent.name != "quantvi":
            continue
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    stored.append((node.attr, f"{path.stem}.{cls.name}.{node.attr}"))
    return sorted({qual for attr, qual in stored if attr not in loaded} - STORED_FOR_CALLERS)


def test_every_stored_attribute_is_read_by_the_program():
    unread = unread_attributes()
    assert not unread, f"stored but read by nothing in src/quantvi or perfbench/child.py: {unread}"
