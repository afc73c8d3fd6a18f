"""No state that nothing reads.

Every ``self.<name>`` a ``src/repro`` class assigns must be loaded —
``<anything>.<name>`` or ``getattr(_, "<name>")`` — somewhere in the
product: ``src/``, ``benchmarks/``, ``examples/`` or ``tools/``.  Tests do
not count as readers: a counter only a test reads is still paid for on
every product run.  The check is by name, so it catches a field no code
reads at all; a name shared with something read elsewhere passes.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT = ("src", "benchmarks", "examples", "tools")


def _trees(directory: Path):
    for path in sorted(directory.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _loaded_names() -> set[str]:
    names: set[str] = set()
    for top in PRODUCT:
        for _, tree in _trees(ROOT / top):
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                ):
                    names.add(node.args[1].value)
    return names


def _self_stores():
    """``(name, "path:line")`` of every ``self.<name> = / += / : ...`` in a
    ``src/repro`` class body."""
    for path, tree in _trees(ROOT / "src" / "repro"):
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for store in ast.walk(target):
                        if (
                            isinstance(store, ast.Attribute)
                            and isinstance(store.ctx, ast.Store)
                            and isinstance(store.value, ast.Name)
                            and store.value.id == "self"
                        ):
                            yield store.attr, f"{path.relative_to(ROOT)}:{node.lineno}"


def test_every_assigned_attribute_is_read_by_the_product():
    loaded = _loaded_names()
    unread = sorted(
        f"{where}: self.{name}" for name, where in _self_stores() if name not in loaded
    )
    assert not unread, "written, never read:\n" + "\n".join(unread)
