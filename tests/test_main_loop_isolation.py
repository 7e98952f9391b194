"""The per-row kernel methods are the test oracle only.

Every main loop under ``src/repro`` runs through the block kernels
(``DistCalcKernel.run_block``, ``UpdateKernel.run_block``).  The per-row
methods — ``DistCalcKernel.run``, ``UpdateKernel.run`` and
``UpdateKernel.masked_run`` — stay as the oracle of
``tests/per_row_oracle.py``; this test fails as soon as a module of the
package calls one of them again, so a second main-loop path cannot grow
back unnoticed.
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent
ORACLE_CLASSES = {"DistCalcKernel", "UpdateKernel"}
ORACLE_METHODS = {"run", "masked_run"}


def _name(node):
    """``dist`` / ``self.update`` style dotted name, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _kernel_classes(trees):
    """The oracle classes plus every package subclass of them."""
    classes = set(ORACLE_CLASSES)
    grew = True
    while grew:
        grew = False
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name not in classes:
                    if any(_name(base) in classes for base in node.bases):
                        classes.add(node.name)
                        grew = True
    return classes


def per_row_calls(tree, classes):
    """``(line, call)`` for every per-row oracle call in ``tree``: any
    ``masked_run``, a ``run`` on an oracle class itself, or a ``run`` on
    a name the module binds to an instance of one."""
    instances = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call):
            if _name(node.value.func) in classes:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                instances.update(filter(None, map(_name, targets)))
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method = node.func.attr
        owner = _name(node.func.value)
        if method == "masked_run" or (
            method in ORACLE_METHODS and (owner in classes or owner in instances)
        ):
            found.append((node.lineno, f"{owner}.{method}"))
    return sorted(found)


@pytest.fixture(scope="module")
def trees():
    return {
        path.relative_to(PACKAGE.parent): ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def test_no_module_calls_the_per_row_kernels(trees):
    classes = _kernel_classes(trees)
    offenders = {
        str(path): calls
        for path, tree in trees.items()
        if (calls := per_row_calls(tree, classes))
    }
    assert offenders == {}


def test_detector_flags_the_per_row_loop():
    """The detector recognises the shapes a per-row loop takes."""
    source = """
dist = DistCalcKernel(config=launch, policy=policy)
self.update = UpdateKernel(config=launch, policy=policy)
for i in range(n):
    plane = dist.run(i)
    self.update.run(plane, i)
    other.masked_run(plane, i, mask)
UpdateKernel.run(kernel, plane, 0)
dist.run_block(0, 4, ws)
sort_scan.run(plane)
"""
    calls = per_row_calls(ast.parse(source), ORACLE_CLASSES)
    assert [call for _, call in calls] == [
        "dist.run", "self.update.run", "other.masked_run", "UpdateKernel.run",
    ]
