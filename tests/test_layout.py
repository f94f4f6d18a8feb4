"""Every definition in ``src/`` is reached from a command or the benchmark.

A static pass over the package's syntax trees.  The roots are each
module's top-level code (which in ``cli.py`` runs ``main``) and every
identifier that appears in ``bench/*.py``, strings included, since the
tracer resolves names such as ``"PairingData.bd_pairing"`` by
``getattr``.  A reached definition reaches every name its body mentions.
A top-level function or class is reached by its name, bare or as an
attribute (``la.kernel``); a method only as an attribute (``x.kernel``),
on any object, so a parameter that shares a method's name does not keep
the method.  Dunder methods are reached with their class.  A top-level
function, class or method that the closure misses is code no command
runs; the test names each one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "derived_heights"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes) -> set[str]:
    """Names mentioned under nodes: "x" for a bare name, "x" and ".x" for an attribute."""
    out: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out |= {sub.attr, "." + sub.attr}
    return out


def _definitions():
    """(label, key, own body nodes, dunder labels) per top-level def or method.

    The key is the name that reaches the definition: "f" for a top-level
    one, ".f" for a method.  Also returns the names module-level code mentions.
    """
    defs, roots = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        roots |= _names(s for s in tree.body if not isinstance(s, DEFS))
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            label = f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [s for s in node.body if isinstance(s, DEFS)]
                rest = [s for s in node.body if not isinstance(s, DEFS)]
                dunders = [f"{label}.{s.name}" for s in methods
                           if s.name.startswith("__") and s.name.endswith("__")]
                defs.append((label, node.name, node.decorator_list + node.bases + rest,
                             dunders))
                defs += [(f"{label}.{s.name}", "." + s.name, [s], []) for s in methods]
            else:
                defs.append((label, node.name, [node], []))
    return defs, roots


def _bench_identifiers() -> set[str]:
    words: set[str] = set()
    for path in (ROOT / "bench").glob("*.py"):
        words |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return words | {"." + w for w in words}


def unreached() -> list[str]:
    defs, mentioned = _definitions()
    mentioned |= _bench_identifiers()
    body = {label: nodes for label, _, nodes, _ in defs}
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for label, key, _, dunders in defs:
            if label in reached or key not in mentioned:
                continue
            for hit in [label] + dunders:
                reached.add(hit)
                mentioned |= _names(body[hit])
            grew = True
    return [label for label, *_ in defs if label not in reached]


def test_the_pass_sees_the_package():
    defs, roots = _definitions()
    labels = {label for label, *_ in defs}
    assert {"cli.main", "linalg.Span", "linalg.Span.reduce", "recovery.tau_value"} <= labels
    assert "main" in roots


def test_every_definition_is_reached_from_a_command_or_the_benchmark():
    assert unreached() == []
