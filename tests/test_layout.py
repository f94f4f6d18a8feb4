"""Every definition in ``src/`` is reached from a command, the benchmark or a demo.

A static pass over the syntax trees.  The roots are each package
module's top-level code (which in ``cli.py`` runs ``main``) and the
identifiers of ``bench/*.py`` and ``demos/*.py``: names, attributes and
imports, not strings, so a tracer target or a word in prose keeps
nothing.  There a name reaches every top-level definition so named, an
attribute also every method so named.  A reached definition reaches
what its body refers to: a bare name only a top-level definition that
its module defines or imports under that name, an attribute on a module
alias (``la.kernel``) that module's definition, and any attribute
(``x.kernel``) every method of its name.  Dunder methods are reached
with their class.  The test names each definition the closure misses.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "derived_heights"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scope(stem: str, tree: ast.Module):
    """Bare names -> labels of what they denote, and module aliases -> module stems.

    The package imports itself relatively: ``from .x import f``, ``from . import x``.
    """
    names = {n.name: f"{stem}.{n.name}" for n in tree.body if isinstance(n, DEFS)}
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        for alias in node.names if isinstance(node, ast.ImportFrom) and node.level else ():
            if node.module:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            else:
                aliases[alias.asname or alias.name] = alias.name
    return names, aliases


def _refs(nodes, names: dict[str, str], aliases: dict[str, str]) -> set[str]:
    """Keys the nodes reach: a top-level definition's label, ".x" for the methods x."""
    out: set[str] = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in names:
                out.add(names[sub.id])
            elif isinstance(sub, ast.Attribute):
                out.add("." + sub.attr)
                if isinstance(sub.value, ast.Name) and sub.value.id in aliases:
                    out.add(f"{aliases[sub.value.id]}.{sub.attr}")
    return out


def _definitions():
    """(label, key, keys its own body reaches, dunder labels) per top-level def or method.

    The key is what reaches the definition: its label for a top-level one,
    ".f" for a method.  Also returns the keys module-level code reaches.
    """
    defs, roots = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scope = _scope(path.stem, tree)
        roots |= _refs([s for s in tree.body if not isinstance(s, DEFS)], *scope)
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            label = f"{path.stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                methods = [s for s in node.body if isinstance(s, DEFS)]
                rest = [s for s in node.body if not isinstance(s, DEFS)]
                dunders = [f"{label}.{s.name}" for s in methods
                           if s.name.startswith("__") and s.name.endswith("__")]
                defs.append((label, label, _refs(node.decorator_list + node.bases + rest,
                                                 *scope), dunders))
                defs += [(f"{label}.{s.name}", "." + s.name, _refs([s], *scope), [])
                         for s in methods]
            else:
                defs.append((label, label, _refs([node], *scope), []))
    return defs, roots


def _outside_keys(defs) -> set[str]:
    """Keys the identifiers of bench/ and demos/ reach (an import is a name)."""
    names, attrs = set(), set()
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names |= set(node.name.split(".")) | {node.asname or node.name}
    return ({key for label, key, *_ in defs if key == label and label.split(".")[1] in names}
            | {key for label, key, *_ in defs if label.rsplit(".", 1)[1] in attrs})


def unreached() -> list[str]:
    defs, mentioned = _definitions()
    mentioned |= _outside_keys(defs)
    body = {label: refs for label, _, refs, _ in defs}
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for label, key, _, dunders in defs:
            if label in reached or key not in mentioned:
                continue
            for hit in [label] + dunders:
                reached.add(hit)
                mentioned |= body[hit]
            grew = True
    return [label for label, *_ in defs if label not in reached]


def test_the_pass_sees_the_package():
    defs, roots = _definitions()
    labels = {label for label, *_ in defs}
    assert {"cli.main", "linalg.Span", "linalg.Span.reduce", "recovery.tau_sequence"} <= labels
    assert "cli.main" in roots
    # a local variable named like a top-level function does not reach it
    names, aliases = _scope("m", ast.parse("from . import linalg as la\ndef f(): pass"))
    assert _refs([ast.parse("kernel = la.kernel; f(); g.kernel")], names, aliases) \
        == {"linalg.kernel", ".kernel", "m.f"}
    assert _refs([ast.parse("dual = x.dual()")], names, aliases) == {".dual"}


def test_every_definition_is_reached_from_a_command_or_the_benchmark():
    assert unreached() == []
