"""Every name in a package module's ``__all__`` is read by the package or by its benchmark.

A read is a loaded name, an attribute or an import alias in ``src/mwsqueeze/*.py``
or ``perfbench/*.py``, and in ``perfbench/`` also a string equal to the name,
since ``perfbench/layers.py`` wraps functions by name; tests do not count.  A
name read only inside the definition of an unread name is unread too, so the
scan repeats without those definitions until nothing changes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# unread today, each kept for the command a ROADMAP item gives it; a name that gains a reader leaves this set
RESERVED = {
    "degenerate_mode_evolve",  # single-mode squeezing on every route (item 6)
    "DEGENERATE_MIN_VAR_AT_T_PI",  # that route's frozen fixtures (item 6)
    "DEGENERATE_MIN_VAR_AT_HALF_T_PI",
    "diffusion_matrix",  # the open system's damping on the CLI (item 5)
}


def _trees(directory):
    return [ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / directory).glob("*.py"))]


def _defines(stmt):
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return {n.id for t in targets if t for n in ast.walk(t) if isinstance(n, ast.Name)}


def _reads(tree, skip, strings):
    """Names read in ``tree`` outside the top-level definitions of ``skip``; with ``strings``, string constants too."""
    out = set()
    for node in (n for stmt in tree.body if not _defines(stmt) & skip for n in ast.walk(stmt)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_exports():
    package, bench = _trees("src/mwsqueeze"), _trees("perfbench")
    exported = {name for tree in package for stmt in tree.body if "__all__" in _defines(stmt)
                for name in ast.literal_eval(stmt.value)}
    unread = set()
    while True:
        read = set().union(*(_reads(t, unread, False) for t in package), *(_reads(t, unread, True) for t in bench))
        if exported - read == unread:
            return unread
        unread = exported - read


def test_every_export_has_a_reader():
    unread = unread_exports()
    assert unread == RESERVED, (
        f"unread exports {sorted(unread)}: not reserved {sorted(unread - RESERVED)}, "
        f"reserved but read {sorted(RESERVED - unread)}"
    )
