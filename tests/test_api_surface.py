"""Every function and class in ``src/qmaass`` is reached by the program.

A definition counts as reached when its name is loaded, as a ``Name`` or
an ``Attribute``, somewhere in ``src/qmaass`` or in the benchmark's
non-test modules under ``perfbench/``.  Imports and ``__all__`` strings
load nothing, and dunders are reached by the language itself.  Code
that only the tests call belongs in ``tests/``.  A definition that an
open ROADMAP item needs may stay unreached; ``NEEDED`` names the item or
test that keeps it, and goes stale (and fails) once the name is reached
or gone.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

NEEDED = {
    "zeta": "CycNumber.zeta: the oracles of tests/oracles.py and test_root_values.py",
    "boundary_pairing": "QuadForm.boundary_pairing: ROADMAP item 1 (exact ray signs)",
    "normal_pairing": "QuadForm.normal_pairing: ROADMAP item 1 (exact ray signs)",
}


SRC = sorted((REPO / "src" / "qmaass").glob("*.py"))
BENCH = sorted(p for p in (REPO / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def _parse(paths) -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def defined_names(tree: ast.Module) -> set[str]:
    """Functions, methods and classes defined anywhere in ``tree``, dunders left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def loaded_names(tree: ast.Module) -> set[str]:
    """Names read in ``tree``: loaded ``Name`` ids and loaded ``Attribute`` attrs."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unreached(defining: list[ast.Module], reading: list[ast.Module]) -> set[str]:
    """Names defined in ``defining`` that no module of ``reading`` loads."""
    defined = set().union(*map(defined_names, defining))
    return defined - set().union(*map(loaded_names, reading))


def test_the_detector_skips_imports_all_strings_and_dunders():
    sample = ast.parse(
        "from elsewhere import imported\n"
        "__all__ = ['exported']\n"
        "def exported(): pass\n"
        "def used(): pass\n"
        "class Box:\n"
        "    def __repr__(self): return ''\n"
        "    def method(self): pass\n"
        "    def called(self): pass\n"
        "value = used()\n"
        "Box().called()\n"
    )
    assert unreached([sample], [sample]) == {"exported", "method"}


def test_every_unreached_definition_is_needed():
    src = _parse(SRC)
    extra = unreached(src, src + _parse(BENCH)) - set(NEEDED)
    assert not extra, f"reached by no command, benchmark or src function: {sorted(extra)}"


def test_the_needed_list_is_not_stale():
    src = _parse(SRC)
    defined = set().union(*map(defined_names, src))
    assert not set(NEEDED) - defined, "listed but no longer defined"
    assert not set(NEEDED) - unreached(src, src + _parse(BENCH)), "listed but now reached"
