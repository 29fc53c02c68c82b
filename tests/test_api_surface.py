"""Every function and class in ``src/qmaass`` is reached by the program.

A definition counts as reached when its name is loaded, as a ``Name`` or
an ``Attribute``, somewhere in ``src/qmaass`` or in the benchmark's
non-test modules under ``perfbench/``.  Imports and ``__all__`` strings
load nothing, and dunders are reached by the language itself.  Code
that only the tests call belongs in ``tests/``.  A definition that an
open ROADMAP item needs may stay unreached; ``NEEDED`` names the item or
test that keeps it, and goes stale (and fails) once the name is reached
or gone.  Every string in a module's ``__all__`` names something bound at
that module's top level, so a deleted definition leaves no stale export.
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


def top_level_names(tree: ast.Module) -> set[str]:
    """Names bound at the top level of ``tree``: definitions, assignments and imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update((a.asname or a.name).split(".")[0] for a in node.names)
    return out


def exported_names(tree: ast.Module) -> list[str]:
    """The strings of the top-level ``__all__`` list of ``tree``, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


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


def test_the_export_check_finds_a_stale_name():
    sample = ast.parse(
        "import os.path\n"
        "from elsewhere import imported as renamed\n"
        "__all__ = ['defined', 'Box', 'CONST', 'renamed', 'os', 'deleted']\n"
        "CONST: int = 1\n"
        "def defined(): pass\n"
        "class Box:\n"
        "    def method(self): pass\n"
    )
    assert set(exported_names(sample)) - top_level_names(sample) == {"deleted"}


def test_every_export_names_a_top_level_definition():
    for path, tree in zip(SRC, _parse(SRC)):
        stale = set(exported_names(tree)) - top_level_names(tree)
        assert not stale, f"{path.name} exports names it does not define: {sorted(stale)}"


def test_every_unreached_definition_is_needed():
    src = _parse(SRC)
    extra = unreached(src, src + _parse(BENCH)) - set(NEEDED)
    assert not extra, f"reached by no command, benchmark or src function: {sorted(extra)}"


def test_the_needed_list_is_not_stale():
    src = _parse(SRC)
    defined = set().union(*map(defined_names, src))
    assert not set(NEEDED) - defined, "listed but no longer defined"
    assert not set(NEEDED) - unreached(src, src + _parse(BENCH)), "listed but now reached"
