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
Every ``functools.lru_cache`` and ``functools.cache`` in ``src/qmaass`` is
listed, with its maxsize and the reason it exists, in ``CACHES``; a new,
resized or deleted cache fails until the table says why.  Every parameter
of a function, class or public method that some ``__all__`` names is
probed with bad values by ``tests/test_root_values.py::INT_ARGUMENTS`` or
exempted, with its reason, in ``INT_EXEMPT`` when it is annotated ``int``,
and likewise by ``RATIONAL_ARGUMENTS`` or ``RATIONAL_EXEMPT`` when it is
annotated as a rational (``Fraction`` or ``_EXPONENT``, also inside a
container).
"""

import ast
from pathlib import Path

from test_root_values import INT_ARGUMENTS, RATIONAL_ARGUMENTS

REPO = Path(__file__).resolve().parents[1]

NEEDED = {
    "zeta": "CycNumber.zeta: the oracles of tests/oracles.py and test_root_values.py",
    "boundary_pairing": "QuadForm.boundary_pairing: ROADMAP item 1 (exact ray signs)",
    "normal_pairing": "QuadForm.normal_pairing: ROADMAP item 1 (exact ray signs)",
    "relation_sums": "the public relation sweep: tests/test_bailey.py checks bailey._sweep through "
                     "it against the double product loop",
    "inverse_pochhammer": "the public inverse Pochhammer: tests/test_bailey.py checks the unit "
                          "pair's beta against the product of two of them",
    "one": "QSeries.one, the public unit series: the tests build expected series from it",
    "monomial": "QSeries.monomial, the public c q^e: the tests build expected series and changed "
                "betas from it",
}


#: "module.qualified.name" -> (maxsize, None when unbounded; why it exists).
CACHES = {
    "bessel.k0_bessel": (65536, "a waveform sum meets the argument 2 pi Q v at every lattice "
                                "point of equal Q; bounded, as its float keys are not"),
    "cyclotomic.cyclotomic_polynomial": (None, "Phi_L and its nonzero lower terms, read by every "
                                               "CycNumber built; one entry per order L"),
    "theta._lattice_table": (16, "the lattice expansion of one family, shared by the exact series, "
                                 "the numeric grids and the sigma* table; a few families at a time"),
    "theta._ray_rule": (None, "the fixed Gauss-Legendre rule of the completion, built once"),
}


#: "module.name.parameter" -> why a public parameter annotated int has no
#: row in INT_ARGUMENTS.
_HOT = "a hot constructor, built by every operation of its kind from values already checked"
_FILLED = "a record that family_params fills from the family index and chain it has checked"
_TABLE = "module data: the records of FAMILIES, written once in the module"
INT_EXEMPT = {
    "cyclotomic.CycNumber.order": _HOT,
    "series.QSeries.denom": _HOT,
    **dict.fromkeys(("theta.FamilyThetaData." + p for p in ("j", "k", "ell", "power")), _FILLED),
    **dict.fromkeys(("families.Family." + p for p in ("sum_scale", "theta_scale", "shell_denom")), _TABLE),
}

#: "module.name.parameter" (or "module.Class.method.parameter") -> why a
#: public parameter annotated as a rational has no row in RATIONAL_ARGUMENTS.
RATIONAL_EXEMPT = {
    "maass.QuantumSample.x": "a record that quantum_value fills from the x it has checked",
    **dict.fromkeys(("theta.FamilyThetaData.alpha", "theta.FamilyThetaData.scale"), _FILLED),
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
    """Names read in ``tree``: loaded ``Name`` ids and loaded ``Attribute``
    attrs, less the loads of a definition's own name inside its body, as a
    recursive call reaches nothing that was not reached already."""
    out = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in inside:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in inside:
            out.add(node.attr)
        body = node.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else ()
        for child in ast.iter_child_nodes(node):
            visit(child, inside | {node.name} if child in body else inside)

    visit(tree, frozenset())
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


_NOT_A_CACHE = object()


def _maxsize(decorator: ast.expr):
    """The maxsize of a functools cache decorator (None when unbounded),
    else ``_NOT_A_CACHE``."""
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "cache":
        return None
    if name != "lru_cache":
        return _NOT_A_CACHE
    if not isinstance(decorator, ast.Call):
        return 128  # functools' default
    given = [*decorator.args, *(k.value for k in decorator.keywords if k.arg == "maxsize")]
    return given[0].value if given else 128


def cached_functions(tree: ast.Module) -> dict[str, int | None]:
    """Qualified name -> maxsize of every function in ``tree`` under a
    ``functools.lru_cache`` or ``functools.cache`` decorator, nested ones too."""
    out = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in child.decorator_list:
                    size = _maxsize(decorator)
                    if size is not _NOT_A_CACHE:
                        out[prefix + child.name] = size
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _is_int(annotation: ast.expr) -> bool:
    return ast.unparse(annotation).strip("'\"") == "int"


#: The annotation names that mark a parameter as an exact rational.
RATIONAL_NAMES = {"Fraction", "_EXPONENT"}


def _is_rational(annotation: ast.expr) -> bool:
    """Whether the annotation loads a name of RATIONAL_NAMES, also inside a
    container; a string annotation is parsed first."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        annotation = ast.parse(annotation.value, mode="eval")
    return any(isinstance(node, ast.Name) and node.id in RATIONAL_NAMES for node in ast.walk(annotation))


def annotated_parameters(tree: ast.Module, public: set[str], marks) -> set[str]:
    """"name.parameter" for each parameter whose annotation ``marks``
    accepts, of the top-level functions of ``tree`` named in ``public`` and
    of the ``__init__`` of such classes, and "Class.method.parameter" for
    their public methods."""
    out = set()
    for node in tree.body:
        if getattr(node, "name", None) not in public:
            continue
        if isinstance(node, ast.ClassDef):
            funcs = [(node.name if f.name == "__init__" else f"{node.name}.{f.name}", f) for f in node.body
                     if isinstance(f, ast.FunctionDef) and (f.name == "__init__" or not f.name.startswith("_"))]
        else:
            funcs = [(node.name, node)]
        for prefix, func in funcs:
            args = func.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                if arg.annotation is not None and marks(arg.annotation):
                    out.add(f"{prefix}.{arg.arg}")
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


def test_the_detector_skips_a_definitions_loads_of_itself():
    sample = ast.parse(
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Ring:\n"
        "    def binomial(self, n): return self.binomial(n - 1)\n"
        "    def rot(self): return Ring\n"
        "@recursive\n"
        "def decorated(): return decorated\n"
        "def caller(): return Ring().rot()\n"
        "caller()\n"
    )
    assert unreached([sample], [sample]) == {"binomial", "decorated"}


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


def test_the_cache_scan_finds_every_functools_cache():
    sample = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache, wraps\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def sized(): pass\n"
        "@lru_cache\n"
        "def bare(): pass\n"
        "@cache\n"
        "def unbounded(): pass\n"
        "class Box:\n"
        "    @functools.lru_cache(None)\n"
        "    def method(self): pass\n"
        "def outer():\n"
        "    @lru_cache(maxsize=None)\n"
        "    def inner(): pass\n"
        "    return inner\n"
        "@wraps(outer)\n"
        "@property\n"
        "def plain(): pass\n"
    )
    assert cached_functions(sample) == {
        "sized": 8, "bare": 128, "unbounded": None, "Box.method": None, "outer.inner": None,
    }


def test_the_int_scan_finds_each_public_int_parameter():
    sample = ast.parse(
        "__all__ = ['f', 'Box', 'Bare', 'g']\n"
        "def f(a: int, b, /, c: 'int', *, d: int = 1, e: int | None = None, n: float = 0): pass\n"
        "def g(x: float, y: list[int]): pass\n"
        "def hidden(n: int): pass\n"
        "class Box:\n"
        "    def __init__(self, size: int, label: str): pass\n"
        "    def method(self, i: int): pass\n"
        "    def _private(self, i: int): pass\n"
        "class Bare:\n"
        "    pass\n"
    )
    assert annotated_parameters(sample, set(exported_names(sample)), _is_int) == {
        "f.a", "f.c", "f.d", "Box.size", "Box.method.i",
    }


def test_the_rational_scan_finds_each_public_rational_parameter():
    sample = ast.parse(
        "__all__ = ['f', 'Box', 'g']\n"
        "def f(a: Fraction, b, /, c: 'Fraction | None', *, d: _EXPONENT = 0, e: list[Fraction] = (),\n"
        "      n: int = 0, t: float = 0.0) -> Fraction: pass\n"
        "def g(x: Iterable[tuple[_EXPONENT, object]], y: 'tuple[Fraction, Fraction]', z: str): pass\n"
        "def hidden(x: Fraction): pass\n"
        "class Box:\n"
        "    def __init__(self, r: tuple[Fraction, Fraction], M: int): pass\n"
        "    @classmethod\n"
        "    def build(cls, e: _EXPONENT): pass\n"
        "    def method(self, x: Fraction, y: float): pass\n"
        "    def _private(self, x: Fraction): pass\n"
        "    def __eq__(self, other: Fraction): pass\n"
        "class Hidden:\n"
        "    def __init__(self, x: Fraction): pass\n"
    )
    assert annotated_parameters(sample, set(exported_names(sample)), _is_rational) == {
        "f.a", "f.c", "f.d", "f.e", "g.x", "g.y", "Box.r", "Box.build.e", "Box.method.x",
    }


def _check_probed_or_exempt(marks, table: dict, exempt: dict) -> None:
    """Every public parameter that ``marks`` accepts has a place in ``table``
    (see tests/test_root_values.py) or a reason in ``exempt``, not both."""
    trees = _parse(SRC)
    public = set().union(*map(exported_names, trees))
    found = {f"{path.stem}.{name}" for path, tree in zip(SRC, trees)
             for name in annotated_parameters(tree, public, marks)}
    probed = {f"{name}.{place.split('[')[0]}" for name, (_, places) in table.items() for place in places}
    assert not found - probed - set(exempt), "neither probed nor exempt"
    assert not set(exempt) - found, "exempt but no longer a public parameter of its kind"
    assert not set(exempt) & probed, "both probed and exempt"


def test_every_public_int_parameter_is_probed_or_exempt():
    # A new entry point cannot skip the one integer rule unseen.
    _check_probed_or_exempt(_is_int, INT_ARGUMENTS, INT_EXEMPT)


def test_every_public_rational_parameter_is_probed_or_exempt():
    # A new entry point cannot read an exact rational past the one rule unseen.
    _check_probed_or_exempt(_is_rational, RATIONAL_ARGUMENTS, RATIONAL_EXEMPT)


def test_every_cache_is_registered():
    found = {f"{path.stem}.{name}": size for path, tree in zip(SRC, _parse(SRC))
             for name, size in cached_functions(tree).items()}
    assert found == {name: size for name, (size, _) in CACHES.items()}


def callers(tree: ast.Module, name: str, loads: bool = False) -> set[str]:
    """The qualified names of the functions in ``tree`` whose own body
    (nested definitions left out) calls ``name``, as a name or an attribute,
    or with ``loads`` reads it in any way."""
    out = set()

    def visit(node: ast.AST, scope: str | None) -> None:
        ref = node if loads else node.func if isinstance(node, ast.Call) else None
        if isinstance(getattr(ref, "ctx", None), ast.Load) and getattr(ref, "attr", getattr(ref, "id", None)) == name:
            out.add(scope)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope is None else f"{scope}.{child.name}"
                visit(child, inner)
            else:
                visit(child, scope)

    visit(tree, None)
    return out


def src_callers(name: str, loads: bool = False) -> set[str]:
    """:func:`callers` over every ``src`` module, each name as "module.function"."""
    return {f"{path.stem}.{scope}" for path, tree in zip(SRC, _parse(SRC)) for scope in callers(tree, name, loads)}


def test_the_caller_scan_finds_each_calling_function():
    sample = ast.parse(
        "def direct(): return _kept_nus(1)\n"
        "def via_module(): return families._kept_nus(1)\n"
        "def loads_only(): return _kept_nus\n"
        "def stores(box): box._kept_nus = None\n"
        "class Box:\n"
        "    def method(self): return [_kept_nus(n) for n in ()]\n"
        "def outer():\n"
        "    def inner(): return _kept_nus(2)\n"
        "    return inner\n"
        "_kept_nus(0)\n"
    )
    calls = {"direct", "via_module", "Box.method", "outer.inner", None}
    assert callers(sample, "_kept_nus") == calls
    assert callers(sample, "_kept_nus", loads=True) == calls | {"loads_only"}


def test_one_function_enumerates_the_kept_lattice_points():
    # Every exact lattice sum reads its points from one row kernel: a second
    # caller of the row rule is a second enumerator.
    assert src_callers("_kept_nus") == {"series._lattice_row"}


def test_every_exact_lattice_sum_reads_the_row_kernel():
    # The Bailey alphas, the companion's cone, the theta series and the
    # family shells are all rows of quadratic lattices: one kernel, no loop
    # over nu beside it.
    assert src_callers("_lattice_row") == {
        "bailey._lattice_alpha", "families.negative_part_series",
        "theta.indefinite_theta_series", "theta._family_shell",
    }


def test_every_float_lattice_sum_reads_the_walk():
    # The waveform and the completion defect each walk the lattice once and
    # weigh each point in their own loop: no helper yields a filtered walk
    # or splits a point's one cone weight in two.
    assert src_callers("_lattice_walk") == {"theta.waveform_numeric", "theta.completion_defect"}
    assert not set().union(*map(defined_names, _parse(SRC))) & {"_cone_weights", "_completion_points"}


#: "module.function" outside ``series`` -> why it wraps its own coefficient
#: maps as QSeries rather than through TruncatedRing.series.
OWN_TRUNCATION = {
    "agpolys._chain_polynomials": "proven whole polynomials: L1Bound sizes them over the degree "
                                  "bound, and their q = 1 totals prove no term lies above it",
    "agpolys.ag_generating": "L1Bound sizing: its DP with x -> 1 bounds the digits more tightly "
                             "than the majorant twin",
}


def test_truncated_packed_sums_reach_qseries_through_one_entry():
    # A truncation order becomes a QSeries in TruncatedRing.series: a second
    # copy of finite_trunc -> int_slots -> sums -> _from_clean reads here.
    found = {name for name in src_callers("_from_clean", loads=True) if not name.startswith("series.")}
    assert found == set(OWN_TRUNCATION)
