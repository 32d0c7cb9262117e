"""The boundary of the packed engine: outside groebner.py, a module reaches
the packed representation only through the names on an explicit
allow-list, and builds a Groebner basis only through groebner's functions.
And the package ships only what the product calls."""

import ast
from collections import Counter
from pathlib import Path

import hilbcomp
from test_bench_contract import _functions

PACKAGE = Path(hilbcomp.__file__).parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

# the private groebner names each module may use; every other module, none
ALLOWED = {
    # the flat limit cuts its term dicts out of packed entries
    "flat_limit": {"_ring_packing"},
    # the tangent table reduces and prunes packed rows itself
    "tangent": {"_graded_prune", "_overflow", "_pack_row", "_reduce_int", "_ring_packing"},
}


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "groebner":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _is_groebner(node):
    return (node.level == 1 and node.module == "groebner") or node.module == "hilbcomp.groebner"


def _groebner_names(tree):
    """The names a module takes from groebner: from-imports, and attributes
    of the groebner module where it imports the module itself."""
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if _is_groebner(node):
                names |= {a.name for a in node.names}
            elif (node.level == 1 and node.module is None) or node.module == "hilbcomp":
                aliases |= {a.asname or a.name for a in node.names if a.name == "groebner"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "hilbcomp.groebner" and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.add(node.attr)
    return names


def test_only_the_allowed_modules_use_packed_helpers():
    private = {}
    for stem, tree in _trees():
        private[stem] = {n for n in _groebner_names(tree) if n.startswith("_")}
        assert private[stem] <= ALLOWED.get(stem, set()), (stem, private[stem])
    # the allow-list names only what is used
    assert {stem: private[stem] for stem in ALLOWED} == ALLOWED


def test_ideals_seed_their_bases_through_groebner_functions():
    # derived ideals are seeded from packed entries inside groebner; the
    # ideal layer neither builds a GroebnerBasis nor converts polynomials
    # into one
    names = _groebner_names(dict(_trees())["ideals"])
    assert names == {
        "buchberger", "colon_rows", "divided_basis", "eliminated_basis", "seeded_basis"
    }


def test_no_module_calls_the_groebner_basis_constructor():
    for stem, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "GroebnerBasis", stem


def _referenced(node):
    """How often each name is read in a tree, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _defined(tree):
    """The top-level functions of a module and the non-dunder methods of its
    classes, as (qualified name, def node)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield f"{node.name}.{sub.name}", sub


def test_every_src_function_has_a_product_caller():
    # called by the product: named in the package outside its own def and
    # outside __init__'s exports, in a demo, or by a benchmark span; code
    # that only tests call belongs in tests/
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    product = sum((_referenced(tree) for tree in trees.values()), Counter())
    outside = {attr.split(".")[-1] for _, attr in _functions()}
    for path in DEMOS.glob("*.py"):
        outside |= set(_referenced(ast.parse(path.read_text(encoding="utf-8"))))
    uncalled = [
        f"{stem}.{qualname}"
        for stem, tree in trees.items()
        for qualname, node in _defined(tree)
        if product[node.name] == _referenced(node)[node.name] and node.name not in outside
    ]
    assert uncalled == []


def _unused_imports(tree):
    """The names a module imports and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return imported - read


def test_no_unused_imports():
    # __init__'s imports are the package's exports
    paths = [p for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    paths += list(DEMOS.glob("*.py")) + list(Path(__file__).resolve().parent.glob("*.py"))
    unused = {
        f"{path.parent.name}/{path.name}": sorted(names)
        for path in sorted(paths)
        if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}


def test_src_has_no_bare_assert():
    # python -O strips assert statements, so a check the package relies on
    # raises its error explicitly
    bare = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert bare == []


def test_classify_runs_no_elimination():
    # the links are certified colons and the type-III gate reads its meet
    # off a closed form, so classify reaches no elimination routine
    tree = dict(_trees())["classify"]
    imported = {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    eliminations = {"intersect", "quotient", "quotient_by_element", "eliminate", "saturate"}
    assert eliminations.isdisjoint(imported | set(_referenced(tree)))


def test_flat_limit_takes_its_essential_form_from_ideals():
    # the family's essential variables come from the one essential_form:
    # flat_limit builds no RowSpan and takes no partial derivatives itself
    tree = dict(_trees())["flat_limit"]
    imported = {
        (node.module, a.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert ("ideals", "essential_form") in imported
    referenced = _referenced(tree)
    assert referenced["essential_form"]
    assert not {"linalg", "RowSpan", "_integer_partials"} & set(referenced)
    defined = [name for name, _ in _defined(tree)]
    assert not [name for name in defined if "partial" in name or "essential_form" in name]
