"""The boundary of the packed engine: outside groebner.py, a module reaches
the packed representation only through the names on an explicit
allow-list, and builds a Groebner basis only through groebner's functions."""

import ast
from pathlib import Path

import hilbcomp

PACKAGE = Path(hilbcomp.__file__).parent

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
    assert names == {"buchberger", "divided_basis", "eliminated_basis", "saturated_basis", "seeded_basis"}


def test_no_module_calls_the_groebner_basis_constructor():
    for stem, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name != "GroebnerBasis", stem
