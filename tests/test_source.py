"""Checks on the library source itself."""

import ast
import types
from pathlib import Path

import halfcross


def _library_nodes():
    """(file name, node) for every AST node of every library module."""
    for path in sorted(Path(halfcross.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statements_in_library():
    # assert statements vanish under python -O, and AssertionError reads as a
    # failed assert; runtime checks must raise a typed error
    found = []
    for name, node in _library_nodes():
        raised = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(raised, ast.Call):
            raised = raised.func
        if isinstance(node, ast.Assert) or (
            isinstance(raised, ast.Name) and raised.id == "AssertionError"
        ):
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_codeword_view_is_never_turned_back_into_an_array():
    # codes and tilings hold their words as one array, ``words``; building an
    # array from the tuple view ``codewords`` is a second copy of that array
    found = []
    for name, node in _library_nodes():
        func = node.func if isinstance(node, ast.Call) else None
        if not (isinstance(func, ast.Attribute) and func.attr in ("array", "asarray")
                and isinstance(func.value, ast.Name) and func.value.id == "np"):
            continue
        args = [*node.args, *(k.value for k in node.keywords)]
        if any(isinstance(sub, ast.Attribute) and sub.attr == "codewords"
               for arg in args for sub in ast.walk(arg)):
            found.append(f"{name}:{node.lineno}")
    assert found == []


#: the only library functions that read the tuple view ``codewords``
_TUPLE_VIEW_READERS = {
    # its result is a set of tuples, which callers edit (the benchmark's
    # reject-n8 set-up damages a tiling through it)
    ("tiling.py", "codeword_set"),
    # looks the radius-1 sphere words, tuples, up in a set of the codewords; a
    # faster lookup waits for the benchmark to stop keeping every output
    ("codes.py", "decode_within_1"),
}


def test_tuple_view_is_read_only_where_tuples_are_the_result():
    # everything else reads ``words``: the tuple view is a second copy of the
    # array, built on each access (a tiling's, not kept) or kept from the first
    # (a code's, see _KEPT_ATTRIBUTES)
    def reads(name, nodes):
        return {(name, node.lineno) for node in nodes if isinstance(node, ast.Attribute)
                and node.attr == "codewords" and isinstance(node.ctx, ast.Load)}

    found, allowed = set(), set()
    for name, node in _library_nodes():
        found |= reads(name, [node])
        if isinstance(node, ast.FunctionDef) and (name, node.name) in _TUPLE_VIEW_READERS:
            allowed |= reads(name, ast.walk(node))
    assert sorted(found - allowed) == []


def test_range_and_integer_checks_live_in_one_helper():
    # every dimension, period, count and budget goes through geometry._at_least,
    # so none of its messages is written by hand anywhere else
    def checks(name, nodes):
        return {(name, node.lineno) for node in nodes
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "ValueError"
                and any(isinstance(text, ast.Constant) and isinstance(text.value, str)
                        and ("must be >=" in text.value or "must be an integer" in text.value)
                        for arg in node.exc.args if isinstance(arg, ast.JoinedStr)
                        for text in arg.values)}

    found, allowed = set(), set()
    for name, node in _library_nodes():
        found |= checks(name, [node])
        if isinstance(node, ast.FunctionDef) and (name, node.name) == ("geometry.py", "_at_least"):
            allowed |= checks(name, ast.walk(node))
    assert len(allowed) == 2
    assert sorted(found - allowed) == []


def test_no_library_module_reads_the_offset_tuple_view():
    # geometry._offsets is the one enumeration of the shape; the library reads
    # that array, geometry.py included, and not the tuple view
    # ``UpsilonShape.offsets``, which is built for callers only
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "offsets"
             and isinstance(node.ctx, ast.Load)]
    assert found == []


def test_no_library_function_is_memoized():
    # functools.cache and lru_cache keep every argument and result until the
    # process exits: memory that outlives its objects, which no span or
    # benchmark peak attributes to the call that made it
    def memo(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        return name in ("cache", "lru_cache")

    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(memo(d) for d in node.decorator_list)]
    assert found == []


#: the only attributes a library class keeps with functools.cached_property
_KEPT_ATTRIBUTES = {
    # decode_within_1 builds set(code.codewords) on every call; were the view
    # rebuilt too, each n = 26 locate would make 59,049 more tuples
    ("codes.py", "BlockCode", "codewords"),
}


def test_no_library_attribute_is_kept_beyond_its_reader():
    # a cached_property keeps its value as long as the object: a 12^8 tiling
    # whose tuple view was read once grew to 15 times its array
    def uses(name, nodes):
        return {(name, node.lineno) for node in nodes
                if getattr(node, "id", getattr(node, "attr", None)) == "cached_property"}

    found, allowed = set(), set()
    for name, node in _library_nodes():
        found |= uses(name, [node])
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:  # a kept attribute is a decorated method
                if (name, node.name, getattr(stmt, "name", None)) in _KEPT_ATTRIBUTES:
                    allowed |= uses(name, ast.walk(stmt))
    assert sorted(found - allowed) == []
    assert len(allowed) == 1


def test_no_integer_entry_check_is_dropped():
    # geometry._integer_entries returns a point's entries as Python ints; a caller
    # that drops them and computes on what it was given wraps with numpy scalars
    found = [f"{name}:{node.lineno}" for name, node in _library_nodes()
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
             and getattr(node.value.func, "id", None) == "_integer_entries"]
    assert found == []


#: every public name of the package, modules aside: a new export is a change here
EXPORTS = [
    "AuditReport", "BlockCode", "FormatError", "IntegerLattice", "NonexistenceCertificate",
    "PeriodicTiling", "Point", "SearchConfig", "UpsilonShape", "VerificationReport",
    "admissible_dimension", "binary_hamming", "covers", "cross_distance", "decode_within_1",
    "from_binary_perfect", "from_ternary_perfect", "is_lattice_tiling", "is_perfect",
    "is_periodic_with", "lambda_lattice", "locate_tile_binary", "locate_tile_ternary",
    "min_hamming_distance", "nonexistence_certificate", "normalize", "puncture",
    "punctured_construction", "read_code", "read_tiling", "search_tilings", "spencer_bound",
    "structural_audit", "ternary_hamming", "to_binary_perfect", "upsilon_offsets", "verify",
    "volume", "weight_split", "write_code", "write_tiling",
]


def _exported():
    return sorted(name for name, value in vars(halfcross).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def test_exported_names_are_pinned():
    # a name stays exported only while the CLI, an acceptance criterion, the
    # benchmark or another library module reaches it
    assert _exported() == EXPORTS


#: exported classes no caller names: each is the type a reached function takes or returns
_TYPES_OF_REACHED = {"AuditReport", "IntegerLattice", "NonexistenceCertificate", "UpsilonShape"}
_MODULES = {path.stem for path in Path(halfcross.__file__).parent.glob("*.py")}


def _reached(tree):
    """The halfcross names a file imports, or reads as an attribute of a name bound to
    a halfcross module (``hc.verify``, ``tiling.verify``)."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or "halfcross" for alias in node.names
                        if alias.name.split(".")[0] == "halfcross"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "halfcross"):
            package = node.module in (None, "halfcross")  # from halfcross / from . import
            for alias in node.names:
                if package and alias.name in _MODULES:
                    modules.add(alias.asname or alias.name)
                else:
                    names.add(alias.name)
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in modules}


def test_every_export_is_reached_outside_the_tests():
    # the callers are the library modules other than the name's own (the package's
    # __init__ only re-exports), the benchmark and the acceptance criteria
    root = Path(__file__).resolve().parents[1]
    homes, reached = {}, {}
    for path in sorted(Path(halfcross.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node]
            homes.update({getattr(t, "name", getattr(t, "id", None)): path for t in targets})
        if path.name != "__init__.py":
            reached[path] = _reached(tree)
    for path in [*sorted((root / "perfbench").glob("*.py")), root / "tests/test_acceptance.py"]:
        reached[path] = _reached(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    unreached = [name for name in _exported() if name not in _TYPES_OF_REACHED
                 and not any(name in names for path, names in reached.items()
                             if path != homes.get(name))]
    assert unreached == []
