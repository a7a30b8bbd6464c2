"""Import hygiene and vector format of the qred package, read from its
source with ast.

Every import sits at module level, every imported name is used or
re-exported, and the intra-package graph of ``from .x import`` edges has no
cycle, so no module needs a lazy import to break one.  Outside `linalg`, no
module builds a dense vector of field zeros or a `fractions.Fraction`, and
no function sums field elements term by term through `FieldSpec`:
vectors are stored rows, sums are canonicalized once by `stored_row`, and
`Matrix` has no dense column read-out.  A module's arrow matrices are
transposed only where the module is built.  Only the allowed functions
write a cache on an algebra handle.  Every
dotted name that a docstring quotes in backticks names something that
exists.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qred"


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _local_imports(tree):
    """Modules of the package that tree imports with ``from .x import``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_no_import_inside_a_function():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{name}.py:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_package_import_graph_is_acyclic():
    graph = {name: _local_imports(tree) for name, tree in _trees().items()}
    assert "reduction" in graph["cli"]  # the edges are read at all
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph.get(name, ())):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def _exported(tree):
    """The names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used_or_exported():
    """A name a module imports is read in it or listed in its ``__all__``, so
    deleting the last caller of a function cannot leave its import behind.
    The package ``__init__`` only re-exports and is not checked."""
    found = []
    for name, tree in _trees().items():
        if name == "__init__":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = _exported(tree)
        found += [
            f"{name}.py:{line} imports {alias} unused"
            for alias, line in sorted(imported.items())
            if alias not in used and alias not in exported
        ]
    assert found == []


def test_all_lists_only_own_definitions():
    """A module's ``__all__`` lists only names the module defines at its top
    level; re-exporting is left to the package ``__init__``."""
    found, checked = [], 0
    for name, tree in _trees().items():
        if name == "__init__":
            continue
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
        exported = _exported(tree)
        checked += len(exported)
        found += [f"{name}.py exports {alias}, defined elsewhere" for alias in sorted(exported - defined)]
    assert checked > 50  # the lists are read at all
    assert found == []


def _private_definitions(trees):
    """(module, def) for every module-level function and every method whose
    name starts with an underscore and is not a dunder."""
    for name, tree in trees.items():
        for node in tree.body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if (
                    isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_")
                    and not fn.name.endswith("__")
                ):
                    yield name, fn


def test_every_private_function_is_called():
    """Every private function and method of the package is referenced in it
    outside its own body, by name or as an attribute, so deleting the last
    caller of a helper cannot leave the helper behind."""
    trees = _trees()
    refs = [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    defs = list(_private_definitions(trees))
    assert len(defs) > 40  # the definitions are read at all
    found = []
    for module, fn in defs:
        own = {id(node) for node in ast.walk(fn)}
        if not any(name == fn.name and ref not in own for name, ref in refs):
            found.append(f"{module}.py:{fn.lineno} {fn.name} is never called")
    assert found == []


def _through_data(target) -> bool:
    """Whether an assignment target writes into ``<expr>.data[...]``."""
    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
        if isinstance(node, ast.Attribute) and node.attr == "data":
            return True
    return False


def test_no_write_through_the_dense_view():
    """No code of the package or of its tests assigns into ``m.data[...]``:
    `Matrix.data` is a dense view built anew on each read, so such a write
    is silently lost."""
    tests = Path(__file__).resolve().parent
    files = sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py"))
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                continue
            flat = [t for tt in targets for t in (tt.elts if isinstance(tt, ast.Tuple) else [tt])]
            found += [f"{path.name}:{node.lineno}" for t in flat if _through_data(t)]
    assert found == []
    assert len(files) > 20  # both trees are read
    assert _through_data(ast.parse("m.data[i][j] = x").body[0].targets[0])


def _dense_zero_fills(tree) -> list[int]:
    """Lines of ``[z] * n`` (or ``n * [z]``) where z is a field zero: a call
    ``<expr>.zero()`` or a name ``zero``."""

    def is_zero(node):
        if isinstance(node, ast.Name):
            return node.id == "zero"
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "zero"
            and not node.args
        )

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side in (node.left, node.right):
                if isinstance(side, ast.List) and len(side.elts) == 1 and is_zero(side.elts[0]):
                    lines.append(node.lineno)
    return lines


def test_no_dense_zero_vector_outside_linalg():
    """Vectors in the engine are stored rows, {index: value} dicts that store
    no zero; a dense list of field zeros is built only by the read-outs of
    `linalg` (``Matrix.data``, ``SubspaceReducer.basis_rows``)."""
    trees = _trees()
    found = [
        f"{name}.py:{line}"
        for name, tree in trees.items()
        if name != "linalg"
        for line in _dense_zero_fills(tree)
    ]
    assert found == []
    assert _dense_zero_fills(trees["linalg"])  # the read-outs are found at all
    probe = ast.parse("a = [f.zero()] * n\nb = n * [zero]\nc = [0] * n\nd = [f.zero(), 1] * n")
    assert _dense_zero_fills(probe) == [1, 2]


def _fraction_calls(tree) -> list[int]:
    """The lines of tree that call ``Fraction``, by name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "Fraction" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_fraction_is_built_only_in_linalg():
    """Over Q a field element is an int when it is integral and a Fraction
    only otherwise; `linalg` is the one module that builds a Fraction, so
    that rule is kept in one place."""
    trees = _trees()
    found = [
        f"{name}.py:{line}"
        for name, tree in trees.items()
        if name != "linalg"
        for line in _fraction_calls(tree)
    ]
    assert found == []
    assert _fraction_calls(trees["linalg"])  # the calls are found at all
    probe = ast.parse("a = Fraction(1, 2)\nb = fractions.Fraction(3)\nc = Fraction\nd = f(Fraction)")
    assert _fraction_calls(probe) == [1, 2]


def _field_sums(tree) -> list[tuple[str, int]]:
    """(function, line) of each call ``.add(`` or ``.sub(`` in tree on a
    FieldSpec receiver, ``f``, ``field`` or ``self.field``, named by the
    innermost function around it."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if isinstance(func, ast.Attribute) and func.attr in ("add", "sub"):
                if ast.unparse(func.value) in ("f", "field", "self.field"):
                    found.append((fn, child.lineno))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    visit(tree, None)
    return found


# the sums that keep a per-term FieldSpec call, each with its reason
_FIELD_SUM_ALLOWED = {
    # a word's value is final once it is taken from `work`, so each update
    # keeps the value canonical and a word that cancels reads as 0
    ("algebra", "_reduce_element"),
    # the two halves of a row share a coordinate only for a loop, and one
    # call on that rare overlap is cheaper than a pass over every Hom row
    ("modules", "_balanced_relations"),
}


def test_field_sums_are_canonicalized_by_stored_row():
    """Outside `linalg`, a sum of field elements accumulates raw values and
    is put in canonical form once, by `linalg.stored_row`: no function calls
    ``.add(`` or ``.sub(`` on a FieldSpec, apart from the allowed ones."""
    found = {(name, fn) for name, tree in _trees().items() if name != "linalg" for fn, _ in _field_sums(tree)}
    assert found == _FIELD_SUM_ALLOWED
    probe = ast.parse("def g(f):\n    f.add(1, 2)\n    def h():\n        return self.field.sub(x, y)\n    seen.add(1)\nfield.add(0, 1)")
    assert _field_sums(probe) == [("g", 2), ("h", 4), (None, 6)]


def _reads_mats(node) -> bool:
    """Whether the expression node reads an attribute ``.mats``."""
    return any(isinstance(n, ast.Attribute) and n.attr == "mats" for n in ast.walk(node))


def _arrow_transposes(tree) -> list[tuple[str, int]]:
    """(function, line) of each ``.transpose()`` call on arrow matrices: on
    ``X.mats[...]``, or on a name that a comprehension or a for loop binds
    from an iterable that reads ``X.mats``.  The function is the innermost
    one around the call, as ``Class.method`` for a method."""
    found = []

    def visit(node, fn, bound):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            gens = node.generators
        elif isinstance(node, ast.For):
            gens = [node]
        else:
            gens = []
        for g in gens:
            if _reads_mats(g.iter):
                bound = bound | {n.id for n in ast.walk(g.target) if isinstance(n, ast.Name)}
        func = getattr(node, "func", None)
        if isinstance(func, ast.Attribute) and func.attr == "transpose" and not node.args:
            recv = func.value
            if (isinstance(recv, ast.Subscript) and _reads_mats(recv.value)) or getattr(recv, "id", None) in bound:
                found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, set())
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{fn}.{child.name}" if isinstance(node, ast.ClassDef) else child.name, set())
            else:
                visit(child, fn, bound)

    visit(tree, None, set())
    return found


# the transposes of arrow matrices that stay, each with its reason
_ARROW_TRANSPOSES_ALLOWED = {
    # the one place that computes a Rep's transposes from matrices given by rows
    ("modules", "Rep.__init__"),
    # the kernel is read off the rows of each map of the RepMap, which keeps
    # no transposes: a RepMap is not a module
    ("modules", "kernel_subrep"),
}


def test_arrow_matrices_are_transposed_only_where_a_rep_is_built():
    """A Rep keeps the transposes of its arrow matrices, so no function of
    the package transposes ``X.mats`` again, apart from the allowed ones;
    `Rep._of` builds the matrices from given transposes, and `dual` swaps
    the two."""
    found = {(name, fn) for name, tree in _trees().items() for fn, _ in _arrow_transposes(tree)}
    assert found == _ARROW_TRANSPOSES_ALLOWED
    probe = ast.parse(
        "def g(M):\n    return [m.transpose() for m in M.mats]\n"
        "class R:\n    def h(self):\n        return self.mats[0].transpose()\n"
        "def k(M, a):\n    for i, m in enumerate(M.mats):\n        m.transpose()\n"
        "    return [t.transpose() for t in M.transposes], M.transposes[a].transpose()"
    )
    assert _arrow_transposes(probe) == [("g", 2), ("R.h", 5), ("k", 8)]


def _is_extra(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_extra"


def _handle_cache_writes(tree) -> list[tuple[str, int]]:
    """(function, line) of each write into a handle cache: an assignment to
    ``X._extra[...]``, or a call ``X._extra.setdefault(...)`` or
    ``X._extra.update(...)``.  The function is the innermost one around the
    write, as ``Class.method`` for a method."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            flat = [t for tt in targets for t in (tt.elts if isinstance(tt, ast.Tuple) else [tt])]
            if any(isinstance(t, ast.Subscript) and _is_extra(t.value) for t in flat):
                found.append((fn, node.lineno))
        func = getattr(node, "func", None)
        if isinstance(func, ast.Attribute) and func.attr in ("setdefault", "update") and _is_extra(func.value):
            found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{fn}.{child.name}" if isinstance(node, ast.ClassDef) else child.name)
            else:
                visit(child, fn)

    visit(tree, None)
    return found


# the functions that cache on a handle, each with the route that reads the
# cache back; AlgebraHandle is never mutated after completion, so no entry
# goes stale
_HANDLE_CACHES_ALLOWED = {
    # every cover, Hom search and resolution step asks for the same
    # indecomposable projectives of one algebra again
    ("modules", "projective"),
    # pd_bounded asks, for each simple summand met at step i, whether S_u
    # returns within bound - i steps: the modules of one algebra, and the
    # pd and id checks of every vertex, meet the same simples again
    ("modules", "_simple_returns"),
    # bongartz reads the minimal relations once per vertex, and
    # eligible_vertices asks bongartz for every vertex
    ("homology", "minimal_relations"),
    # each level of verify_level and search_level, and the witness pairs,
    # read the syzygies of the regular bimodule resolved so far
    ("witness", "bimodule_syzygy"),
}


def test_handle_caches_are_read_back():
    """A cache on an algebra handle earns its place only when some route
    reads it back: no function of the package writes ``X._extra`` apart
    from the allowed ones.  A presented corner is new per call that builds
    it, so the corner modules eA and Ae keep no cache."""
    found = {(name, fn) for name, tree in _trees().items() for fn, _ in _handle_cache_writes(tree)}
    assert found == _HANDLE_CACHES_ALLOWED
    probe = ast.parse(
        "def g(A):\n    A._extra[k] = 1\n"
        "class R:\n    def h(self):\n        self.B._extra[0], x = 1, 2\n"
        "def k(A):\n    A._extra.setdefault(k, [])\n    y = A._extra[k]\n    A.extra[k] = 3\n"
    )
    assert _handle_cache_writes(probe) == [("g", 2), ("R.h", 5), ("k", 7)]


def test_matrix_has_no_dense_column_readout():
    """`Matrix` defines no dense column read-out or constructor: tests read
    columns as ``m.transpose().data`` and build by columns through
    `tests/oracles.py`."""
    (matrix,) = [
        node for node in _trees()["linalg"].body if isinstance(node, ast.ClassDef) and node.name == "Matrix"
    ]
    methods = {node.name for node in matrix.body if isinstance(node, ast.FunctionDef)}
    assert "transpose" in methods
    assert methods.isdisjoint({"column", "columns", "from_columns"})


_DOTTED = re.compile(r"`{1,2}([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`{1,2}")


def _docstring_names(tree) -> list[str]:
    """The dotted names in single or double backticks in the docstrings of tree."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            names += _DOTTED.findall(ast.get_docstring(node) or "")
    return names


def _module(stem: str):
    return importlib.import_module("qred" if stem == "__init__" else f"qred.{stem}")


def _resolves(module, dotted: str) -> bool:
    """Whether dotted is an attribute path from a name of module, a module of
    the package, a name of one, or an importable stdlib module."""
    head, *rest = dotted.split(".")
    package = [_module(p.stem) for p in sorted(SRC.glob("*.py"))]
    starts = [vars(m)[head] for m in [module, *package] if head in vars(m)]
    starts += [m for m in package if m.__name__ == f"qred.{head}"]
    if head in sys.stdlib_module_names:
        starts.append(importlib.import_module(head))
    for obj in starts:
        for part in rest:
            if not (hasattr(obj, part) or part in getattr(obj, "__annotations__", {})):
                break
            obj = getattr(obj, part, None)
        else:
            return True
    return False


def test_docstring_dotted_names_resolve():
    """A dotted name quoted in a docstring, such as `Matrix.row_times` or
    `fractions.Fraction`, still names an attribute that exists."""
    checked, unresolved = 0, []
    for name, tree in _trees().items():
        module = _module(name)
        for dotted in _docstring_names(tree):
            checked += 1
            if not _resolves(module, dotted):
                unresolved.append(f"{name}: {dotted}")
    assert unresolved == []
    assert checked >= 10
    linalg = _module("linalg")
    assert not _resolves(linalg, "Matrix.column") and not _resolves(linalg, "fractions.Fractions")
