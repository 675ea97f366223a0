"""Checks on the library source: no private module-level name that
nothing in ``src/causalorder`` refers to, no import a module never uses,
each size cap read where it is enforced, in exactly one function,
matrix products only in the one product kernel, member-pair grids only
in the one walk, the derived-data store written in one accessor, a
measure table read by key in one method, and each public name declared
once, in its module's ``__all__``.

The package ``__init__`` is exempt from the import check, because its
imports are the public namespace.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import causalorder
from causalorder import config

SRC = Path(causalorder.__file__).parent


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Every identifier the tree reads: bare names, attributes and the
    names it imports from other modules."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level names that start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _load_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imported_names(tree: ast.Module) -> list[str]:
    """The names that the module's imports bind, ``__future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def test_every_private_module_name_is_referenced():
    modules = _modules()
    used = set().union(*(_used_names(tree) for tree in modules.values()))
    dead = [f"{name[:-3]}.{d}" for name, tree in modules.items()
            for d in _private_definitions(tree) if d not in used]
    assert dead == []


def test_every_import_is_used():
    unused = [f"{name[:-3]}: {imp}" for name, tree in _modules().items()
              if name != "__init__.py"
              for imp in _imported_names(tree) if imp not in _load_names(tree)]
    assert unused == []


def _enclosing(key) -> dict[str, set[str]]:
    """For each key that ``key(node)`` returns for some node of the
    library, the functions holding such a node: module and innermost
    enclosing def, or <module> outside any."""
    found: dict[str, set[str]] = {}

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition('.')[0]}.{node.name}"
        elif (k := key(node)) is not None:
            found.setdefault(k, set()).add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for name, tree in _modules().items():
        visit(tree, f"{name[:-3]}.<module>")
    return found


def _cap_read(node: ast.AST) -> str | None:
    """The name of the ``config.*_CAP`` that ``node`` reads, if any."""
    if (isinstance(node, ast.Attribute) and node.attr.endswith("_CAP")
            and isinstance(node.value, ast.Name) and node.value.id == "config"):
        return node.attr
    return None


def test_each_cap_is_read_in_exactly_one_function():
    caps = sorted(n for n in vars(config) if n.endswith("_CAP"))
    readers = _enclosing(_cap_read)
    assert caps and set(readers) <= set(caps), readers
    for cap in caps:
        where = sorted(readers.get(cap, ()))
        assert len(where) == 1 and not where[0].endswith(".<module>"), (cap, where)


_NUMPY_PRODUCTS = {"matmul", "dot", "tensordot", "inner"}


def _matmul(node: ast.AST) -> str | None:
    """The matrix product that ``node`` makes, if any: ``@`` or ``@=``,
    a call of np.matmul, np.dot, np.tensordot or np.inner, or a ``.dot(``
    method call on anything."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        attr, owner = node.func.attr, node.func.value
        if attr in _NUMPY_PRODUCTS and isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
            return f"{owner.id}.{attr}"
        if attr == "dot":
            return ".dot("
    return None


def test_matrix_products_only_in_the_kernel():
    """``@`` and ``@=`` appear only in order._compose, the one boolean
    product kernel, and no numpy product function or ``.dot(`` method is
    called anywhere, so no second product path grows beside it: counting
    stays in int64 einsum and bincount."""
    assert _enclosing(_matmul) == {"@": {"order._compose"}}


def _pair_grid(node: ast.AST) -> str | None:
    """The member-pair grid that ``node`` builds, if any: a call of
    ``triu_indices`` or ``tril_indices``, or ``fam[..., None]``, a column
    of a family array that broadcasts against the family."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in (
            "triu_indices", "tril_indices"):
        return node.func.attr
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "fam"
            and isinstance(node.slice, ast.Tuple) and isinstance(node.slice.elts[-1], ast.Constant)
            and node.slice.elts[-1].value is None):
        return "fam[..., None]"
    return None


def test_member_pair_grids_only_in_the_walk():
    """algebra._member_pairs is the one builder of a grid of member
    pairs: it walks the f x f grid in blocks of rows, and the union laws
    and both measure scans take their pairs from it, so none of them
    builds an f x f or f(f+1)/2 array of its own."""
    assert _enclosing(_pair_grid) == {"fam[..., None]": {"algebra._member_pairs"}}


def _store_write(node: ast.AST) -> str | None:
    """How ``node`` writes a ``_derived`` store, if it does: binding the
    attribute, assigning or deleting an entry, or calling a mutating dict
    method on it."""
    targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
               else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
    for t in targets:
        if isinstance(t, ast.Attribute) and t.attr == "_derived":
            return "_derived ="
        if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute) and t.value.attr == "_derived":
            return "_derived[...] ="
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "_derived"
            and node.func.attr in ("__setitem__", "setdefault", "update", "pop", "popitem", "clear")):
        return f"_derived.{node.func.attr}("
    return None


def test_store_entries_made_in_one_accessor():
    """order._stored makes every entry of Causality._derived.  The store
    is bound in Causality.__init__ with the cover, and reverse_structure
    writes the reverse and its weak back-reference; no other code writes."""
    assert _enclosing(_store_write) == {
        "_derived =": {"order.__init__"},
        "_derived[...] =": {"order._stored", "order.reverse_structure"},
    }


def _table_read(node: ast.AST) -> str | None:
    """How ``node`` reads a ``.table`` attribute by key, if it does: a
    subscript, or an ``in`` or ``not in`` test."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) and node.value.attr == "table":
        return "table[...]"
    if (isinstance(node, ast.Compare) and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
            and any(isinstance(x, ast.Attribute) and x.attr == "table" for x in node.comparators)):
        return "in .table"
    return None


def test_measure_tables_read_in_one_method():
    """CausalMeasure._sigma is the one reader of a measure table by key,
    so every value read raises MissingValue alike, and membership of the
    family is never read off the table's keys."""
    assert _enclosing(_table_read) == {"table[...]": {"measure._sigma"}}


def test_public_names_declared_once():
    """The package ``__init__`` star-imports modules and lists no name;
    each of those modules declares its public names in ``__all__``, no
    two lists share a name, and together they are the package's public
    namespace."""
    init = _modules()["__init__.py"]
    stars = [node.module for node in init.body if isinstance(node, ast.ImportFrom)
             and [a.name for a in node.names] == ["*"]]
    assert not any(isinstance(node, (ast.List, ast.Tuple, ast.Set)) for node in ast.walk(init))
    assert len(stars) == sum(isinstance(node, (ast.Import, ast.ImportFrom)) for node in init.body)
    lists = [importlib.import_module(f"causalorder.{name}").__all__ for name in stars]
    names = [name for names in lists for name in names]
    assert len(names) == len(set(names))
    public = {name for name, value in vars(causalorder).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)
