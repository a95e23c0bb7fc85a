# src/hemiot holds what the pipelines run: every public top-level function
# and class is used by other code in the package or the benchmark. Code that
# only tests call belongs in tests/ (reference.py holds the references).
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _root(node):
    # the name an attribute chain a.b.c starts from, or None
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _package_names(imports):
    # the names that imports bind to the package or its modules: import
    # hemiot.x [as y], from hemiot import x, from . import x
    return {a.asname or a.name.split(".")[0] for n in imports for a in n.names
            if (isinstance(n, ast.Import)
                and a.name.split(".")[0] == "hemiot")
            or (isinstance(n, ast.ImportFrom)
                and n.module in (None, "hemiot"))}


def test_every_public_definition_has_a_caller():
    # a use of a name is an import of it, an attribute of that name read
    # off the package or one of its modules (module.name), or a load of it
    # in the module that defines it, outside the definition itself; a local
    # or a field elsewhere that shares the name is no use. The package's
    # __init__.py re-exports and does not count
    paths = sorted((ROOT / "src" / "hemiot").glob("*.py")) \
        + sorted((ROOT / "benchmark").glob("*.py"))
    defined, used = {}, set()
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imports = [n for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom))]
        bound = _package_names(imports)
        here = {node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        used |= {a.name for n in imports for a in n.names}
        for node in tree.body:
            names = {n.attr for n in ast.walk(node)
                     if isinstance(n, ast.Attribute) and _root(n) in bound}
            names |= {n.id for n in ast.walk(node)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load) and n.id in here}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and path.parent.name == "hemiot" \
                    and not node.name.startswith("_"):
                defined[node.name] = path.name
                names.discard(node.name)
            used |= names
    unused = set(defined) - used
    assert not unused, sorted(f"{defined[k]}: {k}" for k in unused)
