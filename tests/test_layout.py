# src/hemiot holds what the pipelines run: every public top-level function
# and class is used by other code in the package or the benchmark. Code that
# only tests call belongs in tests/ (reference.py holds the references).
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names kept without a caller, and why
ALLOWED = {
    "metric_in_chart": "criterion 4 imports it",
    "great_circle_deviation": "criterion 4 imports it",
    "gauss_map": "the README's user API",
    "cone_memberships": "a definition of the paper",
    "cost": "a definition of the paper",
    "chart": "a definition of the paper",
}


def test_every_public_definition_has_a_caller():
    # a use is an ast.Name or an imported name, outside the definition
    # itself; the package's __init__.py re-exports and does not count
    paths = sorted((ROOT / "src" / "hemiot").glob("*.py")) \
        + sorted((ROOT / "benchmark").glob("*.py"))
    defined, used = {}, set()
    for path in paths:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {a.name for n in ast.walk(node)
                      if isinstance(n, ast.ImportFrom) for a in n.names}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and path.parent.name == "hemiot" \
                    and not node.name.startswith("_"):
                defined[node.name] = path.name
                names.discard(node.name)
            used |= names
    assert set(ALLOWED) <= set(defined)
    unused = set(defined) - used - set(ALLOWED)
    assert not unused, sorted(f"{defined[k]}: {k}" for k in unused)
