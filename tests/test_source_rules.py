"""Static rules on the package source."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# functions that tests alone may reach, each with the reason it stays
_TEST_ONLY = {
    "radial.radial_gradient": "acceptance criterion 05 checks the factored gradient through it",
    "integrate.greens_check": "acceptance criterion 09 checks Green's identity through it",
    "radial.euler_profile": "an acceptance criterion test reads the Euler profile through it",
    "zonal.funk_hecke_apply": "the Grassmann-valued Funk-Hecke theorem, due as a verify-all row",
    "zonal.bochner_transform": "the Grassmann-valued Bochner relation, due as a verify-all row",
    "scalar.bessel_j": "acceptance criterion 11 reads J_nu through it",
    "integrate.integrate_superspace": "README documents it as the full-superspace Gaussian integral",
}


def _functions(node, prefix, in_class=False):
    """(qualified name, definition, is method) of every function below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child, in_class
            yield from _functions(child, name, isinstance(child, ast.ClassDef))
        else:
            yield from _functions(child, prefix, in_class)


def uncalled(sources, package):
    """Qualified names of the functions and methods (dunders aside) defined in
    the ``package`` files of ``sources`` ({path: text}) that no code in
    ``sources`` references from outside their own body: a function counts as
    called through a name or an attribute, a method through an attribute only.
    Docstrings, comments and imports hold no references."""
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    refs = {}  # name -> [(path, line, is attribute)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno, True))
    out = set()
    for path in package:
        for qual, node, method in _functions(trees[path], Path(path).stem):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any((attr or not method) and not (where == path and node.lineno <= line <= node.end_lineno)
                       for where, line, attr in refs.get(node.name, ())):
                out.add(qual)
    return out


def test_every_function_has_a_product_caller():
    """Each function or method of the package is referenced from src/, bench/
    or scripts/ outside its own body, or is on the list above; a listed name
    that gains a caller leaves the list."""
    sources = {str(path): path.read_text() for top in ("src", "bench", "scripts")
               for path in sorted((ROOT / top).rglob("*.py"))}
    package = [str(path) for path in sorted((ROOT / "src" / "superharm").glob("*.py"))]
    found = uncalled(sources, package)
    assert sorted(found - set(_TEST_ONLY)) == []
    assert sorted(set(_TEST_ONLY) - found) == []


def test_guard_sees_through_recursion_docstrings_and_locals():
    source = '''
def countdown(k):
    """Calls itself only; ``named_in_docstring`` is text, not a call."""
    return countdown(k - 1) if k else 0


def named_in_docstring():
    return 1


def used():
    return 2


class Box:
    def size(self):
        return used()


def caller():
    size = 3  # a local variable is no call of Box.size
    return size
'''
    found = uncalled({"pkg.py": source, "other.py": "caller()\n"}, ["pkg.py"])
    assert found == {"pkg.countdown", "pkg.named_in_docstring", "pkg.Box.size"}
