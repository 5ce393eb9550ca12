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

# parameters with defaults that no product call passes, each with the reason it stays
_UNPASSED = {
    "schrodinger.solve_numeric(e_window)": "acceptance criterion 12 reads it",
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


def _defaulted(node):
    """{name: positional index, or None when keyword-only} of the parameters
    of a definition that have defaults."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {a.arg: i for i, a in enumerate(positional) if i >= first}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
    return out


def _passes(call, name, index):
    """Whether ``call`` passes the parameter ``name`` by keyword or at the
    positional ``index``; a ``*args`` or ``**kwargs`` counts as passing."""
    return (any(k.arg in (name, None) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (index is not None and len(call.args) > index))


def unpassed(sources, package):
    """``qualified name(parameter)`` for each parameter with a default, on a
    function or method of the ``package`` files of ``sources``, that no call
    in ``sources`` passes from outside the function's own body.  Calls are
    matched by name, as in ``uncalled``: a function through a name or an
    attribute, a method through an attribute only, where ``self`` or ``cls``
    takes the first position (static methods aside).  Constructors, which
    validate outside input, and the ``copy``/``copies`` layout parameters are
    exempt."""
    trees = {path: ast.parse(text, path) for path, text in sources.items()}
    calls = {}  # name -> [(path, call, is attribute)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                attr = isinstance(node.func, ast.Attribute)
                calls.setdefault(node.func.attr if attr else node.func.id, []).append((path, node, attr))
    out = set()
    for path in package:
        for qual, node, method in _functions(trees[path], Path(path).stem):
            if node.name == "__init__":
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
            shift = int(method and not static)
            outside = [call for where, call, attr in calls.get(node.name, ())
                       if (attr or not method)
                       and not (where == path and node.lineno <= call.lineno <= node.end_lineno)]
            for name, index in _defaulted(node).items():
                if name in ("copy", "copies"):
                    continue
                at = None if index is None else index - shift
                if not any(_passes(call, name, at) for call in outside):
                    out.add(f"{qual}({name})")
    return out


def _product_sources():
    sources = {str(path): path.read_text() for top in ("src", "bench", "scripts")
               for path in sorted((ROOT / top).rglob("*.py"))}
    package = [str(path) for path in sorted((ROOT / "src" / "superharm").glob("*.py"))]
    return sources, package


def test_every_function_has_a_product_caller():
    """Each function or method of the package is referenced from src/, bench/
    or scripts/ outside its own body, or is on the list above; a listed name
    that gains a caller leaves the list."""
    found = uncalled(*_product_sources())
    assert sorted(found - set(_TEST_ONLY)) == []
    assert sorted(set(_TEST_ONLY) - found) == []


def test_every_default_is_passed_by_a_product_call():
    """Each parameter with a default, on a function or method of the package,
    is passed by some call in src/, bench/ or scripts/ outside the function's
    own body, or is on the list above; a listed parameter that gains a
    caller leaves the list."""
    found = unpassed(*_product_sources())
    assert sorted(found - set(_UNPASSED)) == []
    assert sorted(set(_UNPASSED) - found) == []


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


def test_parameter_guard_sees_recursion_keywords_positions_and_methods():
    source = '''
def countdown(k, step=1):
    """Sets ``step`` only when it calls itself."""
    return countdown(k - step, step=step) if k > 0 else 0


def scaled(x, factor=2):
    return x * factor


def shifted(x, offset=0):
    return x + offset


class Box:
    def resize(self, width, height=1):
        return width * height

    def pad(self, width, margin=0):
        return width + margin
'''
    other = "scaled(1, factor=3)\nshifted(1, 5)\nBox().resize(2, 4)\nBox().pad(2)\n"
    found = unpassed({"pkg.py": source, "other.py": other}, ["pkg.py"])
    # Box.pad's one argument fills width: self takes the first position
    assert found == {"pkg.countdown(step)", "pkg.Box.pad(margin)"}
