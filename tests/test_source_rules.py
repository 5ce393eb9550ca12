"""Static rules on the package source."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# functions that tests alone may reach, each with the reason it stays
_TEST_ONLY = {
    "radial_gradient": "acceptance criterion 05 checks the factored gradient through it",
    "greens_check": "acceptance criterion 09 checks Green's identity through it",
    "euler_profile": "an acceptance criterion test reads the Euler profile through it",
    "funk_hecke_apply": "the Grassmann-valued Funk-Hecke theorem, due as a verify-all row",
    "bochner_transform": "the Grassmann-valued Bochner relation, due as a verify-all row",
}


def test_every_function_has_a_product_caller():
    """Each function or method of the package (dunders aside) is named
    somewhere in src/, bench/ or scripts/ besides its own definitions, or is
    on the list above; a listed name that gains a caller leaves the list."""
    source = "\n".join(path.read_text() for top in ("src", "bench", "scripts")
                       for path in sorted((ROOT / top).rglob("*.py")))
    defs = Counter(
        node.name
        for path in sorted((ROOT / "src" / "superharm").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    uncalled = {
        name for name, count in defs.items()
        if not (name.startswith("__") and name.endswith("__"))
        and len(re.findall(rf"\b{name}\b", source)) <= count
    }
    assert sorted(uncalled - set(_TEST_ONLY)) == []
    assert sorted(set(_TEST_ONLY) - uncalled) == []
