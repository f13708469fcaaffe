"""Only ``gf2`` moves matrices between int rows and dense arrays: every
other module builds, transforms and scores them as int rows, and uses
numpy only to draw random numbers.  Every private function has a caller in
``src``.  Only the engines that charge an enumeration name its charge.
Under 0.1 s."""

import ast
from pathlib import Path

import pytest

import mmcodes

SRC = Path(mmcodes.__file__).parent
DENSE_EDGE = {"from_dense", "to_dense"}
# ``np.random...``
NUMPY_OUTSIDE_GF2 = {"random"}


def dense_edge_uses(path: Path) -> list[str]:
    """``name:line`` for each attribute, name or imported alias in the
    module that is ``from_dense`` or ``to_dense``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name in DENSE_EDGE:
            out.append(f"{name}:{node.lineno}")
    return out


def numpy_uses(path: Path) -> list[tuple[str, int]]:
    """(attribute, line) for each attribute read off numpy in the module,
    and ("import", line) for each ``from numpy import``."""
    tree = ast.parse(path.read_text())
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "numpy"}
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            out.append((node.attr, node.lineno))
        elif (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("numpy")):
            out.append(("import", node.lineno))
    return out


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "gf2.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_gf2_touches_dense_arrays(path):
    assert dense_edge_uses(path) == []


def test_the_walk_sees_gf2s_own_uses():
    uses = dense_edge_uses(SRC / "gf2.py")
    assert {u.split(":")[0] for u in uses} == DENSE_EDGE


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_only_draws_random_numbers_outside_gf2(path):
    assert [u for u in numpy_uses(path) if u[0] not in NUMPY_OUTSIDE_GF2] == []


def test_the_numpy_walk_sees_gf2s_own_uses():
    uses = {attr for attr, _ in numpy_uses(SRC / "gf2.py")}
    assert {"packbits", "unpackbits", "setdiff1d"} <= uses


def unused_private_functions(sources: dict[str, str]) -> list[str]:
    """``module:function`` for each module- or class-level function whose
    name has one leading underscore and that no code in ``sources`` (module
    name -> text) names outside its own body, by name, attribute or
    import alias."""
    defs, uses = [], {}
    for mod, text in sources.items():
        tree = ast.parse(text)
        for scope in [tree] + [c for c in tree.body if isinstance(c, ast.ClassDef)]:
            defs += [(mod, f) for f in scope.body
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and f.name.startswith("_") and not f.name.startswith("__")]
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else node.name if isinstance(node, ast.alias) else None)
            if name is not None:
                uses.setdefault(name, []).append((mod, node.lineno))
    return [f"{mod}:{f.name}" for mod, f in defs
            if all(m == mod and f.lineno <= line <= f.end_lineno
                   for m, line in uses.get(f.name, []))]


def test_every_private_function_has_a_caller_in_src():
    """A private helper that only tests call is a layer no workload uses:
    tests call the public function that does the same job."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unused_private_functions(sources) == []


def test_the_caller_walk_sees_an_unused_helper():
    sources = {
        "a": "def _used():\n    return _used()\n\n"
             "def _called():\n    pass\n\n"
             "class C:\n    def _method(self):\n        pass\n\n"
             "    def __init__(self):\n        self.x = 0\n",
        "b": "from a import _called\n",
    }
    assert unused_private_functions(sources) == ["a:_used", "a:_method"]


# The functions that may name ``codeparams._enum_cost``: the exhaustive
# search, charged before it starts, and the confinement table, capped.
CHARGED = {"low_weight_kernel_vectors", "confinement_profile"}


def charge_uses(sources: dict[str, str]) -> list[str]:
    """``module:function`` for each use of ``_enum_cost`` in ``sources``
    outside its own definition, by the innermost enclosing function
    (``<module>`` at module level)."""
    out = []
    for mod, text in sources.items():
        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(child, child.name)
                    continue
                name = (child.attr if isinstance(child, ast.Attribute)
                        else child.id if isinstance(child, ast.Name)
                        else child.name if isinstance(child, ast.alias) else None)
                if name == "_enum_cost" and scope != "_enum_cost":
                    out.append(f"{mod}:{scope}")
                walk(child, scope)

        walk(ast.parse(text), "<module>")
    return out


def test_only_the_charged_engines_name_the_charge():
    """Deepening stops where ``low_weight_kernel_vectors`` refuses a level,
    so no caller works out the charge for itself."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert {u.split(":")[1] for u in charge_uses(sources)} <= CHARGED


def test_the_charge_walk_sees_a_caller():
    sources = {"a": "def _enum_cost(n):\n    return _enum_cost(n - 1)\n\n"
                    "def f(budget):\n    def g():\n        return a._enum_cost(3)\n"
                    "    return g\n\nX = _enum_cost(2)\n"}
    assert charge_uses(sources) == ["a:g", "a:<module>"]
