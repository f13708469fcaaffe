"""Only ``gf2`` moves matrices between int rows and dense arrays: every
other module builds, transforms and scores them as int rows, and uses
numpy only to draw random numbers.  Every private function has a caller in
``src``.  Only the engines that charge an enumeration name its charge, and
only ``koszul.build_code`` marks a code ``circulant``.  Under 0.1 s."""

import ast
from pathlib import Path

import pytest

import mmcodes

SRC = Path(mmcodes.__file__).parent
DENSE_EDGE = {"from_dense", "to_dense"}
# ``np.random...``
NUMPY_OUTSIDE_GF2 = {"random"}


def name_of(node) -> str | None:
    """The name of an attribute, name or import-alias node, else None."""
    return (node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name)
            else node.name if isinstance(node, ast.alias) else None)


def dense_edge_uses(path: Path) -> list[str]:
    """``name:line`` for each attribute, name or imported alias in the
    module that is ``from_dense`` or ``to_dense``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (name := name_of(node)) in DENSE_EDGE:
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
            if (name := name_of(node)) is not None:
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


def scoped_nodes(text: str):
    """Each node of the module ``text`` with the name of its innermost
    enclosing function (``<module>`` at module level)."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, child.name)
            else:
                yield child, scope
                yield from walk(child, scope)

    return walk(ast.parse(text), "<module>")


def charge_uses(sources: dict[str, str]) -> list[str]:
    """``module:function`` for each use of ``_enum_cost`` in ``sources``
    outside its own definition, by the innermost enclosing function."""
    return [f"{mod}:{scope}" for mod, text in sources.items()
            for node, scope in scoped_nodes(text)
            if name_of(node) == "_enum_cost" and scope != "_enum_cost"]


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


# ``koszul.MCssCode.circulant`` roots every search at block origins, so the
# one function that builds codes from circulant blocks sets it.
MARK = "circulant"


def mark_setters(sources: dict[str, str]) -> list[str]:
    """``module:function`` for each ``setattr`` or ``object.__setattr__``
    call naming the attribute ``circulant``, and each store to an attribute
    of that name, in ``sources``, by the innermost enclosing function."""
    out = []
    for mod, text in sources.items():
        for node, scope in scoped_nodes(text):
            sets = (isinstance(node, ast.Call)
                    and name_of(node.func) in ("setattr", "__setattr__")
                    and any(isinstance(a, ast.Constant) and a.value == MARK
                            for a in node.args[1:2]))
            stores = (isinstance(node, ast.Attribute) and node.attr == MARK
                      and isinstance(node.ctx, ast.Store))
            if sets or stores:
                out.append(f"{mod}:{scope}")
    return out


def test_only_build_code_marks_a_code():
    """A code marked anywhere else would be rooted at block origins without
    the construction that makes them enough."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert mark_setters(sources) == ["koszul:build_code"]


def test_the_mark_walk_sees_each_setter():
    sources = {"a": "def build_code(c):\n    object.__setattr__(c, 'circulant', True)\n\n"
                    "def f(c):\n    setattr(c, 'circulant', True)\n"
                    "    setattr(c, 'other', c.circulant)\n\n"
                    "def g(c):\n    c.circulant = True\n"
                    "    c.other, c.circulant = 1, 2\n\n"
                    "c.circulant = False\n"}
    assert mark_setters(sources) == ["a:build_code", "a:f", "a:g", "a:g", "a:<module>"]
