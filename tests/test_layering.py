"""Only ``gf2`` moves matrices between int rows and dense arrays: every
other module builds and transforms them as int rows.  Under 0.1 s."""

import ast
from pathlib import Path

import pytest

import mmcodes

SRC = Path(mmcodes.__file__).parent
DENSE_EDGE = {"from_dense", "to_dense"}


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


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "gf2.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_gf2_touches_dense_arrays(path):
    assert dense_edge_uses(path) == []


def test_the_walk_sees_gf2s_own_uses():
    uses = dense_edge_uses(SRC / "gf2.py")
    assert {u.split(":")[0] for u in uses} == DENSE_EDGE
