"""Syntax and IR nodes are values: equal and hashed by their fields, and never
assigned after construction. The nodes are slotted, not frozen, so the last
part is kept by a scan of the source rather than by the runtime."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import pathlib

import pytest

import chorprism
from chorprism import parser, prism, syntax
from chorprism.parser import AllSynch, AllSynchEntry, ForeachAssign, RoleFamily, VarFamily
from chorprism.prism import PrismCommand, PrismModule
from chorprism.syntax import (
    Assign,
    Binary,
    Branch,
    CallTerm,
    Conditional,
    Inact,
    Interaction,
    Lit,
    Unary,
    Var,
    VarDecl,
)

_x, _one = Var("x"), Lit(1)
_set = Assign("x", _one)
_decl = VarDecl("x", "p", 0, 0, 3)
_cmd = PrismCommand("a", Binary("=", _x, _one), ((_one, (_set,)),))
_entry = AllSynchEntry("p", Lit(True), _one, (_set,))

#: one instance of every node class
NODES = [
    _one,
    _x,
    Unary("neg", _x),
    Binary("+", _x, _one),
    _set,
    Branch(_one, (_set,), Inact(), "go"),
    Interaction("p", ("q",), (Branch(_one, (_set,), CallTerm("M")),), "m"),
    Conditional(Binary("<", _x, _one), "p", Inact(), CallTerm("M")),
    CallTerm("M"),
    Inact(),
    _decl,
    _cmd,
    PrismModule("p", (_decl,), (_cmd,)),
    ForeachAssign("k", "<", 3, "s[k]", Lit(0)),
    _entry,
    AllSynch((_entry,), Inact()),
    RoleFamily("c", 1, 3),
    VarFamily("s", 1, 3, "c", 0, 1, False, 0),
]


def _node_classes() -> set[type]:
    """The hashable dataclasses of the modules that hold syntax and IR."""
    return {
        c for m in (syntax, prism, parser) for _, c in inspect.getmembers(m, inspect.isclass)
        if c.__module__ == m.__name__ and dataclasses.is_dataclass(c) and c.__hash__ is not None
    }


def _fields(node) -> tuple:
    return tuple(getattr(node, f.name) for f in dataclasses.fields(node))


def test_samples_cover_every_node_class():
    assert {type(n) for n in NODES} == _node_classes()


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_equal_fields_make_equal_nodes(node):
    twin = type(node)(*_fields(node))
    assert twin is not node
    assert twin == node
    assert hash(twin) == hash(node) == hash(_fields(node))
    assert dataclasses.replace(node) == node


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_nodes_take_no_undeclared_attribute(node):
    with pytest.raises(AttributeError):
        node.extra = 1
    assert not hasattr(node, "__dict__")


def test_node_identity_includes_the_class():
    assert Var("x") != CallTerm("x")
    assert len({Var("x"), CallTerm("x"), Var("x")}) == 2


def test_replace_builds_a_new_node():
    node = Binary("+", _x, _one)
    assert dataclasses.replace(node, op="-") == Binary("-", _x, _one)
    assert node.op == "+"


def test_repr_shows_the_fields():
    assert repr(Binary("+", Var("x"), Lit(1))) == \
        "Binary(op='+', left=Var(name='x'), right=Lit(value=1))"
    assert repr(Inact()) == "Inact()"


def test_match_args_follow_the_fields():
    match Binary("+", _x, _one):
        case Binary(op, Var(name), Lit(value)):
            assert (op, name, value) == ("+", "x", 1)
        case _:
            pytest.fail("positional pattern did not match")


def _field_writes(tree: ast.AST, fields: set[str]):
    """Yield each ``<expr>.<field> = / += / del`` whose ``<expr>`` is not ``self``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, (ast.Store, ast.Del)) \
                        and sub.attr in fields \
                        and not (isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                    yield sub


def test_no_module_assigns_a_node_field():
    fields = {f.name for c in _node_classes() for f in dataclasses.fields(c)}
    found = []
    for path in sorted(pathlib.Path(chorprism.__file__).parent.glob("*.py")):
        for sub in _field_writes(ast.parse(path.read_text(encoding="utf-8")), fields):
            found.append(f"{path.name}:{sub.lineno}: {ast.unparse(sub)}")
    assert found == []


def test_field_scan_sees_every_form_of_write():
    src = "t.label = 1\nt.cont += 1\ndel t.guard\na, t.op = 1, 2\nt.x: int = 0\n" \
          "self.label = 1\nt.other = 1\nt.label.x = 1\n"
    found = [ast.unparse(s) for s in _field_writes(ast.parse(src), {"label", "cont", "guard", "op", "x"})]
    assert found == ["t.label", "t.cont", "t.guard", "t.op", "t.x", "t.label.x"]
