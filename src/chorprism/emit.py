"""Serialize a compiled network to PRISM source text.

Output shape: the model-kind keyword, one ``const double`` per named
constant, then one ``module … endmodule`` block per role holding the
counter declaration, the role's own variables, and its commands. No
``system`` block is emitted: PRISM's default composition synchronizes
each module with the ones before it on the labels they share, which is the
composition :func:`chorprism.prism.derive_commands` gives the network.

State expressions use PRISM's operators (``&``, ``|``, ``!``); integer
division becomes ``floor(a/b)`` since PRISM's ``/`` is real division,
whereas weight expressions keep ``/`` (weights divide exactly).
"""

from __future__ import annotations

from .prism import Network, PrismCommand
from .syntax import FUNCTIONS, PREC, Assign, ChorProgram, Expr, Lit, Unary, Var, VarDecl


#: PRISM's spelling of the operators whose source spelling differs; PRISM
#: binds its operators in the order of :data:`PREC`
_OPS = {"or": "|", "and": "&", "not": "!", "neg": "-"}


def _num(v) -> str:
    if isinstance(v, int):
        return str(v)
    if v.is_integer():
        return str(int(v))
    return f"{v:.17g}"  # 17 significant digits round-trip every double


def render_expr(e: Expr, *, weight: bool = False, parent_prec: int = 0) -> str:
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return _num(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        p = PREC[e.op]
        s = _OPS[e.op] + render_expr(e.operand, weight=weight, parent_prec=p)
        return f"({s})" if p < parent_prec else s
    if e.op in FUNCTIONS:
        left = render_expr(e.left, weight=weight)
        right = render_expr(e.right, weight=weight)
        return f"{e.op}({left},{right})"
    if e.op == "/" and not weight:
        left = render_expr(e.left)
        right = render_expr(e.right)
        return f"floor({left}/{right})"
    op = _OPS.get(e.op, e.op)
    p = PREC[e.op]
    left_prec = p + 1 if p == PREC["="] else p  # comparisons do not chain
    left = render_expr(e.left, weight=weight, parent_prec=left_prec)
    right = render_expr(e.right, weight=weight, parent_prec=p + 1)
    s = f"{left}{op}{right}"
    return f"({s})" if p < parent_prec else s


def render_update(update: tuple[Assign, ...]) -> str:
    if not update:
        return "true"
    return "&".join(f"({a.var}'={render_expr(a.expr)})" for a in update)


def render_command(c: PrismCommand) -> str:
    alts = " + ".join(
        f"{render_expr(w, weight=True)} : {render_update(u)}"
        for w, u in c.alts
    )
    return f"[{c.label or ''}] ({render_expr(c.guard)}) -> {alts};"


def _render_decl(d: VarDecl) -> str:
    if d.is_bool:
        return f"{d.name} : bool init {'true' if d.init else 'false'};"
    return f"{d.name} : [{d.lo}..{d.hi}] init {_num(d.init)};"


def emit(net: Network, prog: ChorProgram) -> str:
    """Render the network as a complete PRISM model, deterministically."""
    lines = [prog.kind]
    if prog.constants:
        lines.append("")
        for name, value in prog.constants.items():
            lines.append(f"const double {name} = {_num(value)};")
    for m in net:
        lines.append("")
        lines.append(f"module {m.name}")
        for d in m.var_decls:
            lines.append("  " + _render_decl(d))
        for c in m.commands:
            lines.append("  " + render_command(c))
        lines.append("endmodule")
    lines.append("")
    return "\n".join(lines)

