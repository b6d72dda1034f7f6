"""Serialize a compiled network to PRISM source text.

Output shape: the model-kind keyword, one ``const double`` per named
constant, then one ``module … endmodule`` block per role holding the
counter declaration, the role's own variables, and its commands. No
``system`` block is emitted: PRISM's default composition synchronizes
each module with the ones before it on the labels they share, which is the
composition :func:`chorprism.prism.derive_commands` gives the network.

Expressions are written by ``syntax.render``, the walk that also prints
source text, with PRISM's spelling of the operators (``&``, ``|``, ``!``).
In a state expression integer division becomes ``floor(a/b)``, since
PRISM's ``/`` is real division, whereas weight expressions keep ``/``
(weights divide exactly).
"""

from __future__ import annotations

from .prism import Network, PrismCommand
from .syntax import (
    FUNCTIONS,
    PREC,
    Assign,
    ChorProgram,
    Expr,
    VarDecl,
    gc_paused,
    render,
    render_value,
)


#: PRISM's spelling of each operator in a weight; PRISM binds its operators
#: in the order of :data:`PREC`
_WEIGHT = {
    **{op: op for op in PREC}, "or": "|", "and": "&", "not": "!", "neg": "-",
    **{f: f + "({},{})" for f in FUNCTIONS},
}
#: in a state expression, where ``/`` divides integers
_STATE = {**_WEIGHT, "/": "floor({}/{})"}


def render_expr(e: Expr, *, weight: bool = False) -> str:
    return render(e, _WEIGHT if weight else _STATE)


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
    ty = "bool" if d.is_bool else f"[{d.lo}..{d.hi}]"
    return f"{d.name} : {ty} init {render_value(d.init)};"


@gc_paused
def emit(net: Network, prog: ChorProgram) -> str:
    """Render the network as a complete PRISM model, deterministically."""
    lines = [prog.kind]
    if prog.constants:
        lines.append("")
        for name, value in prog.constants.items():
            lines.append(f"const double {name} = {render_value(value)};")
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

