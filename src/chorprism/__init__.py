"""Compile probabilistic choreographies to PRISM models and machine-check
that the compiled network behaves like the source program."""

from .analysis import (
    check_annotations,
    check_well_formed,
    require_annotated,
    require_well_formed,
    s_conn,
)
from .chain import MarkovChain
from .emit import emit
from .equivalence import bisimilar, collapse, jump_chain, verify_projection
from .errors import (
    AnnotationError,
    ChorError,
    EvalError,
    NotStronglyConnected,
    ParseError,
    RangeViolation,
    StateBudgetExceeded,
    TypeMismatch,
    UnguardedRecursion,
    WellFormednessError,
)
from .parser import parse, pretty_print
from .prism import (
    PrismCommand,
    PrismModule,
    alphabet,
    build_network_chain,
    derive_commands,
)
from .projection import ProjectionContext, fuse_resets, nodes, proj_update, project
from .semantics import build_chain, eval_expr, eval_weight
from .sugar import auto_annotate, expand_indices, load_program
from .syntax import ChorProgram

__version__ = "0.1.0"

__all__ = [
    "AnnotationError",
    "ChorError",
    "ChorProgram",
    "EvalError",
    "MarkovChain",
    "NotStronglyConnected",
    "ParseError",
    "PrismCommand",
    "PrismModule",
    "ProjectionContext",
    "RangeViolation",
    "StateBudgetExceeded",
    "TypeMismatch",
    "UnguardedRecursion",
    "WellFormednessError",
    "alphabet",
    "auto_annotate",
    "bisimilar",
    "build_chain",
    "build_network_chain",
    "check_annotations",
    "check_well_formed",
    "collapse",
    "derive_commands",
    "emit",
    "eval_expr",
    "eval_weight",
    "expand_indices",
    "fuse_resets",
    "jump_chain",
    "load_program",
    "nodes",
    "parse",
    "pretty_print",
    "proj_update",
    "project",
    "require_annotated",
    "require_well_formed",
    "s_conn",
    "verify_projection",
]
