"""Exception hierarchy shared by every stage of the toolchain.

Every error that a user can trigger from a source file derives from
ChorError so the CLI can map it onto an exit code in one place.
"""

from __future__ import annotations


class ChorError(Exception):
    """Base class for all toolchain errors."""

    exit_code = 1  # semantic failure unless a subclass says otherwise


class ParseError(ChorError):
    """Lexical or syntactic error in a source file."""

    exit_code = 2

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class WellFormednessError(ChorError):
    """A structurally valid program that violates a static rule."""


class AnnotationError(WellFormednessError):
    """Missing or duplicated interaction annotation."""


class UnguardedRecursion(WellFormednessError):
    """A cycle of calls, or of calls and conditionals, with no interaction on it."""


class NotStronglyConnected(WellFormednessError):
    """The program falls outside the fragment the compiler certifies.

    Compilation is still possible (pass ``require_sconn=False``) but the
    resulting network may deadlock where the source program would not.
    """


class IndexOutOfFamily(ChorError):
    """A literal family index falls outside the declared range."""

    exit_code = 2


class NonStaticIndex(ChorError):
    """A foreach bound cannot be resolved at expansion time."""

    exit_code = 2


class EvalError(ChorError):
    """Expression evaluation failed (unknown name, type mismatch...)."""


class TypeMismatch(EvalError):
    """An operator or assignment was applied to the wrong kind of value."""


class RangeViolation(ChorError):
    """An update or an initial override drove a variable outside its
    declared range; ``what`` names which, as the message's leading phrase."""

    def __init__(self, var: str, value, lo, hi, what: str):
        self.var = var
        self.value = value
        super().__init__(f"{what} assigns {value} to {var}, outside [{lo}..{hi}]")


class StateBudgetExceeded(ChorError):
    """Chain construction hit the --max-states budget."""

    exit_code = 3

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"state space exceeds budget of {budget} states")


class StutterGroupTooLarge(StateBudgetExceeded):
    """Solving a stutter cycle of the jump chain, or adding up rows along
    stutter moves, would add more entries or multiply-adds than it allows;
    ``bound`` names the limit, with ``{}`` where its value goes."""

    def __init__(self, size: int, limit: int, bound: str):
        self.budget = limit
        self.size = size
        ChorError.__init__(
            self,
            f"a group of {size} states with equal observations exceeds " + bound.format(limit),
        )
