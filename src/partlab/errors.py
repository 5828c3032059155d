"""Shared exception types, one class per failure a caller can act on, and the
checks of an int argument.

Everything this package raises on purpose is a PartlabError, so callers, the
CLI in particular, can tell these failures from bugs. tests/test_package.py
checks every raise, and that every class here is built elsewhere or is a base.

  bad argument        InvalidArgument (also a ValueError)
  broken invariant    NonIntegralDivision
  rewrite failure     AmbiguousRule, NoRuleApplies, CyclicReduction
  budget              BudgetExceeded

A size (an n, an upto, a count or a valuation) is an int, not a bool, of at
least 0; nonnegative(name, value) is the one place that rule is written, and
integer(name, value), its first half, checks an int that a rule or constraint
judges (n~, a root atom's fields, k). Other values raise InvalidArgument.
"""


class PartlabError(Exception):
    """Base class for all partlab errors."""


class InvalidArgument(PartlabError, ValueError):
    """An argument the function does not accept: outside its domain, such as
    a negative n, an n past the oracle's cap, a word not over 0/1 or an
    all-zero code, a sequence that is no (strict) partition, or a code
    outside the involution's B_j + B_{j-1}."""


def integer(name: str, value: int) -> int:
    """value, when it is an int (not a bool); else InvalidArgument."""
    if type(value) is bool or not isinstance(value, int):
        raise InvalidArgument(f"{name} must be an int, got {value!r}")
    return value


def nonnegative(name: str, value: int) -> int:
    """value, when it is an int (not a bool) of at least 0; else InvalidArgument."""
    if type(value) is not int:  # a plain int, the common case, skips the call
        integer(name, value)
    if value < 0:
        raise InvalidArgument(f"{name} must be nonnegative, got {value}")
    return value


class NonIntegralDivision(PartlabError):
    """An exact-division step produced a remainder; the recurrence is broken."""


class AmbiguousRule(PartlabError):
    """More than one rewrite rule applies to a ground atom."""


class NoRuleApplies(PartlabError):
    """No rewrite rule applies to a ground atom that must be reduced."""


class CyclicReduction(PartlabError):
    """A reduction revisits an atom under evaluation, or its graph has a cycle."""


class BudgetExceeded(PartlabError):
    """A rewrite chain or evaluation, reachable set or path listing outgrew its
    budget. budget.exceeded sets kind (chain, atom, vertex or path), variable,
    limit (the bound in force) and reached (the first count past it)."""
