"""Shared exception types.

Everything this package raises on purpose is a PartlabError, so callers, the
CLI in particular, can tell bad arguments (InvalidArgument, also a ValueError)
and broken invariants from bugs. tests/test_package.py checks every raise.
"""


class PartlabError(Exception):
    """Base class for all partlab errors."""


class InvalidArgument(PartlabError, ValueError):
    """An argument outside the function's domain, such as a negative n."""


class OracleLimitError(PartlabError):
    """Enumeration request beyond the practical desk limit (n > 80)."""


class InvalidPartition(PartlabError):
    """Sequence is not a valid (strict) partition in canonical form."""


class NonIntegralDivision(PartlabError):
    """An exact-division step produced a remainder; the recurrence is broken."""


class AmbiguousRule(PartlabError):
    """More than one rewrite rule applies to a ground atom."""


class NoRuleApplies(PartlabError):
    """No rewrite rule applies to a ground atom that must be reduced."""


class BudgetExceeded(PartlabError):
    """A rewrite chain or evaluation, reachable set or path listing outgrew its
    budget. budget.exceeded sets kind (chain, atom, vertex or path), variable,
    limit (the bound in force) and reached (the first count past it)."""


class CyclicReduction(PartlabError):
    """A reduction revisits an atom under evaluation, or its graph has a cycle."""


class InvalidCode(PartlabError):
    """Path code without any 1-bit where one is required."""


class NotInDomain(PartlabError):
    """Code lies outside the domain of the requested involution."""
