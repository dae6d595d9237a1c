"""Semantic exception hierarchy, and the one check of a count and of a positive number.

Public functions raise these instead of bare ValueError so callers (and the
CLI, which maps config/structural failures to exit code 2) can tell apart
bad wiring from violated mathematical hypotheses.  Every layer tests its
counts with :func:`check_count` and its positive numbers with :func:`check_positive`.
"""

import math
import numbers


class TcbsdeError(Exception):
    """Base error for the package."""


class StructuralError(TcbsdeError):
    """Objects are wired together wrongly: grid mismatch, range exceedance."""


class InvariantError(TcbsdeError):
    """A declared invariant of a domain object does not hold."""


class DomainError(TcbsdeError):
    """Evaluation requested outside the domain of a map."""


class PreconditionError(TcbsdeError):
    """An operation's stated precondition is violated."""


class UnsupportedError(TcbsdeError):
    """Requested feature is deliberately out of scope."""


class SchemeError(TcbsdeError):
    """Numerical scheme rejected the problem (contraction guard, divergence)."""


class ConfigError(TcbsdeError):
    """Experiment configuration cannot be resolved."""


def check_count(name: str, value, least: int = 1, error: type = PreconditionError) -> int:
    """``value`` as an ``int`` if it is an integer, not a ``bool``, of at least ``least``; else ``error``."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return int(value)
    kind = {0: "a non-negative integer", 1: "a positive integer"}.get(least)
    raise error(f"{name} must be {kind or f'an integer of at least {least}'}, got {value!r}")


def check_positive(name: str, value, error: type = PreconditionError) -> float:
    """``value`` as a ``float`` if it is a real number, not a ``bool``, in ``(0, inf)``; else ``error``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and 0.0 < value < math.inf:
        return float(value)
    raise error(f"{name} must be positive and finite, got {value!r}")
