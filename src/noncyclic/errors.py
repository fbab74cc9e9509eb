"""Exception types shared across the package."""


class NonCyclicError(Exception):
    """Base class for all library errors."""


class InvalidParameter(NonCyclicError, ValueError):
    """A constructor parameter violates its constraints."""


class ParseError(NonCyclicError, ValueError):
    """A group expression or an input file could not be parsed."""


class InvalidCayleyFile(ParseError):
    """A Cayley-table file is structurally malformed."""


class NotAGroup(NonCyclicError, ValueError):
    """A Cayley table fails the group axioms.

    When associativity is the failing axiom, ``triple`` holds the first
    offending (i, j, k) in scan order.
    """

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class ClosureTooLarge(NonCyclicError):
    """A permutation closure exceeded the configured cap."""


class EmptySet(NonCyclicError, ValueError):
    """An operation that needs a non-empty set received an empty one."""


class GroupIsCyclic(NonCyclicError):
    """The non-cyclic graph is undefined for cyclic groups."""


class Disconnected(NonCyclicError):
    """A non-cyclic graph failed its connectivity guarantee.

    This is a verification failure, not a normal outcome: every non-cyclic
    graph of a finite non-cyclic group is connected.
    """


class VerificationFailure(NonCyclicError):
    """An internally produced witness (clique, coloring, bijection, ...)
    failed its validation, which indicates an implementation bug."""


class Timeout(NonCyclicError):
    """A computation exceeded its time budget."""


class TooLarge(NonCyclicError):
    """An input exceeds the configured size cap."""


class OrderTooLarge(TooLarge):
    """A group's order exceeds the maximum order a build was given."""


class UnknownCheck(NonCyclicError, KeyError):
    """No check is registered under the requested name."""

    # KeyError's str() is the repr of its key; the message reads plain
    __str__ = Exception.__str__
