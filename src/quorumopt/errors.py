"""Exception hierarchy shared by all quorumopt modules."""


class QuorumError(Exception):
    """Base class for all quorumopt errors."""


class ParseError(QuorumError):
    """Malformed expression text. Carries the character offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(QuorumError):
    """A value violates a structural precondition (bad threshold, empty child
    list, duplicate node name, ...)."""


class UniverseTooLarge(QuorumError):
    """A universe has more nodes than ``expr.ENUMERATION_BOUND``: each
    minimal quorum becomes an LP column, and their number grows
    exponentially with the node count."""


class UnknownNode(QuorumError):
    """An expression names a node that is not part of the universe."""


class IntersectionViolation(QuorumError):
    """A read quorum and a write quorum are disjoint."""

    def __init__(self, read_quorum, write_quorum):
        r = "{" + ", ".join(sorted(read_quorum)) + "}"
        w = "{" + ", ".join(sorted(write_quorum)) + "}"
        super().__init__(f"read quorum {r} does not intersect write quorum {w}")
        self.read_quorum = frozenset(read_quorum)
        self.write_quorum = frozenset(write_quorum)


class NoResilientQuorum(QuorumError):
    """No quorum of the requested side survives every removal of f nodes."""


class Infeasible(QuorumError):
    """The optimization constraints cannot all be satisfied."""


class SolverFailure(QuorumError):
    """The LP backend failed for a reason other than infeasibility."""


class NoFeasibleCandidate(QuorumError):
    """Search exhausted its budget or candidate stream without finding any
    quorum system that satisfies the constraints."""
