"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates a documented precondition."""


class ResourceError(RuntimeError):
    """A computation was refused because it exceeds a configured size limit."""


class HypothesisError(ValueError):
    """A verification was requested outside the hypotheses it needs."""


class InvariantError(RuntimeError):
    """Two independent computations of the same quantity disagree."""
