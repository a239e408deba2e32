"""Exception types and the record-validation hook shared across the package."""


class InputError(ValueError):
    """An argument violates a documented precondition."""


class ResourceError(RuntimeError):
    """A computation was refused because it exceeds a configured size limit."""


class HypothesisError(ValueError):
    """A verification was requested outside the hypotheses it needs."""


class InvariantError(RuntimeError):
    """Two independent computations of the same quantity disagree."""


class Validated:
    """Mixin for a namedtuple record: `cls(...)` runs the record's `__post_init__` check.

    Put it first in the bases.  The hook keeps the name a dataclass gives it
    because profilers wrap it by that name: the benchmark tracer counts
    `Partition.__post_init__` calls as partition builds.  `_make` and
    `_replace` bypass `__new__`, so they skip the check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self
