"""Exception types shared across the package."""

__all__ = [
    "InputError",
    "DegenerateColumnError",
    "UndefinedCriticalValueError",
    "GridPointError",
]


class InputError(ValueError):
    """Malformed input data: non-finite entries, bad shapes, unreadable files."""


class DegenerateColumnError(ValueError):
    """An operation that divides by a column standard deviation met sd == 0.

    Carries the offending column numbers (1-based) in ``columns``.
    """

    def __init__(self, columns, context=""):
        self.columns = tuple(int(j) for j in columns)
        cols = ", ".join(str(j) for j in self.columns)
        msg = f"zero-variance column(s): {cols}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class UndefinedCriticalValueError(ValueError):
    """The requested critical value does not exist for these inputs."""


class GridPointError(ValueError):
    """A grid point failed during region inversion; names the point.

    The original exception is chained as ``__cause__``.
    """

    def __init__(self, label, cause):
        self.label = str(label)
        super().__init__(f"grid point {self.label!r}: {cause}")
