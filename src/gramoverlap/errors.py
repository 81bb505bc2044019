"""Exception types and input rules shared across the package."""


def check_integer(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer with
    ``__index__``, NumPy's included, and not a ``bool``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class SizeLimitError(ValueError):
    """Raised when a dense routine is asked to exceed its size cap, or to
    allocate more memory than the process has available."""


class DegenerateColumnError(ValueError):
    """Raised when a column has (numerically) zero norm after row-centering."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(
            f"column {column} has zero norm after row-centering and cannot be normalized"
        )
