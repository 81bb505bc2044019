"""Exception types shared across the package."""


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
