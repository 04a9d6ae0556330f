"""Exception types shared across the package."""


class AnnodiffError(Exception):
    """Base class for errors caused by invalid inputs or configuration."""


class DatasetError(AnnodiffError):
    """Invalid dataset content.

    Carries the offending file and 1-based line number so that command-line
    diagnostics can point at the exact record.
    """

    def __init__(self, message: str, *, path: str, line: int):
        self.path = path
        self.line = line
        super().__init__(f"{path}, line {line}: {message}")


class DegenerateClusteringError(AnnodiffError):
    """Raised when 1-D k-means receives fewer than two distinct values, a
    value that is not finite, or values whose squared deviations overflow."""
