"""Exception types shared across the package."""


class AnnodiffError(Exception):
    """Base class for errors caused by invalid inputs or configuration."""


class DatasetError(AnnodiffError):
    """Invalid dataset content.

    Carries the offending file and 1-based line number when known so that
    command-line diagnostics can point at the exact record.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None and line is not None:
            where = f"{path}, line {line}: "
        elif path is not None:
            where = f"{path}: "
        elif line is not None:
            where = f"line {line}: "
        super().__init__(where + message)


class DegenerateClusteringError(AnnodiffError):
    """Raised when 1-D k-means receives fewer than two distinct values, a
    value that is not finite, or values whose squared deviations overflow."""
