"""Exception types shared across the package.

Bad input or configuration exits 1 through AnnodiffError. Values are
checked where they enter the program: the dataset parser, RunConfig and
the readers of the program's own files. Scoring and the grid do not check
again what only their callers build: a broken invariant of those values
is never reported as bad input, and where it raises, the command exits 2.
"""


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

