"""The package's two error classes, one per CLI exit code.

The package raises one of the two or returns numbers; it never warns
(what a grid does to the result is reported in report.json's diagnostics).

ConfigError (exit 2): an input the user can fix: a config key, a flag,
a quantity, an output path.  The message names the key or flag.

NumericalError (exit 3): valid input on which the computation breaks
down: a degenerate field or grid, a broken precondition of the
analysis, or a number out of floating-point range.

Both are ValueErrors.  The CLI maps these two, and numpy's LinAlgError
to exit 3, and lets every other exception through as a traceback: a bare
ValueError from inside the package is a bug.
"""


class ConfigError(ValueError):
    """Invalid or incomplete configuration; the message names the key."""


class NumericalError(ValueError):
    """A computation that breaks down on valid input."""
