"""Exception taxonomy shared across the package.

The CLI maps these onto its stable exit codes: config validation -> 2,
IO -> 3 (plain OSError), compatibility -> 4, numeric failure -> 5.
"""


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the requested operation."""


class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


class ConfigError(ValueError):
    """A configuration value failed validation; message names the field."""


class LeakageError(ValueError):
    """A dataset record's source is not a single of the record's own split."""


class CompatibilityError(ValueError):
    """Checkpoint and model configuration do not match."""
