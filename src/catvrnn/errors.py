"""Exception types shared across the package, and the configs' int check.

The CLI maps these onto exit codes: configuration/usage problems exit 1,
data problems exit 2, numeric failures exit 3.
"""


class ConfigurationError(ValueError):
    """Inconsistent dimensions, invalid options, or misuse of an API."""


class DataError(ValueError):
    """Malformed corpus files, label mismatches, or unreadable inputs."""


class NumericError(ArithmeticError):
    """Violated numeric invariant, e.g. non-finite loss or non-positive sigma."""


def require_ints(minimum: int, **values) -> None:
    """A ConfigurationError naming the first of ``values`` that is not an int
    of at least ``minimum``; a float or a bool is not an int here."""
    for name, value in values.items():
        if type(value) is not int or value < minimum:
            raise ConfigurationError(f"{name} must be an int >= {minimum}, "
                                     f"got {value!r}")
