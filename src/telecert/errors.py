"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto distinct exit codes: validation failures,
precondition failures, and I/O failures are kept apart so scripted callers
can react to each differently.
"""

import math
import operator


class TelecertError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(TelecertError):
    """Input data is structurally or numerically invalid."""


class EnsembleFormatError(ValidationError):
    """A custom-ensemble document does not match the expected schema."""


class StateNormalizationError(ValidationError):
    """A state vector's norm is too far from one."""


class PriorSumError(ValidationError):
    """Prior probabilities are negative or do not sum to one."""


class PreconditionError(TelecertError):
    """Inputs are well formed but lie outside an operation's domain."""


class BudgetExceededError(PreconditionError):
    """A request exceeds the largest run count an exact computation takes."""


def _integer(value, name: str, low: int, bits: int | None = None) -> int:
    """``value`` as an ``int`` in [low, 2**bits), or at least ``low`` without ``bits``.

    A non-integer, a float or a bool included, raises ``TypeError``, and an
    integer out of range ``ValueError``.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    value = operator.index(value)
    if value < low or bits is not None and value >= 1 << bits:
        rule = {0: "be nonnegative", 1: "be positive"}.get(low, f"be at least {low}")
        rule = rule if bits is None else f"lie in [{low}, 2**{bits})"
        raise ValueError(f"{name} must {rule}, got {_shown(value)}")
    return value


def _shown(value: int) -> str:
    """``value`` in decimal, or its size in bits where ``str`` refuses it.

    Python refuses to convert an integer of more digits than
    ``sys.get_int_max_str_digits()`` (4300 by default) to a string.
    """
    try:
        return str(value)
    except ValueError:
        sign = "negative " if value < 0 else ""
        return f"<{sign}{value.bit_length()}-bit integer>"


def _finite(value: float, name: str) -> float:
    """``value`` unchanged, or ``ValueError`` when it is nan or infinite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value
