"""Exception types shared across the toolkit, and the one check of a numeric setting."""

import numbers


class AcoubenchError(Exception):
    """Base class for all toolkit-specific errors."""


class DegenerateSignalError(AcoubenchError, ValueError):
    """Raised when an operation receives a signal it cannot meaningfully process
    (all-zero input to a normalizer, zero-power signal for SNR injection, ...)."""


class ParameterError(AcoubenchError, ValueError):
    """Raised when an argument violates a documented precondition."""


class UnsupportedWavError(AcoubenchError, ValueError):
    """Raised for WAV files outside the supported 16-bit PCM mono profile."""


class ConvergenceWarning(UserWarning):
    """Emitted when an iterative solver stops at its iteration cap."""


class DivergenceError(AcoubenchError, RuntimeError):
    """Raised when iterative training produces non-finite loss."""


class PipelineStageError(AcoubenchError, RuntimeError):
    """Wraps a failure inside the benchmark pipeline with the stage named."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


def checked(key: str, value, kind: type = float, interval: str = "(-inf, inf)"):
    """``value`` as ``kind`` (``int`` or ``float``), once it is one and lies in ``interval``.

    ``interval`` is written as in mathematics, ``"[1, inf)"`` or ``"(0, 1]"``;
    the default admits every finite number. Bools, non-numbers and NaN are
    rejected with ``'<key>' must be <expected>, got <value>``.
    """
    low, high = interval[1:-1].split(", ")
    number = numbers.Integral if kind is int else numbers.Real
    if (
        isinstance(value, number)
        and not isinstance(value, bool)
        and (float(low) < value if interval[0] == "(" else float(low) <= value)
        and (value < float(high) if interval[-1] == ")" else value <= float(high))
    ):
        return kind(value)
    noun = "an integer" if kind is int else "a number"
    if interval.endswith(", inf)"):  # unbounded above: "an integer >= 1", "a finite number > 0"
        noun = noun if kind is int else "a finite number"
        expected = noun if low == "-inf" else f"{noun} {'>' if interval[0] == '(' else '>='} {low}"
    else:
        expected = f"{noun} in {interval}"
    raise ParameterError(f"'{key}' must be {expected}, got {value!r}")
