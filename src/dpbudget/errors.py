"""Exception taxonomy shared across the package, and the checks that turn
bad config values and sections into :class:`ConfigError`.

The CLI maps these onto exit codes; see ``dpbudget.cli``.
"""

import dataclasses
import functools
import math
import numbers


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UsageError(RuntimeError):
    """An API object was used in a way its mode or state does not allow."""


class PreconditionError(RuntimeError):
    """A documented precondition (e.g. a sampling-ratio bound) is violated."""


class NumericalError(RuntimeError):
    """A numerical search found no answer within its range."""


class ConfigError(ValueError):
    """A schedule or run configuration is internally inconsistent."""


_FIELD_KINDS = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


@functools.cache
def _checked_fields(cls) -> tuple:
    """``(name, kind, optional)`` of each field of the dataclass ``cls`` that
    :func:`check_config_fields` checks, in declaration order."""
    checked = []
    for f in dataclasses.fields(cls):
        kind = _FIELD_KINDS.get(f.type.removeprefix("Optional[").rstrip("]"))
        if kind is not None:
            checked.append((f.name, kind, f.type.startswith("Optional[")))
    return tuple(checked)


def check_config_fields(config, section: str = "") -> None:
    """Raise :class:`ConfigError` unless every field of the dataclass
    ``config`` annotated ``int``, ``float``, ``bool`` or ``str`` holds a
    value of that type: a finite nonnegative number (an integer for
    ``int``), a boolean or a string.  ``None`` is accepted only where the
    annotation is ``Optional``.  The message names the field as
    ``section.field`` if ``section`` is given."""
    for field_name, kind, optional in _checked_fields(type(config)):
        value = getattr(config, field_name)
        if optional and value is None:
            continue
        if kind is bool or kind is str:
            if isinstance(value, kind):
                continue
        elif not isinstance(value, bool) and isinstance(value, kind) and 0 <= value < math.inf:
            continue
        name = f"{section}.{field_name}" if section else field_name
        if kind is bool:
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        if kind is str:
            raise ConfigError(f"{name} must be a string, got {value!r}")
        noun = "integer" if kind is numbers.Integral else "number"
        raise ConfigError(f"{name} must be a finite nonnegative {noun}, got {value!r}")


def config_from_json(cls, section: str, value, **supplied):
    """``cls(**value, **supplied)`` for the JSON ``value`` of config section
    ``section``.  Raise :class:`ConfigError` unless ``value`` is an object
    whose keys are fields of the dataclass ``cls``, other than the
    ``supplied`` ones, and include every field without a default."""
    if type(value) is not dict:
        raise ConfigError(f"{section} must be a JSON object, got {value!r}")
    expected = [f for f in dataclasses.fields(cls) if f.name not in supplied]
    unknown = set(value) - {f.name for f in expected}
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")
    missing = [f.name for f in expected if f.name not in value and f.default is dataclasses.MISSING is f.default_factory]
    if missing:
        raise ConfigError(f"{section} requires keys: {missing}")
    return cls(**value, **supplied)


class ParseError(ValueError):
    """A data file does not conform to its expected format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InfeasibleTargetError(ValueError):
    """No grid value of the searched hyperparameter attains the target."""
