"""Checked reading of YAML input, shared by the configuration and the simulator.

A loader that rejects duplicate keys, and the checks on the numbers and flags
read from it.  Every failure is a :class:`ConfigError` naming its line or key.
This module imports nothing of the estimator, so the simulator does not either.
"""

from __future__ import annotations

import math

import yaml

from .errors import ConfigError


class _StrictLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """SafeLoader that rejects duplicate mapping keys; on libyaml's parser
    where PyYAML was built with it."""


def _strict_mapping(loader, node, deep=False):
    mapping = {}
    for key_node, value_node in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in mapping:
            raise ConfigError(
                f"duplicate key {key!r} at line {key_node.start_mark.line + 1}"
            )
        mapping[key] = loader.construct_object(value_node, deep=deep)
    return mapping


_StrictLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _strict_mapping
)


def load_yaml(text: str):
    """Parse YAML text; a syntax error or a duplicate key is a ConfigError naming its line."""
    try:
        return yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"invalid YAML{location}: {exc}") from exc


def as_number(key, value, bound=">", integer=False):
    """A finite number, > 0 by default; ``bound`` ">=" admits 0 and None any sign.

    With ``integer`` it must also be integral and is returned as an int.
    """
    try:
        if isinstance(value, bool):  # YAML true/false, which float() reads as 1/0
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if (not math.isfinite(x) or (bound and (x < 0.0 or (x == 0.0 and bound == ">")))
            or (integer and not x.is_integer())):
        raise ConfigError(f"{key} must be {'an integer' if integer else 'a finite number'}"
                          f"{f' {bound} 0' if bound else ''}, got {value!r}")
    if integer:  # an int as given; a float above 2**53 would not round-trip
        return value if isinstance(value, int) else int(x)
    return x


def as_numbers(key, values, n, bound=None):
    """A list of ``n`` finite numbers, each checked by :func:`as_number`."""
    if not isinstance(values, list) or len(values) != n:
        raise ConfigError(f"{key} must be a list of {n} numbers, got {values!r}")
    return [as_number(f"{key}.{i}", v, bound) for i, v in enumerate(values)]


def as_text(key, value):
    """A YAML string; anything else (a list, a number) is a ConfigError."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def as_flag(key, value):
    """A YAML boolean; anything else (a quoted "false", 0) is a ConfigError."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value
