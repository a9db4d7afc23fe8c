"""Checked reading of YAML input: the one reader of configurations and scenarios.

A loader that rejects duplicate keys flattens the document into a
:class:`ParameterServer` of dotted keys, whose typed reads check each number,
list, string and flag they return.  Every failure is a :class:`ConfigError`
naming its line or key.  This module imports nothing of the estimator, so the
simulator does not either.
"""

from __future__ import annotations

import math

import yaml

from .errors import ConfigError

_MISSING = object()


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


def as_number(key, value, bound=">", integer=False):
    """A finite number, > 0 by default; ``bound`` ">=" admits 0 and None any sign.

    A numeric string is read as its number, because PyYAML reads ``1e-8`` (no
    dot) as a string.  With a sign bound a nonzero value must have a square,
    and a reciprocal of that square, that are finite and nonzero floats (about
    1.5e-154 < |x| < 1.3e154), so the variances and information weights made
    from it neither overflow nor vanish.  With ``integer`` it must also be
    integral and is returned as an int.
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
    if bound and x and not (0.0 < x * x < math.inf and 1.0 / (x * x) < math.inf):
        raise ConfigError(f"{key} must have a magnitude between 1.5e-154 and 1.3e154, "
                          f"got {value!r}")
    if integer:  # an int as given; a float above 2**53 would not round-trip
        return value if isinstance(value, int) else int(x)
    return x


def _flatten(prefix: str, value, out: dict, expanded: dict):
    """Dotted keys of the leaves into ``out``; each mapping or nested list
    that was split into them, by its own key, into ``expanded``."""
    if isinstance(value, dict):
        expanded[prefix] = value
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out, expanded)
    elif isinstance(value, list) and value and any(isinstance(v, (dict, list)) for v in value):
        expanded[prefix] = value
        for i, v in enumerate(value):
            _flatten(f"{prefix}.{i}", v, out, expanded)
    else:
        out[prefix] = value


class ParameterServer:
    """Flat dotted-key view of a parsed YAML document.

    Reads are tracked so auto-setup can warn about keys it never consumed.
    Reading a key whose value was a mapping or a nested list (``expanded``,
    as :func:`_flatten` records it) is a ConfigError: a value belongs there.
    The typed reads check the value too, and every error names the key.
    """

    def __init__(self, flat: dict, expanded: dict):
        self._flat = dict(flat)
        self._expanded = expanded
        self._consumed: set = set()

    def get(self, key: str, default=_MISSING):
        """The value at ``key``, or ``default`` if the key is absent; without a
        default, an absent key is a ConfigError naming it as missing."""
        if key in self._flat:
            self._consumed.add(key)
            return self._flat[key]
        if key in self._expanded:
            raise ConfigError(f"{key} must be a value or a list of values, "
                              f"got {self._expanded[key]!r}")
        if default is _MISSING:
            raise ConfigError(f"missing mandatory key: {key}")
        return default

    def number(self, key: str, default=_MISSING, bound=">", integer=False):
        """The value at ``key`` checked by :func:`as_number`; with a default
        of None, an absent key or a null value reads as None."""
        value = self.get(key, default)
        if value is None and default is None:
            return None
        return as_number(key, value, bound, integer)

    def numbers(self, key: str, n: int, default=_MISSING, bound=None) -> list:
        """A list of ``n`` numbers, each checked by :func:`as_number`."""
        values = self.get(key, default)
        if not isinstance(values, list) or len(values) != n:
            raise ConfigError(f"{key} must be a list of {n} numbers, got {values!r}")
        return [as_number(f"{key}.{i}", v, bound) for i, v in enumerate(values)]

    def text(self, key: str, default=_MISSING) -> str:
        """A YAML string; anything else (a list, a number) is a ConfigError."""
        value = self.get(key, default)
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        return value

    def flag(self, key: str, default: bool) -> bool:
        """A YAML boolean; anything else (a quoted "false", 0) is a ConfigError."""
        value = self.get(key, default)
        if not isinstance(value, bool):
            raise ConfigError(f"{key} must be true or false, got {value!r}")
        return value

    def section(self, key: str):
        """The mapping or nested list split under ``key`` as the YAML gave it,
        or else the value there, for a caller to tell the shapes apart."""
        return self._expanded[key] if key in self._expanded else self.get(key)

    def count(self, prefix: str) -> int:
        """Number of entries of the list split under a dotted prefix."""
        entries = self._expanded.get(prefix, ())
        if isinstance(entries, dict):
            raise ConfigError(f"{prefix} must be a list, got {entries!r}")
        return len(entries)

    def unconsumed(self):
        return sorted(k for k in self._flat if k not in self._consumed)


def read_yaml(text: str, document: str) -> ParameterServer:
    """Parse YAML text into a parameter server with typed scalars.

    A syntax error or a duplicate key is a ConfigError naming its line; a top
    level that is not a mapping is one naming the ``document`` kind.
    """
    try:
        data = yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        location = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"invalid YAML{location}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"top level of the {document} must be a mapping")
    flat: dict = {}
    expanded: dict = {}
    _flatten("", data, flat, expanded)
    return ParameterServer(flat, expanded)
