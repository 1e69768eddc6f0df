"""Runtime caps and knobs, overridable via DPCOLOR_* environment variables."""

from __future__ import annotations

import os
from typing import NamedTuple

_ENV_PREFIX = "DPCOLOR_"
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class Config(NamedTuple):
    """Resource caps and output settings shared across the library and CLI.

    All caps are positive (``checked`` raises otherwise; ``from_env`` calls
    it).  Searches that would exceed a cap raise
    :class:`dpcolor.errors.CapExceeded` instead of returning an answer.
    """

    node_budget: int = 5_000_000          # backtracking nodes per solve/search call
    max_total_degree: int = 24            # sum-of-degrees cap for the oracle
    max_transversal_space: int = 500_000  # product-space cap for uncolorable-cover search
    worker_count: int = 1                 # parallel workers for census runs
    strict: bool = False                  # reject invalid cover files at parse time
    output_format: str = "text"           # "text" | "lines"

    def checked(self, names=None) -> "Config":
        """Returns self, or raises ValueError for a cap below 1 or an unknown
        output format, naming a field as names maps it (default: itself)."""
        names = names or {}
        for name in ("node_budget", "max_total_degree",
                     "max_transversal_space", "worker_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{names.get(name, name)} must be positive")
        if self.output_format not in ("text", "lines"):
            raise ValueError(f"{names.get('output_format', 'output_format')} "
                             "must be 'text' or 'lines'")
        return self

    @classmethod
    def from_env(cls, **overrides) -> "Config":
        """Build a config from DPCOLOR_* environment variables plus overrides.
        A variable whose field is overridden is not read; a bad value of any
        other raises ValueError naming the variable."""
        values, names = {}, {}
        for name, default in cls._field_defaults.items():
            var = _ENV_PREFIX + name.upper()
            raw = os.environ.get(var)
            if raw is None or name in overrides:
                continue
            names[name] = f"{var}={raw!r}"
            if isinstance(default, bool):
                word = raw.strip().lower()
                if word not in _TRUE + _FALSE:
                    raise ValueError(f"{var}={raw!r} is not a boolean "
                                     "(1/true/yes/on or 0/false/no/off)")
                values[name] = word in _TRUE
            elif isinstance(default, int):
                try:
                    values[name] = int(raw)
                except ValueError:
                    raise ValueError(f"{var}={raw!r} is not an integer") from None
            else:
                values[name] = raw
        values.update(overrides)
        return cls(**values).checked(names)


DEFAULT = Config()
