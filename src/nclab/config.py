"""Config-file driven runs.

Format: `[section]` headers followed by `key = value` lines; `#`
starts a comment; blank lines ignored.  Parsing is strict: unknown
sections, unknown keys, duplicate keys, missing mandatory keys and
out-of-range values are all fatal, with line numbers.  Silent typos
are worse than friction in numeric experiments.

KEYS declares each section's keys once, with their converters; [symbol]
also takes the classical terms term_0, term_1, ... (each `degree ;
angular-expression`).  The SymbolConfig ([symbol]) or RunConfig (every
other section) field of the same name gives a key's default, and a
field without a default makes the key mandatory (n, main, order, M).
"""

from __future__ import annotations

import math
import re
from typing import Optional, Sequence

from . import dsl
from .errors import ConfigError
from .record import Record
from .residue import DEFAULT_TORUS_Q

_TERM_KEY = re.compile(r"^term_(0|[1-9][0-9]*)$")


class SymbolConfig(Record):
    n: int
    main: str
    order: float
    main_im: Optional[str] = None
    rho: float = 1.0
    terms: Sequence[tuple[float, str]] = ()


class RunConfig(Record):
    symbol: SymbolConfig
    M: int
    sphere_order: Optional[int] = None
    residue_q: int = DEFAULT_TORUS_Q
    symmetrize: bool = True
    dir: Optional[str] = None
    matrix_format: str = "both"


class _OutOfRange(ValueError):
    """A well-formed value outside its key's range, which the message names."""


def _at_least(low: int):
    def conv(value: str) -> int:
        v = int(value)
        if v < low:
            raise _OutOfRange(f"must be >= {low}")
        return v

    return conv


def _finite(value: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise _OutOfRange("must be finite")
    return v


def _unit_interval(value: str) -> float:
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise _OutOfRange("must be in [0, 1]")
    return v


def _to_bool(value: str) -> bool:
    v = value.lower()
    if v in ("true", "on", "yes", "1"):
        return True
    if v in ("false", "off", "no", "0"):
        return False
    raise ValueError(value)


def _matrix_format(value: str) -> str:
    if value not in ("csv", "binary", "both"):
        raise _OutOfRange("must be csv|binary|both")
    return value


# section -> key -> converter; it raises _OutOfRange for a value out of its
# range and ValueError or TypeError for any other bad value
KEYS = {
    "symbol": {"n": _at_least(1), "main": str, "order": _finite, "main_im": str, "rho": _unit_interval},
    "lattice": {"M": _at_least(0)},
    "quadrature": {"sphere_order": _at_least(1), "residue_q": _at_least(1)},
    "fit": {"symmetrize": _to_bool},
    "output": {"dir": str, "matrix_format": _matrix_format},
}


def _parse_lines(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in KEYS:
                raise ConfigError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS[current] and not (current == "symbol" and _TERM_KEY.match(key)):
            raise ConfigError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value, lineno)
    return sections


def _section_values(sections, section: str, cls) -> dict:
    """The converted values of the section's keys that the file sets;
    a key it leaves out takes the default of cls's field."""
    mandatory = set(cls._fields) - cls._field_defaults.keys()
    given = sections.get(section, {})
    values = {}
    for key, conv in KEYS[section].items():
        if key not in given:
            if key in mandatory:
                raise ConfigError(f"missing mandatory key {key!r} in [{section}]")
            continue
        value, lineno = given[key]
        try:
            values[key] = conv(value)
        except _OutOfRange as exc:
            raise ConfigError(f"{key} {exc}, got {value!r}", lineno) from None
        except (ValueError, TypeError):
            raise ConfigError(f"bad value for {key!r}: {value!r}", lineno) from None
    return values


def _terms(sections) -> list[tuple[float, str]]:
    term_entries = {
        int(_TERM_KEY.match(key).group(1)): (value, lineno)
        for key, (value, lineno) in sections.get("symbol", {}).items()
        if _TERM_KEY.match(key)
    }
    terms = []
    for j in range(len(term_entries)):
        if j not in term_entries:
            raise ConfigError(f"classical terms must be contiguous: term_{j} is missing")
        value, lineno = term_entries[j]
        if ";" not in value:
            raise ConfigError("classical term must be `degree ; expression`", lineno)
        deg_text, expr = (part.strip() for part in value.split(";", 1))
        try:
            degree = _finite(deg_text)
        except _OutOfRange as exc:
            raise ConfigError(f"term_{j} degree {exc}, got {deg_text!r}", lineno) from None
        except ValueError:
            raise ConfigError(f"bad degree {deg_text!r} in term_{j}", lineno) from None
        terms.append((degree, expr))
    return terms


def load_config(path) -> RunConfig:
    """Read, validate and default-fill a run configuration."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    sections = _parse_lines(text)
    sym = SymbolConfig(**_section_values(sections, "symbol", SymbolConfig), terms=_terms(sections))
    run_values = {}
    for section in KEYS:
        if section != "symbol":
            run_values.update(_section_values(sections, section, RunConfig))
    return RunConfig(symbol=sym, **run_values)


def build_symbol(cfg: RunConfig):
    """Parse the configured expressions into a discrete-side Symbol;
    expression or ladder problems surface as usage/parse errors."""
    sym = cfg.symbol
    return dsl.to_symbol(
        sym.main,
        n=sym.n,
        order=sym.order,
        rho=sym.rho,
        main_im=sym.main_im,
        classical_terms=sym.terms,
        side="discrete",
    )
