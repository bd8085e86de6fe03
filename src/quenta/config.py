"""Key-value configuration: verification caps and field modulus overrides.

Format, one ``key = value`` pair per line, ``#`` starts a comment:

    matrix_cap = 100
    distance_cap = 4194304
    modulus.2.4 = 1,1,0,0,1

``modulus.<p>.<m>`` lists the m+1 coefficients of a monic modulus for
GF(p^m), constant term first.  The path is taken from the ``--config``
flag or the ``QUENTA_CONFIG`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import gf
from .oracle import DEFAULT_DISTANCE_CAP, DEFAULT_MATRIX_CAP

ENV_VAR = "QUENTA_CONFIG"


@dataclass
class Config:
    matrix_cap: int = DEFAULT_MATRIX_CAP
    distance_cap: int = DEFAULT_DISTANCE_CAP
    moduli: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)


def parse_config(text: str) -> Config:
    cfg = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key in ("matrix_cap", "distance_cap"):
                cap = int(value)
                if cap < 1:
                    raise ValueError(f"{key} = {cap} must be positive")
                setattr(cfg, key, cap)
            elif key.startswith("modulus."):
                _, p_s, m_s = key.split(".")
                p, m = int(p_s), int(m_s)
                coeffs = tuple(int(v) for v in value.split(","))
                if len(coeffs) != m + 1:
                    raise ValueError(f"need {m + 1} coefficients, got {len(coeffs)}")
                cfg.moduli[(p, m)] = coeffs
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from None
    return cfg


def load_config(path: str | None) -> Config:
    """Read a config file; fall back to the env var, then to defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return Config()
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def apply_modulus_overrides(cfg: Config) -> None:
    """Install every modulus override into the field registry (validating each)."""
    for (p, m), coeffs in sorted(cfg.moduli.items()):
        gf.set_modulus_override(p, m, coeffs)
