"""Tolerances and numerical knobs, overridable from a key=value file.

Defaults reflect double precision, which loses roughly six digits in the
worst chains; every gate that a test or report judges against lives here
so runs are reproducible.
"""

from __future__ import annotations

import dataclasses

from .errors import InputError


@dataclasses.dataclass
class Config:
    # rank / decomposition gates
    eps_rank: float = 1e-9        # smallest singular value (scaled) for rank-2 tests
    eps_dec: float = 1e-8         # residual gate for Dx = Omega Lambda^T
    eps_sing: float = 1e-9        # |lambda| below this counts as singular
    eps_k: float = 1e-10          # |K_Omega| below this counts as parabolic

    # limit probe (singular-set extrapolation)
    probe_directions: int = 8
    probe_r0: float = 4e-3
    probe_ratio: float = 0.5
    probe_levels: int = 8
    probe_richardson: int = 3
    tol_limit: float = 1e-4       # relative agreement across directions

    # reconstruction
    tol_compat: float = 1e-6      # compatibility residual gate (scaled by max ||D||)
    tol_path: float = 1e-4        # path-independence audit gate
    rk4_step: float = 1e-3

    # quadrature
    quad_nodes: int = 32
    quad_max_nodes: int = 512


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Config)}

# Settings outside these ranges fail deep inside a run or make it report a
# mathematical failure it never tested (a zero or negative RK4 step, a
# quadrature rule without nodes, a probe with no directions, too few radii
# for its tail test or radii that do not shrink, a negative gate), so they
# are refused on entry.
_RANGES = {
    "rk4_step": (lambda v: v > 0, "> 0"),
    "quad_nodes": (lambda v: v >= 1, ">= 1"),
    "probe_directions": (lambda v: v >= 1, ">= 1"),
    "probe_levels": (lambda v: v >= 3, ">= 3"),
    "probe_r0": (lambda v: v > 0, "> 0"),
    "probe_ratio": (lambda v: 0 < v < 1, "strictly between 0 and 1"),
    **{name: (lambda v: v >= 0, ">= 0") for name in _FIELD_TYPES
       if name.startswith(("eps_", "tol_"))},
}


def _coerce(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    try:
        return int(raw) if kind in ("int", int) else float(raw)
    except ValueError as err:
        raise InputError(str(err)) from None


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Build a Config from an optional key=value file plus overrides.

    File format: one `name = value` per line, `#` comments, blank lines
    ignored. Unknown keys are an error so typos do not silently pass.
    """
    values: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                lines = fh.readlines()
            except ValueError as err:     # not UTF-8
                raise InputError(str(err)) from None
        for lineno, line in enumerate(lines, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _coerce(key, raw)
    if overrides:
        for key, val in overrides.items():
            if key not in _FIELD_TYPES:
                raise InputError(f"unknown config key {key!r}")
            values[key] = _coerce(key, str(val)) if isinstance(val, str) else val
    cfg = Config(**values)
    for key, (ok, allowed) in _RANGES.items():
        if not ok(getattr(cfg, key)):
            raise InputError(f"config key {key} = {getattr(cfg, key)!r} is "
                             f"out of range; expected {allowed}")
    # integrate_jet doubles quad_nodes until it passes quad_max_nodes
    if not cfg.quad_max_nodes > cfg.quad_nodes:
        raise InputError(f"config key quad_max_nodes = {cfg.quad_max_nodes!r} "
                         f"must exceed quad_nodes = {cfg.quad_nodes!r}")
    return cfg


DEFAULT = Config()
