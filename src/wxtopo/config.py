"""Flat key-value run configuration with documented defaults and presets.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Unknown keys are rejected; missing keys fall back to the selected preset.
The ``paper2d`` preset mirrors the published two-dimensional parameter table;
``desk`` scales the grid, population and regularization down to workstation
size (the regularization bounds scale with the squared cell size because
they carry squared-length units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .benchmark import cracked_plate_bands
from .crossover import CrossoverConfig
from .errors import ConfigError
from .evolve import EvolveConfig
from .fem2d import ElasticModel
from .grid_field import GridSpec
from .hf_eval import HfConfig
from .topopt_lf import LfBounds, check_sweep_settings


@dataclass(frozen=True)
class RunConfig:
    grid_nx: int = 100
    grid_ny: int = 200
    grid_lx: float = 1.0
    grid_ly: float = 2.0
    fem_e0: float = 1.0
    fem_e_min: float = 1e-6
    fem_nu: float = 0.3
    fem_penal: float = 3.0
    fem_thickness: float = 1.0
    fem_q_rel: float = 0.5
    lf_p_norm: float = 8.0
    lf_n_s1: int = 4
    lf_n_s2: int = 25
    lf_r_min: float = 0.03
    lf_r_max: float = 0.12
    lf_v_min: float = 0.30
    lf_v_max: float = 0.60
    lf_max_iter: int = 150
    lf_move: float = 0.05
    hf_r_h: float = 0.01
    hf_refine_factor: int = 2
    hf_threshold: float = 0.5
    xo_eps_min: float = 1e-6
    xo_eps_max: float = 1e-4
    xo_tau: float = 1e-4
    xo_max_iter: int = 10_000
    evolve_n_pop: int = 100
    evolve_n_xo: int = 100
    evolve_t_max: int = 100
    evolve_hv_rel_tol: float = 0.0
    evolve_hv_window: int = 10
    rng_seed: int = 0

    # -- derived objects ----------------------------------------------------

    def grid(self) -> GridSpec:
        return GridSpec(self.grid_nx, self.grid_ny, self.grid_lx, self.grid_ly)

    def model(self) -> ElasticModel:
        return ElasticModel(
            grid=self.grid(), e0=self.fem_e0, e_min=self.fem_e_min, nu=self.fem_nu,
            penal=self.fem_penal, thickness=self.fem_thickness, q_rel=self.fem_q_rel,
        )

    def lf_bounds(self) -> LfBounds:
        return LfBounds(self.lf_r_min, self.lf_r_max, self.lf_v_min, self.lf_v_max)

    def hf(self) -> HfConfig:
        return HfConfig(
            r_h=self.hf_r_h, refine_factor=self.hf_refine_factor, threshold=self.hf_threshold,
            dirichlet_bands=cracked_plate_bands(self.grid()),
        )

    def crossover(self) -> CrossoverConfig:
        return CrossoverConfig(
            eps_min=self.xo_eps_min,
            eps_max=self.xo_eps_max,
            tau=self.xo_tau,
            rng_seed=self.rng_seed,
            max_iter=self.xo_max_iter,
        )

    def evolve(self) -> EvolveConfig:
        return EvolveConfig(
            n_pop=self.evolve_n_pop,
            n_xo=self.evolve_n_xo,
            t_max=self.evolve_t_max,
            hv_rel_tol=self.evolve_hv_rel_tol,
            hv_window=self.evolve_hv_window,
            crossover=self.crossover(),
        )


_DESK_OVERRIDES = {
    "grid.nx": "50",
    "grid.ny": "100",
    "lf.n_s1": "4",
    "lf.n_s2": "6",
    "hf.r_h": "0.02",
    "xo.eps_min": "4e-6",
    "xo.eps_max": "4e-4",
    "xo.max_iter": "1500",
    "evolve.n_pop": "20",
    "evolve.n_xo": "20",
    "evolve.t_max": "15",
    "evolve.hv_window": "5",
}

PRESETS = ("paper2d", "desk")


def _field_map() -> dict[str, tuple[str, type]]:
    """config key 'a.b' -> (dataclass attribute, type)."""
    out = {}
    for f in fields(RunConfig):
        key = f.name.replace("_", ".", 1) if "_" in f.name else f.name
        out[key] = (f.name, f.type)
    return out


_KEYMAP = _field_map()


def _parse_value(key: str, raw: str, typ) -> object:
    raw = raw.strip()
    try:
        if typ in (int, "int"):
            return int(raw)
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from exc
    # NaN fails every comparison, so the derived objects' range checks would pass it
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {raw!r} is not a finite number")
    return value


def parse_config_text(text: str, preset: str = "paper2d", source: str = "<config>") -> RunConfig:
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}")
    values: dict[str, str] = dict(_DESK_OVERRIDES) if preset == "desk" else {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYMAP:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        values[key] = raw
    kwargs = {}
    for key, raw in values.items():
        attr, typ = _KEYMAP[key]
        kwargs[attr] = _parse_value(key, raw, typ)
    return check_config(RunConfig(**kwargs), source)


def check_config(cfg: RunConfig, source: str = "<config>") -> RunConfig:
    """``cfg`` itself once every value is in range; ConfigError naming ``source`` otherwise."""
    try:
        # the derived objects check their own ranges; building them here
        # reports an out-of-range value before any command starts work
        for build in (cfg.grid, cfg.model, cfg.lf_bounds, cfg.hf, cfg.evolve):
            build()
        check_sweep_settings(
            cfg.model(), cfg.lf_n_s1, cfg.lf_n_s2, cfg.lf_p_norm, cfg.lf_max_iter, cfg.lf_move
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return cfg


def load_config(path, preset: str = "paper2d") -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, preset=preset, source=str(path))


def dump_config(cfg: RunConfig) -> str:
    """Serialize with every key explicit, so the dump reproduces the run as-is."""
    lines = []
    for key, (attr, _typ) in sorted(_KEYMAP.items()):
        lines.append(f"{key} = {getattr(cfg, attr)!r}")
    return "\n".join(lines) + "\n"
