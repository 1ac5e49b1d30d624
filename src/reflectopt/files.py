"""File formats: config files, placements, fronts, maps, logs, reports.

All formats are plain text chosen for diffability. Floats are written with
``repr`` (shortest round-trip form), so write -> read -> write is
byte-identical and seeded runs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .amcl import AmclConfig
from .geom import Grid, Polygon, RoomModel, _shoelace2
from .harness import BURN_IN, STEP, ExperimentReport, NoiseConfig, TruthPath, gen_path
from .mopso import IterationLog, ParetoArchive, PsoConfig
from .objectives import GLOBAL, LOCAL, UNIQUE, EvalConfig
from .placement import Placement


class ConfigError(ValueError):
    """Malformed or incomplete configuration input."""


def parse_sections(text: str) -> dict[str, dict]:
    """Parse the key-value / tabular section format.

    Sections start with ``[name]``; lines are either ``key = value`` pairs
    or whitespace-separated numeric rows (collected under ``"rows"``), which
    only the sections without keys, [vertices] and [path], may hold.
    ``#`` starts a comment.
    """
    sections: dict[str, dict] = {}
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            current = sections.setdefault(name, {"rows": []})
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: content before any [section] header")
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key == "rows":  # the name under which the numeric rows are kept
                raise ConfigError(f"line {lineno}: unknown key 'rows'")
            current[key] = value.strip()
        elif _KNOWN_KEYS.get(name):
            raise ConfigError(f"line {lineno}: [{name}] takes key = value lines, not rows")
        else:
            try:
                current["rows"].append([float(x) for x in line.split()])
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: expected numbers, got {line!r}") from exc
    return sections


def load_config(path) -> dict[str, dict]:
    """The sections of a config file; an unknown section or key is an error."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    sections = parse_sections(text)
    for name, section in sections.items():
        if name not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{name}]")
        unknown = sorted(section.keys() - {"rows"} - _KNOWN_KEYS[name])
        if unknown:
            raise ConfigError(f"unknown key{'s' * (len(unknown) > 1)} in [{name}]: "
                              + ", ".join(unknown))
    return sections


def _get(section: dict, key: str, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return cast(section[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {section[key]!r}") from exc


def _radians(text: str) -> float:
    return math.radians(float(text))


def _seed_list(text: str) -> list[int]:
    seeds = [int(x) for x in text.split()]
    if not seeds:
        raise ValueError("no seeds")
    return seeds


# Config keys named differently from their dataclass field.
_FIELDS = {"fingerprint_size": "n", "cone_half_angle_deg": "cone_half_angle",
           "sigma_theta_deg": "sigma_theta"}
_ROOM_KEYS = {"z_r": float, "z_l": float, "r_res": float, "cone_half_angle_deg": _radians,
              "wall_margin": float}
# Read from [pso] by all three commands; simulate's tracker uses its fingerprint size.
_CONSTRAINT_KEYS = {"fingerprint_size": int, "k_min": int, "d_min": float, "m_max": int}
_PSO_KEYS = {"swarm_size": int, "iterations": int, "n_types": int, "seed": int,
             "snapshot_every": int}
_NOISE_KEYS = {"sigma_meas": float, "sigma_d": float, "sigma_theta_deg": _radians}
_AMCL_KEYS = {"n_particles": int, "sigma_r": float}
# Every key a section may hold: the tables above plus the keys read by name.
_KNOWN_KEYS = {
    "room": {"grid_size", *_ROOM_KEYS},
    "vertices": set(),
    "pso": {"m_init_min", "m_init_max", *_CONSTRAINT_KEYS, *_PSO_KEYS},
    "sim": {"step", "seeds", "n_seeds", "burn_in", *_NOISE_KEYS, *_AMCL_KEYS},
    "path": set(),
}


def _present(section: dict, casts: dict) -> dict:
    """Dataclass keyword arguments for the keys of ``casts`` that ``section`` holds.

    A key that is absent is left out, so the dataclass default applies.
    """
    return {_FIELDS.get(key, key): _get(section, key, cast) for key, cast in casts.items()
            if key in section}


def _build(cls, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def room_from_config(sections: dict[str, dict]) -> RoomModel:
    """Build the room from the [room] keys and [vertices] rows; its grid must not be empty."""
    if "room" not in sections:
        raise ConfigError("config needs a [room] section")
    if "vertices" not in sections or len(sections["vertices"]["rows"]) < 3:
        raise ConfigError("config needs a [vertices] section with at least 3 rows")
    room_sec = sections["room"]
    if any(len(row) != 2 for row in sections["vertices"]["rows"]):
        raise ConfigError("[vertices] rows must hold x y pairs")
    verts = np.array(sections["vertices"]["rows"], dtype=float)
    if _shoelace2(verts) < 0:  # accept clockwise input, normalize to counterclockwise
        verts = verts[::-1]
    boundary = _build(Polygon, vertices=verts)
    grid_size = _get(room_sec, "grid_size", float, required=True)
    room = _build(RoomModel, boundary=boundary, grid_size=grid_size,
                  **_present(room_sec, _ROOM_KEYS))
    _build(lambda: room.grid)
    return room


def eval_config_from_config(sections: dict[str, dict]) -> EvalConfig:
    """Fingerprint size and constraints from [pso], shared by all three commands."""
    return _build(EvalConfig, **_present(sections.get("pso", {}), _CONSTRAINT_KEYS))


def pso_config_from_config(sections: dict[str, dict], **overrides) -> PsoConfig:
    sec = sections.get("pso", {})
    kwargs = asdict(eval_config_from_config(sections)) | _present(sec, _PSO_KEYS)
    lo, hi = PsoConfig.m_init_range
    kwargs["m_init_range"] = (_get(sec, "m_init_min", int, lo), _get(sec, "m_init_max", int, hi))
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return _build(PsoConfig, **kwargs)


def sim_configs_from_config(
    sections: dict[str, dict], room: RoomModel, seed: int | None = None
) -> tuple[TruthPath, NoiseConfig, AmclConfig, list[int], int]:
    """(path, noise, amcl, seeds, burn_in) from [sim] and [path]; the path must fit the room."""
    if "path" not in sections or len(sections["path"]["rows"]) < 2:
        raise ConfigError("config needs a [path] section with at least 2 waypoints")
    sec = sections.get("sim", {})
    rows = sections["path"]["rows"]
    if any(len(row) != 2 or not all(map(math.isfinite, row)) for row in rows):
        raise ConfigError("[path] rows must hold finite x y pairs")
    path = _build(gen_path, waypoints=rows, step=_get(sec, "step", float, STEP), room=room)
    n_steps = len(path[1])
    noise_cfg = _build(NoiseConfig, **_present(sec, _NOISE_KEYS))
    amcl_cfg = _build(AmclConfig, n=eval_config_from_config(sections).n,
                      sigma_d=noise_cfg.sigma_d, sigma_theta=noise_cfg.sigma_theta,
                      **_present(sec, _AMCL_KEYS))
    if seed is not None:
        n_seeds = _get(sec, "n_seeds", int, 1)
        if n_seeds < 1:
            raise ConfigError("n_seeds must be at least 1")
        seeds = [seed + i for i in range(n_seeds)]
    else:
        seeds = _get(sec, "seeds", _seed_list, [0])
    if min(seeds) < 0:
        raise ConfigError("seeds must be non-negative")
    if len(set(seeds)) < len(seeds):
        raise ConfigError("seeds must be distinct")
    burn_in = _get(sec, "burn_in", int, BURN_IN)
    if not 0 <= burn_in <= n_steps:
        if "burn_in" not in sec:
            raise ConfigError(f"the default burn_in of {BURN_IN} exceeds the path's {n_steps} "
                              f"steps; set [sim] burn_in to a value in [0, {n_steps}]")
        raise ConfigError(f"burn_in must lie in [0, {n_steps}], the path's step count")
    return path, noise_cfg, amcl_cfg, seeds, burn_in


def format_placement(pl: Placement, n_types: int) -> str:
    lines = [
        f"m = {pl.m}",
        f"n_types = {n_types}",
        f"z_l = {float(pl.z)!r}",
        "# index x y type",
    ]
    for i in range(pl.m):
        lines.append(f"{i} {float(pl.xy[i, 0])!r} {float(pl.xy[i, 1])!r} {int(pl.types[i])}")
    return "\n".join(lines) + "\n"


def write_placement(path, pl: Placement, n_types: int):
    Path(path).write_text(format_placement(pl, n_types))


def load_placement(path, room: RoomModel | None = None) -> tuple[Placement, int]:
    """Placement and type count from a file; with a room, its z_l must be the room's.

    Rows are indexed 0..m-1, each once, and types lie below n_types (1 or 2).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read placement file {path}: {exc}") from exc
    header: dict[str, str] = {}
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            header[key.strip().lower()] = value.strip()
        else:
            parts = line.split()
            if len(parts) != 4:
                raise ConfigError(f"placement row needs 'index x y type': {line!r}")
            rows.append(parts)
    try:
        m = int(header["m"])
        n_types = int(header["n_types"])
        z_l = float(header["z_l"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"placement header incomplete: {exc}") from exc
    if n_types not in (1, 2):
        raise ConfigError(f"{path}: placement n_types = {n_types} must be 1 or 2")
    if room is not None and z_l != room.z_l:
        raise ConfigError(f"{path}: placement z_l = {z_l!r} differs from the room's z_l = "
                          f"{room.z_l!r}")
    if len(rows) != m:
        raise ConfigError(f"placement declares m={m} but has {len(rows)} rows")
    try:
        index = [int(row[0]) for row in rows]
        order = sorted(range(m), key=index.__getitem__)
        xy = np.array([[float(rows[k][1]), float(rows[k][2])] for k in order])
        types = np.array([int(rows[k][3]) for k in order])
    except ValueError as exc:
        raise ConfigError(f"{path}: bad placement row: {exc}") from exc
    if sorted(index) != list(range(m)):
        raise ConfigError(f"{path}: placement indices must be 0 to {m - 1}, each once")
    if not np.all(np.isfinite(xy)):
        raise ConfigError(f"{path}: placement x and y must be finite")
    if np.any((types < 0) | (types >= n_types)):
        raise ConfigError(f"{path}: reflector types must lie below n_types = {n_types}")
    try:
        return Placement(xy=xy, types=types, z=z_l), n_types
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def format_front(archive: ParetoArchive) -> str:
    lines = ["placement_id,m,f1,f2"]
    for i, e in enumerate(archive.entries):
        lines.append(f"{i},{e.placement.m},{_num(e.f1)},{_num(e.f2)}")
    return "\n".join(lines) + "\n"


def _num(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    return str(int(f)) if f.is_integer() else repr(f)


def write_front(path, archive: ParetoArchive):
    Path(path).write_text(format_front(archive))


def write_log(path, log: list[IterationLog]):
    lines = ["iteration,best_f1,best_f2,archive_size,evaluations"]
    for rec in log:
        lines.append(
            f"{rec.iteration},{_num(rec.best_f1)},{_num(rec.best_f2)},"
            f"{rec.archive_size},{rec.evaluations}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_map_csv(path, grid: Grid, values, header="x,y,value"):
    """One ``x,y,value`` line per grid element.

    Coordinates are written with ``repr``, values by the ``_num`` rule. Each
    distinct coordinate is formatted once, and so is each distinct value of
    an integer or bool map.
    """
    vals = np.asarray(values)
    if vals.shape != (len(grid),):
        raise ValueError(f"map of shape {vals.shape} for {len(grid)} grid elements")
    if vals.dtype.kind in "biu":
        uniq, inverse = np.unique(vals, return_inverse=True)
        table = [str(int(v)) for v in uniq.tolist()]
        value_texts = map(table.__getitem__, inverse.tolist())
    else:
        value_texts = _num_texts(vals.astype(float, copy=False))
    rows = zip(_coordinate_texts(grid.xy[:, 0]), _coordinate_texts(grid.xy[:, 1]), value_texts)
    Path(path).write_text(f"{header}\n" + "\n".join(map(",".join, rows)) + "\n")


def _reprs(vals: np.ndarray) -> list[str]:
    """``repr`` of each float, from one C-level ``repr`` of the whole list."""
    return repr(vals.tolist())[1:-1].split(", ")


def _num_texts(vals: np.ndarray) -> list[str]:
    """``_num`` of each float: its ``repr``, or ``str(int(v))`` for a finite whole number."""
    texts = _reprs(vals)
    for i in np.flatnonzero(np.isfinite(vals) & (vals == np.trunc(vals))).tolist():
        texts[i] = str(int(vals[i]))
    return texts


def _coordinate_texts(coords: np.ndarray):
    """``repr`` of each coordinate, formatted once per distinct value."""
    uniq, inverse = np.unique(coords, return_inverse=True)
    return map(_reprs(uniq).__getitem__, inverse.tolist())


_AMBIGUITY_GRAY = {UNIQUE: 255, LOCAL: 170, GLOBAL: 85}


def write_ambiguity_pgm(path, grid: Grid, classes: np.ndarray):
    """Unique=255, local=170, global=85, outside the room=0."""
    gray = np.zeros(len(grid), dtype=np.uint8)
    for cls, val in _AMBIGUITY_GRAY.items():
        gray[classes == cls] = val
    _write_pgm(path, grid, gray)


def write_value_pgm(path, grid: Grid, values: np.ndarray):
    """Linear 1..255 scaling of finite values (1=min), background 0."""
    vals = np.asarray(values, dtype=float)
    finite = np.isfinite(vals)
    lo = vals[finite].min()
    hi = vals[finite].max()
    span = hi - lo
    gray = np.zeros(len(grid), dtype=np.uint8)
    if span <= 0:
        gray[finite] = 128
    else:
        gray[finite] = (1 + np.round(254 * (vals[finite] - lo) / span)).astype(np.uint8)
    _write_pgm(path, grid, gray)


def _write_pgm(path, grid: Grid, gray: np.ndarray):
    raster = grid.rasterize(gray, fill=np.uint8(0))
    raster = raster[::-1, :]  # north-up: top row = max y
    ny, nx = raster.shape
    header = f"P5\n{nx} {ny}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raster.tobytes())


def write_trace(path, trace):
    lines = ["step,truth_x,truth_y,est_x,est_y,error"]
    for k, (t, e) in enumerate(zip(trace.truth, trace.estimates)):
        lines.append(f"{k},{t.x!r},{t.y!r},{e.x!r},{e.y!r},{float(trace.errors[k])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_histogram(path, report: ExperimentReport):
    counts, edges = report.error_histogram()
    lines = ["bin_lo,bin_hi,count"]
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        lines.append(f"{float(lo)!r},{float(hi)!r},{int(c)}")
    Path(path).write_text("\n".join(lines) + "\n")


def format_report(report: ExperimentReport, label: str) -> str:
    lines = [
        f"tracking report: {label}",
        f"runs = {len(report.traces)}",
        f"burn_in_steps = {report.burn_in}",
        f"steps_per_run = {len(report.traces[0].estimates)}",
        "",
        "seed rmse_full rmse_after_burn_in",
    ]
    for t in report.traces:
        lines.append(f"{t.seed} {t.rmse_full!r} {t.rmse_after_burn_in!r}")
    lines += [
        "",
        f"median_rmse = {report.median_rmse!r}",
        f"p25_rmse = {report.percentile(25)!r}",
        f"p75_rmse = {report.percentile(75)!r}",
    ]
    return "\n".join(lines) + "\n"
