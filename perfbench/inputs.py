"""Benchmark inputs: rooms, config files, placements, and a brute-force geometry oracle.

Everything here is plain numpy and independent of ``reflectopt``, so the
inputs a seed produces stay identical whatever a later commit changes in the
program. Placements come from a seeded jittered lattice over the wall-margin
interior, kept only when the brute-force oracle finds them feasible; they are
never produced with the program's own repair.

The default seed's inputs are stored in ``data/inputs_seed0.json``. Rebuild
that file with ``python3 perfbench/inputs.py`` (it only changes when the
generator below changes).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

GENERATOR = "jittered-lattice-v1"
DEFAULT_SEED = 0
DATA_FILE = Path(__file__).resolve().parent / "data" / "inputs_seed0.json"

# Shared radar/reflector geometry of the README rooms.
ROOM_PARAMS = dict(
    grid_size=0.2,
    z_r=0.5,
    z_l=5.0,
    r_res=0.075,
    cone_half_angle_deg=45.0,
    wall_margin=0.5,
)
L_VERTICES = ((0.0, 0.0), (10.0, 0.0), (10.0, 8.0), (5.0, 8.0), (5.0, 4.0), (0.0, 4.0))
RECT_VERTICES = ((0.0, 0.0), (10.0, 0.0), (10.0, 8.0), (0.0, 8.0))

# Constraint parameters (program defaults: EvalConfig / PsoConfig).
K_MIN = 4
D_MIN = 0.5

# README [pso] section for the L room.
README_PSO = dict(swarm_size=60, iterations=60, m_max=16, m_init_min=11, m_init_max=14,
                  n_types=2, seed=0)
# README [sim] section without its seed list, and its [path].
README_SIM = dict(n_particles=2000, sigma_d=0.02, sigma_theta_deg=5.0, step=0.2, burn_in=20)
README_PATH = ((1.0, 1.0), (9.0, 1.0), (9.0, 7.0))

# Placement batches: (room vertices, count, reflector-count range, rng stream id).
BATCHES = {
    "evaluate-rect": (RECT_VERTICES, 25, (18, 24), 1),
    "simulate-L": (L_VERTICES, 2, (16, 22), 2),
}

# Safety slack of the generator's feasibility test, so that the program's
# closed-set comparisons agree with the oracle on every kept placement.
_SLACK = 1e-3
_JITTER = 0.8  # jitter span as a fraction of the lattice spacing


def config_text(vertices, sections: dict[str, dict] | None = None, path=None) -> str:
    """Room config in the program's file format, plus optional extra sections."""
    def entries(values):
        return [f"{k} = {v if isinstance(v, str) else repr(v)}" for k, v in values.items()]

    lines = ["[room]"] + entries(ROOM_PARAMS)
    lines += ["", "[vertices]"] + [f"{x!r} {y!r}" for x, y in vertices]
    for name, values in (sections or {}).items():
        lines += ["", f"[{name}]"] + entries(values)
    if path is not None:
        lines += ["", "[path]"] + [f"{x!r} {y!r}" for x, y in path]
    return "\n".join(lines) + "\n"


def placement_text(xy, types) -> str:
    """A placement in the program's file format."""
    lines = [f"m = {len(xy)}", "n_types = 2", f"z_l = {ROOM_PARAMS['z_l']!r}",
             "# index x y type"]
    lines += [f"{i} {float(x)!r} {float(y)!r} {int(t)}" for i, ((x, y), t) in enumerate(zip(xy, types))]
    return "\n".join(lines) + "\n"


# --- brute-force geometry oracle ------------------------------------------------


def _edges(vertices):
    a = np.asarray(vertices, dtype=float)
    return a, np.roll(a, -1, axis=0)


def inside(vertices, pts) -> np.ndarray:
    """Even-odd ray casting (points exactly on an edge are unspecified)."""
    a, b = _edges(vertices)
    px, py = pts[:, 0:1], pts[:, 1:2]
    straddle = (a[:, 1] > py) != (b[:, 1] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = a[:, 0] + (py - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
    return (np.sum(straddle & (px < x_cross), axis=1) % 2) == 1


def edge_distance(vertices, pts) -> np.ndarray:
    """Distance from each point to the nearest polygon edge."""
    a, b = _edges(vertices)
    e = b - a
    d = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("nvk,vk->nv", d, e) / np.einsum("vk,vk->v", e, e), 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * e[None, :, :]
    return np.linalg.norm(pts[:, None, :] - closest, axis=2).min(axis=1)


def lattice(vertices) -> np.ndarray:
    """Grid element centres: bounding-box lattice at half-cell offset, inside the room."""
    g = ROOM_PARAMS["grid_size"]
    v = np.asarray(vertices, dtype=float)
    (xmin, ymin), (xmax, ymax) = v.min(axis=0), v.max(axis=0)
    nx = max(1, math.ceil((xmax - xmin) / g - 1e-9))
    ny = max(1, math.ceil((ymax - ymin) / g - 1e-9))
    cols, rows = np.meshgrid(np.arange(nx), np.arange(ny))
    pts = np.column_stack([xmin + (cols.ravel() + 0.5) * g, ymin + (rows.ravel() + 0.5) * g])
    return pts[inside(v, pts)]


def brute_masks(vertices, xy, elements, radius_slack: float = 0.0) -> np.ndarray:
    """(m, n) visibility: inside the detection cone and no wall strictly crossed.

    A segment that only touches a wall or grazes a vertex counts as visible,
    matching the program's closed-set convention.
    """
    radius = (ROOM_PARAMS["z_l"] - ROOM_PARAMS["z_r"]) * math.tan(
        math.radians(ROOM_PARAMS["cone_half_angle_deg"])) - radius_slack
    xy = np.asarray(xy, dtype=float)
    out = np.hypot(elements[None, :, 0] - xy[:, 0:1], elements[None, :, 1] - xy[:, 1:2]) <= radius
    a, b = _edges(vertices)
    for q, row in zip(xy, out):
        for p2, q2 in zip(a, b):
            d1 = (q2[0] - p2[0]) * (q[1] - p2[1]) - (q2[1] - p2[1]) * (q[0] - p2[0])
            d2 = (q2[0] - p2[0]) * (elements[:, 1] - p2[1]) - (q2[1] - p2[1]) * (elements[:, 0] - p2[0])
            d3 = (elements[:, 0] - q[0]) * (p2[1] - q[1]) - (elements[:, 1] - q[1]) * (p2[0] - q[0])
            d4 = (elements[:, 0] - q[0]) * (q2[1] - q[1]) - (elements[:, 1] - q[1]) * (q2[0] - q[0])
            row &= ~(((d1 * d2) < -1e-12) & ((d3 * d4) < -1e-12))
    return out


def feasible(vertices, xy, elements) -> bool:
    """Coverage, spacing and margin constraints, each with the safety slack."""
    xy = np.asarray(xy, dtype=float)
    margin = ROOM_PARAMS["wall_margin"] + _SLACK
    if not (np.all(inside(vertices, xy)) and np.all(edge_distance(vertices, xy) >= margin)):
        return False
    gaps = np.linalg.norm(xy[:, None, :] - xy[None, :, :], axis=2)
    if np.min(gaps[np.triu_indices(len(xy), k=1)]) < D_MIN + _SLACK:
        return False
    return bool(brute_masks(vertices, xy, elements, _SLACK).sum(axis=0).min() >= K_MIN)


# --- generator -------------------------------------------------------------------


def jittered_lattice(vertices, count: int, m_range, seed: int, stream: int) -> list[dict]:
    """``count`` distinct feasible placements from a seeded jittered lattice.

    Per draw: pick m uniformly in ``m_range``; lay a square lattice of spacing
    sqrt(margin area / 1.2 m) at a random phase; choose m of its points inside the
    margin interior; jitter each uniformly by up to +-0.4 spacing; keep the
    draw when every point stays in the margin interior and the placement is
    feasible. Types alternate 0, 1 by index (the program's equal split).
    """
    rng = np.random.default_rng([seed, stream])
    v = np.asarray(vertices, dtype=float)
    elements = lattice(vertices)
    margin = ROOM_PARAMS["wall_margin"] + _SLACK
    (xmin, ymin), (xmax, ymax) = v.min(axis=0), v.max(axis=0)
    probe = rng.uniform([xmin, ymin], [xmax, ymax], size=(20000, 2))
    margin_share = np.mean(inside(v, probe) & (edge_distance(v, probe) >= margin))
    margin_area = margin_share * (xmax - xmin) * (ymax - ymin)
    out = []
    while len(out) < count:
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        s = math.sqrt(margin_area / (1.2 * m))
        phase = rng.uniform(0.0, s, size=2)
        gx = np.arange(xmin + phase[0], xmax, s)
        gy = np.arange(ymin + phase[1], ymax, s)
        pts = np.array([(x, y) for y in gy for x in gx])
        ok = inside(v, pts) & (edge_distance(v, pts) >= margin)
        pts = pts[ok]
        if len(pts) < m:
            continue
        xy = pts[np.sort(rng.choice(len(pts), size=m, replace=False))]
        xy = xy + rng.uniform(-0.5 * _JITTER * s, 0.5 * _JITTER * s, size=xy.shape)
        if feasible(vertices, xy, elements):
            out.append({"xy": xy.tolist(), "types": [i % 2 for i in range(m)]})
    return out


def generate_batch(name: str, seed: int) -> list[dict]:
    vertices, count, m_range, stream = BATCHES[name]
    return jittered_lattice(vertices, count, m_range, seed, stream)


def generate(seed: int) -> dict[str, list[dict]]:
    return {name: generate_batch(name, seed) for name in BATCHES}


def batch(name: str, seed: int) -> list[dict]:
    """The stored batch for the default seed, a freshly generated one otherwise."""
    if seed == DEFAULT_SEED:
        return json.loads(DATA_FILE.read_text())["placements"][name]
    return generate_batch(name, seed)


def main():
    batches = generate(DEFAULT_SEED)
    lines = ["{", f'"generator": {json.dumps(GENERATOR)},', f'"seed": {DEFAULT_SEED},', '"placements": {']
    for b, (name, placements) in enumerate(batches.items()):
        lines.append(f"{json.dumps(name)}: [")
        lines += [json.dumps(p) + ("," if i + 1 < len(placements) else "") for i, p in enumerate(placements)]
        lines.append("]" + ("," if b + 1 < len(batches) else ""))
    lines += ["}", "}"]
    DATA_FILE.parent.mkdir(parents=True, exist_ok=True)
    DATA_FILE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
