"""Scenario generation and end-to-end tracking evaluation.

Synthesizes a ground-truth robot path through the room, simulates noisy
fingerprint measurements and odometry along it, runs the localization
filter, and reports RMSE statistics per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .amcl import AmclConfig, Measurement, OdometryInput, Pose, track, wrap_angle
from .geom import Grid, RoomModel, build_grid
from .objectives import EvalConfig, distance_bins
from .placement import Placement, placement_masks

BURN_IN = 20  # estimates left out of rmse_after_burn_in while the filter converges


@dataclass(frozen=True)
class PathConfig:
    waypoints: tuple[tuple[float, float], ...]
    step: float = 0.2  # meters between position estimates


@dataclass(frozen=True)
class NoiseConfig:
    sigma_meas: float | None = None  # range noise std dev; None -> room.r_res
    sigma_d: float = AmclConfig.sigma_d
    sigma_theta: float = AmclConfig.sigma_theta


def gen_path(waypoints, step: float, room: RoomModel | None = None) -> list[tuple[Pose, OdometryInput]]:
    """Resample a waypoint polyline at fixed arc-length steps.

    Returns one (truth pose, odometry) pair per step; the start pose is the
    first waypoint with the heading of the first segment and is not part of
    the returned list. Odometry rotation is the heading change of the step.
    A final partial step shorter than ``step`` is dropped. Raises ValueError
    for a path that leaves the room or is shorter than one step.
    """
    wp = np.asarray(waypoints, dtype=float)
    if len(wp) < 2:
        raise ValueError("need at least two waypoints")
    if not step > 0:
        raise ValueError("path step must be positive")
    if room is not None:
        _check_path_inside(wp, room)

    seg_vec = np.diff(wp, axis=0)
    seg_len = np.linalg.norm(seg_vec, axis=1)
    if np.any(seg_len < 1e-12):
        raise ValueError("degenerate zero-length path segment")
    seg_heading = np.arctan2(seg_vec[:, 1], seg_vec[:, 0])
    total = seg_len.sum()
    n_steps = int(math.floor(total / step + 1e-9))
    if n_steps < 1:
        raise ValueError("path too short for the step size")

    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    out = []
    prev_heading = seg_heading[0]
    for k in range(1, n_steps + 1):
        s = k * step
        seg = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg_len) - 1)
        local = (s - cum[seg]) / seg_len[seg]
        pos = wp[seg] + local * seg_vec[seg]
        heading = seg_heading[seg]
        rotation = float(wrap_angle(heading - prev_heading))
        out.append((Pose(float(pos[0]), float(pos[1]), float(heading)),
                    OdometryInput(distance=step, rotation=rotation)))
        prev_heading = heading
    return out


def _check_path_inside(wp: np.ndarray, room: RoomModel):
    if not np.all(room.boundary.contains_points(wp)):
        raise ValueError("waypoint outside the room")
    for a, b in zip(wp[:-1], wp[1:]):
        n = max(2, int(np.linalg.norm(b - a) / (room.grid_size / 2)) + 1)
        ts = np.linspace(0.0, 1.0, n)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        if not np.all(room.boundary.contains_points(pts)):
            raise ValueError("path segment leaves the room")


def simulate_measurement(
    truth: Pose,
    pl: Placement,
    masks: np.ndarray,
    grid: Grid,
    room: RoomModel,
    rng: np.random.Generator,
    n: int = EvalConfig.n,
    sigma: float | None = None,
) -> Measurement:
    """Noisy fingerprint at the grid cell nearest to the truth pose.

    Gaussian noise (std sigma, default r_res) is added to the true reflector
    distances before rounding; the n smallest noisy distances are selected.
    """
    sigma = room.r_res if sigma is None else sigma
    cell = int(grid.nearest_element(np.array([[truth.x, truth.y]]))[0])
    vis = np.flatnonzero(masks[:, cell])
    if len(vis) < n:
        raise ValueError(f"coverage hole at truth pose: {len(vis)} < {n} reflectors visible")
    d = np.linalg.norm(pl.positions3d[vis] - grid.centers[cell], axis=1)
    noisy = d + rng.normal(0.0, sigma, size=len(d))
    order = np.argsort(noisy, kind="stable")[:n]
    bins = distance_bins(noisy[order], room.r_res)
    types = pl.types[vis[order]]
    entries = tuple(sorted((int(b), int(t)) for b, t in zip(bins, types)))
    return Measurement(entries=entries)


def simulate_odometry(
    truth_step: OdometryInput,
    rng: np.random.Generator,
    sigma_d: float = NoiseConfig.sigma_d,
    sigma_theta: float = NoiseConfig.sigma_theta,
) -> OdometryInput:
    """Add zero-mean Gaussian noise to the true odometry."""
    return OdometryInput(
        distance=truth_step.distance + rng.normal(0.0, sigma_d),
        rotation=truth_step.rotation + rng.normal(0.0, sigma_theta),
    )


def rmse(truth: list[Pose], estimates: list[Pose]) -> float:
    """Root mean squared 2D position error."""
    if len(truth) != len(estimates):
        raise ValueError("truth and estimate lists differ in length")
    t = np.array([[p.x, p.y] for p in truth])
    e = np.array([[p.x, p.y] for p in estimates])
    return float(np.sqrt(np.mean(np.sum((t - e) ** 2, axis=1))))


@dataclass(frozen=True)
class RunTrace:
    seed: int
    truth: list[Pose]
    estimates: list[Pose]
    errors: np.ndarray  # per-step 2D error norm (including the initial step)
    rmse_full: float
    rmse_after_burn_in: float


@dataclass(frozen=True)
class ExperimentReport:
    traces: list[RunTrace]
    burn_in: int

    @property
    def rmse_values(self) -> np.ndarray:
        return np.array([t.rmse_after_burn_in for t in self.traces])

    @property
    def median_rmse(self) -> float:
        return float(np.median(self.rmse_values))

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.rmse_values, q))

    def error_histogram(self, bin_width: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
        errors = np.concatenate([t.errors[self.burn_in:] for t in self.traces])
        top = max(bin_width, errors.max() + bin_width)
        edges = np.arange(0.0, top + bin_width, bin_width)
        counts, edges = np.histogram(errors, bins=edges)
        return counts, edges


def run_experiment(
    room: RoomModel,
    pl: Placement,
    path_config: PathConfig,
    noise_config: NoiseConfig,
    seeds: list[int],
    amcl_config: AmclConfig | None = None,
    burn_in: int = BURN_IN,
    grid: Grid | None = None,
    masks: np.ndarray | None = None,
) -> ExperimentReport:
    """Track the robot along the path once per seed and collect RMSE stats.

    Measurement, odometry and filter randomness use independent streams
    derived from each seed, so odometry noise realizations are identical
    across placements compared on matched seeds. ``masks`` are the
    placement's visibility masks on ``grid``, computed when not given.
    """
    if grid is None:
        grid = build_grid(room)
    if masks is None:
        masks = placement_masks(pl, grid, room)
    if amcl_config is None:
        amcl_config = AmclConfig()
    steps = gen_path(path_config.waypoints, path_config.step, room)
    sigma_meas = noise_config.sigma_meas if noise_config.sigma_meas is not None else room.r_res
    start = Pose(*path_config.waypoints[0], steps[0][0].heading)
    truth_poses = [start] + [pose for pose, _ in steps]

    traces = []
    for seed in seeds:
        rng_meas = np.random.default_rng([seed, 0])
        rng_odo = np.random.default_rng([seed, 1])
        rng_filter = np.random.default_rng([seed, 2])

        initial_meas = simulate_measurement(
            start, pl, masks, grid, room, rng_meas, amcl_config.n, sigma_meas
        )
        scenario = []
        for pose, odo in steps:
            noisy_odo = simulate_odometry(odo, rng_odo, noise_config.sigma_d,
                                          noise_config.sigma_theta)
            meas = simulate_measurement(pose, pl, masks, grid, room, rng_meas,
                                        amcl_config.n, sigma_meas)
            scenario.append((noisy_odo, meas))

        estimates = track(scenario, room, pl, amcl_config, rng_filter,
                          grid=grid, masks=masks, initial_measurement=initial_meas)
        errors = np.array([
            math.hypot(t.x - e.x, t.y - e.y) for t, e in zip(truth_poses, estimates)
        ])
        traces.append(RunTrace(
            seed=seed,
            truth=truth_poses,
            estimates=estimates,
            errors=errors,
            rmse_full=rmse(truth_poses, estimates),
            rmse_after_burn_in=rmse(truth_poses[burn_in:], estimates[burn_in:]),
        ))
    return ExperimentReport(traces=traces, burn_in=burn_in)
