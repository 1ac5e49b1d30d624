"""Scenario generation and end-to-end tracking evaluation.

Synthesizes a ground-truth robot path through the room, simulates noisy
fingerprint measurements and odometry along it, runs the localization
filter, and reports RMSE statistics per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amcl import AmclConfig, FingerprintModel, OdometryInput, Pose, check_noise, track, wrap_angle
from .geom import Grid, RoomModel, sight_lines_clear
from .objectives import EvalConfig, Fingerprint, nearest_fingerprint
from .placement import Placement

BURN_IN = 20  # estimates left out of rmse_after_burn_in while the filter converges
STEP = 0.2  # meters between position estimates
TruthPath = tuple[Pose, list[tuple[Pose, OdometryInput]]]  # gen_path: start pose, steps
HISTOGRAM_BIN = 0.05  # error histogram bin width (m)


@dataclass(frozen=True)
class NoiseConfig:
    sigma_meas: float | None = None  # range noise std dev; None -> room.r_res
    sigma_d: float = AmclConfig.sigma_d
    sigma_theta: float = AmclConfig.sigma_theta

    def __post_init__(self):
        check_noise(sigma_meas=self.sigma_meas, sigma_d=self.sigma_d,
                    sigma_theta=self.sigma_theta)


def gen_path(waypoints, step: float, room: RoomModel) -> TruthPath:
    """Resample a waypoint polyline at fixed arc-length steps.

    Returns the start pose, the first waypoint with the heading of the first
    segment, and one (truth pose, odometry) pair per step. Odometry rotation
    is the heading change of the step. A final partial step shorter than
    ``step`` is dropped. Raises ValueError for a path that leaves the room or
    is shorter than one step.
    """
    wp = np.asarray(waypoints, dtype=float)
    if len(wp) < 2:
        raise ValueError("need at least two waypoints")
    if not step > 0:
        raise ValueError("path step must be positive")
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
    return Pose(float(wp[0, 0]), float(wp[0, 1]), float(seg_heading[0])), out


def _check_path_inside(wp: np.ndarray, room: RoomModel):
    """Raise unless the waypoint polyline lies in the room (boundary included).

    A segment whose waypoints see each other crosses no wall, so it can only
    leave the room through room vertices on it, as along a wall line across
    a notch; cut at the projections of all vertices, each piece is wholly in
    or out, and its middle decides.
    """
    poly = room.boundary
    if not np.all(poly.contains_points(wp)):
        raise ValueError("waypoint outside the room")
    if not sight_lines_clear(wp[:-1, 0], wp[:-1, 1], wp[1:, 0], wp[1:, 1], room).all():
        raise ValueError("path segment leaves the room")
    for a, b in zip(wp[:-1], wp[1:]):
        d = b - a
        with np.errstate(divide="ignore", invalid="ignore"):  # zero-length: gen_path rejects it
            t = (poly.vertices - a) @ d / (d @ d)
        cuts = np.sort(np.concatenate([[0.0, 1.0], t[(t > 0) & (t < 1)]]))
        if not np.all(poly.contains_points(a + 0.5 * (cuts[:-1] + cuts[1:])[:, None] * d)):
            raise ValueError("path segment leaves the room")


def simulate_measurement(
    cell: int,
    pl: Placement,
    masks: np.ndarray,
    grid: Grid,
    room: RoomModel,
    rng: np.random.Generator,
    n: int = EvalConfig.n,
    sigma: float | None = None,
) -> Fingerprint:
    """Noisy fingerprint at grid element ``cell``, measured from its center.

    Gaussian noise (std sigma, default r_res) is added to the true distances
    of the visible reflectors, and ``nearest_fingerprint`` keeps the n
    smallest. Raises CoverageError when fewer than n are visible.
    """
    sigma = room.r_res if sigma is None else sigma
    vis = np.flatnonzero(masks[:, cell])
    d = np.linalg.norm(pl.positions3d[vis] - grid.centers[cell], axis=1)
    noisy = d + rng.normal(0.0, sigma, size=len(d))
    return nearest_fingerprint(noisy, pl.types[vis], n, room.r_res)


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


def median(values) -> float:
    """``np.median`` of the values, bit for bit, computed without loading numpy.ma."""
    s = sorted(values)
    h = len(s) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


def percentile(values, q: float) -> float:
    """``np.percentile`` (its default linear rule), bit for bit, without loading numpy.ma."""
    s = sorted(values)
    v = (len(s) - 1) * (q / 100)
    i = math.floor(v)
    a, b = s[i], s[min(i + 1, len(s) - 1)]
    t = v - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


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
    def median_rmse(self) -> float:
        return median([t.rmse_after_burn_in for t in self.traces])

    def percentile(self, q: float) -> float:
        return percentile([t.rmse_after_burn_in for t in self.traces], q)

    def error_histogram(self) -> tuple[np.ndarray, np.ndarray]:
        errors = np.concatenate([t.errors[self.burn_in:] for t in self.traces])
        top = max(HISTOGRAM_BIN, errors.max() + HISTOGRAM_BIN)
        edges = np.arange(0.0, top + HISTOGRAM_BIN, HISTOGRAM_BIN)
        counts, edges = np.histogram(errors, bins=edges)
        return counts, edges


def run_experiment(
    room: RoomModel,
    pl: Placement,
    path: TruthPath,
    noise_config: NoiseConfig,
    seeds: list[int],
    *,
    amcl_config: AmclConfig,
    grid: Grid,
    masks: np.ndarray,
    burn_in: int = BURN_IN,
) -> ExperimentReport:
    """Track the robot along the path once per seed and collect RMSE stats.

    ``path`` is the start pose and steps that ``gen_path`` returns. Each
    truth pose is measured at its ``grid.nearest_element``, looked up for
    the whole path in one call: where a pose lies on a cell edge or corner
    and the distances tie exactly, the cell with the lowest element index.
    Measurement, odometry and filter randomness use independent streams
    derived from each seed, so odometry noise realizations are identical
    across placements compared on matched seeds. ``masks`` are the
    placement's visibility masks on ``grid``; every seed's filter scores
    against the one fingerprint model built from them.
    """
    start, steps = path
    truth_poses = [start] + [pose for pose, _ in steps]
    cells = grid.nearest_element(np.array([(p.x, p.y) for p in truth_poses])).tolist()
    model = FingerprintModel(pl, masks, grid, room, amcl_config.n, amcl_config.sigma_r)

    traces = []
    for seed in seeds:
        rng_meas = np.random.default_rng([seed, 0])
        rng_odo = np.random.default_rng([seed, 1])
        rng_filter = np.random.default_rng([seed, 2])

        initial_meas = simulate_measurement(cells[0], pl, masks, grid, room, rng_meas,
                                            amcl_config.n, noise_config.sigma_meas)
        scenario = []
        for (_, odo), cell in zip(steps, cells[1:]):
            noisy_odo = simulate_odometry(odo, rng_odo, noise_config.sigma_d,
                                          noise_config.sigma_theta)
            meas = simulate_measurement(cell, pl, masks, grid, room, rng_meas,
                                        amcl_config.n, noise_config.sigma_meas)
            scenario.append((noisy_odo, meas))

        estimates = track(scenario, room, model, amcl_config, rng_filter, initial_meas)
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
