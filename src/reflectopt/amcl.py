"""Monte Carlo localization in fingerprinting mode.

A particle filter estimates the robot pose from noisy reflector-distance
fingerprints: motion prediction from odometry, measurement weighting by
comparing measured against expected fingerprints, low-variance resampling,
and weighted-mean pose estimation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geom import Grid, RoomModel, build_grid
from .objectives import distance_bins, nearest_visible
from .placement import Placement, placement_masks

_WEIGHT_FLOOR = 1e-12  # measurement weight in a coverage hole, and the least weight
_MISMATCH_FACTOR = 1e-3  # weight factor per unmatched fingerprint entry


class Pose(NamedTuple):
    x: float
    y: float
    heading: float  # radians in (-pi, pi]


class Measurement(NamedTuple):
    """Canonical fingerprint measurement: sorted (distance_bin, type) pairs."""

    entries: tuple[tuple[int, int], ...]


class OdometryInput(NamedTuple):
    distance: float  # meters
    rotation: float  # radians


@dataclass
class ParticleSet:
    """Pose particles as arrays: positions (n, 2), headings (n,), weights (n,)."""

    positions: np.ndarray
    headings: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class AmclConfig:
    n_particles: int = 2000
    n: int = 4  # fingerprint size
    sigma_r: float | None = None  # range likelihood std dev; None -> room.r_res
    sigma_d: float = 0.02  # odometry distance noise (m)
    sigma_theta: float = math.radians(5.0)  # odometry rotation noise (rad)


def wrap_angle(theta):
    """Wrap radians into (-pi, pi]."""
    return -(np.mod(-np.asarray(theta) + math.pi, 2.0 * math.pi) - math.pi)


def init_particles(room: RoomModel, n: int, rng: np.random.Generator) -> ParticleSet:
    """n particles uniform over the room area and heading, weights 1/n."""
    if n < 1:
        raise ValueError("need at least one particle")
    xmin, ymin, xmax, ymax = room.boundary.bounds
    positions = np.empty((n, 2))
    filled = 0
    while filled < n:
        batch = max(2 * (n - filled), 16)
        cand = rng.uniform([xmin, ymin], [xmax, ymax], size=(batch, 2))
        cand = cand[room.boundary.contains_points(cand)]
        take = min(len(cand), n - filled)
        positions[filled : filled + take] = cand[:take]
        filled += take
    headings = wrap_angle(rng.uniform(-math.pi, math.pi, size=n))
    return ParticleSet(positions=positions, headings=headings, weights=np.full(n, 1.0 / n))


def motion_update(
    particles: ParticleSet,
    odo: OdometryInput,
    noise: tuple[float, float],
    rng: np.random.Generator,
    room: RoomModel,
) -> ParticleSet:
    """Propagate particles by odometry plus Gaussian noise.

    Particles that would leave the room are projected back onto the nearest
    boundary point and their weight is scaled down by 0.1.
    """
    sigma_d, sigma_theta = noise
    n = len(particles)
    headings = wrap_angle(particles.headings + odo.rotation + rng.normal(0.0, sigma_theta, n))
    dist = odo.distance + rng.normal(0.0, sigma_d, n)
    positions = particles.positions + np.column_stack(
        [dist * np.cos(headings), dist * np.sin(headings)]
    )
    weights = particles.weights.copy()
    outside = ~room.boundary.contains_points(positions)
    if outside.any():
        positions[outside] = room.boundary.nearest_boundary_points(positions[outside])
        weights[outside] *= 0.1
    return ParticleSet(positions=positions, headings=headings, weights=weights)


class FingerprintModel:
    """Expected fingerprints per grid cell, grouped by type for matching."""

    def __init__(self, pl: Placement, masks: np.ndarray, grid: Grid, room: RoomModel,
                 n: int, sigma_r: float | None = None):
        self.grid = grid
        self.n = n
        self.r_res = room.r_res
        self.sigma_r = room.r_res if sigma_r is None else sigma_r
        order, dsel = nearest_visible(pl, masks, grid, n)
        self.valid = np.all(np.isfinite(dsel), axis=1)
        bins = np.where(np.isfinite(dsel), dsel, 0.0)
        bins = distance_bins(bins, room.r_res)
        types = pl.types[order]
        # per cell: sorted bins of each type
        self._groups: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = []
        for i in range(len(grid)):
            if not self.valid[i]:
                self._groups.append(None)
                continue
            b, t = bins[i], types[i]
            self._groups.append((
                tuple(sorted(int(x) for x in b[t == 0])),
                tuple(sorted(int(x) for x in b[t == 1])),
            ))

    def expected_groups(self, cell: int):
        return self._groups[cell]


def _match_cost_sq(meas: tuple[int, ...], expect: tuple[int, ...]) -> tuple[float, int]:
    """Minimum |bin difference| monotone matching of two sorted bin tuples.

    Returns (sum of squared matched differences, number of unmatched
    entries). For sorted sequences and the convex |.| cost a monotone
    alignment attains the assignment optimum; among those the one with the
    smallest squared total is chosen, which makes the result deterministic.
    """
    a, b = (meas, expect) if len(meas) <= len(expect) else (expect, meas)
    p, q = len(a), len(b)
    if p == 0:
        return 0.0, q
    inf = (math.inf, math.inf)
    prev = [(0.0, 0.0)] * (q + 1)  # zero a-entries matched
    for i in range(1, p + 1):
        cur = [inf] * (q + 1)
        for j in range(i, q + 1):
            d = abs(a[i - 1] - b[j - 1])
            take = (prev[j - 1][0] + d, prev[j - 1][1] + d * d)
            skip = cur[j - 1]
            cur[j] = take if take < skip else skip
        prev = cur
    return prev[q][1], q - p


def measurement_likelihood(
    pose: Pose,
    meas: Measurement,
    pl: Placement,
    masks: np.ndarray,
    grid: Grid,
    config: AmclConfig,
    room: RoomModel,
    model: FingerprintModel | None = None,
) -> float:
    """Probability-like weight of a measurement at a hypothetical pose.

    The expected fingerprint of the grid element nearest to the pose is
    matched against the measurement per type group (minimum-cost assignment
    on |bin difference|); matched pairs contribute Gaussian kernels of the
    bin residual, unmatched entries a fixed small factor.
    """
    if model is None:
        model = FingerprintModel(pl, masks, grid, room, config.n, config.sigma_r)
    cell = int(grid.nearest_element(np.array([[pose.x, pose.y]]))[0])
    return _likelihood_at_cell(cell, meas, model)


def _likelihood_at_cell(cell: int, meas: Measurement, model: FingerprintModel) -> float:
    groups = model.expected_groups(cell)
    if groups is None:
        return _WEIGHT_FLOOR
    meas_groups = (
        tuple(sorted(b for b, t in meas.entries if t == 0)),
        tuple(sorted(b for b, t in meas.entries if t == 1)),
    )
    sq_sum = 0.0
    unmatched = 0
    for mg, eg in zip(meas_groups, groups):
        s, u = _match_cost_sq(mg, eg)
        sq_sum += s
        unmatched += u
    scale = (model.r_res / model.sigma_r) ** 2
    weight = math.exp(-0.5 * scale * sq_sum) * _MISMATCH_FACTOR**unmatched
    return max(weight, _WEIGHT_FLOOR)


def resample(particles: ParticleSet, rng: np.random.Generator) -> ParticleSet:
    """Systematic (low-variance) resampling, triggered by low ESS only.

    With normalized weights, resampling happens when the effective sample
    size drops below half the particle count; afterwards weights are uniform.
    """
    w = particles.weights
    total = w.sum()
    if total <= 0:
        warnings.warn("all particle weights zero; resetting to uniform")
        n = len(particles)
        return ParticleSet(
            positions=particles.positions.copy(),
            headings=particles.headings.copy(),
            weights=np.full(n, 1.0 / n),
        )
    w = w / total
    n = len(particles)
    ess = 1.0 / np.sum(w**2)
    if ess >= 0.5 * n:
        return particles
    cum = np.cumsum(w)
    cum[-1] = 1.0
    points = (rng.random() + np.arange(n)) / n
    idx = np.searchsorted(cum, points)
    return ParticleSet(
        positions=particles.positions[idx].copy(),
        headings=particles.headings[idx].copy(),
        weights=np.full(n, 1.0 / n),
    )


def estimate(particles: ParticleSet) -> Pose:
    """Weighted mean position and circular-mean heading."""
    w = particles.weights
    total = w.sum()
    if total <= 0:
        w = np.full(len(particles), 1.0 / len(particles))
        total = 1.0
    w = w / total
    x, y = w @ particles.positions
    heading = math.atan2(w @ np.sin(particles.headings), w @ np.cos(particles.headings))
    return Pose(float(x), float(y), float(wrap_angle(heading)))


def _weight_update(particles: ParticleSet, meas: Measurement,
                   model: FingerprintModel) -> ParticleSet:
    cells = model.grid.nearest_element(particles.positions)
    unique_cells, inverse = np.unique(cells, return_inverse=True)
    like = np.array([
        _likelihood_at_cell(int(c), meas, model) for c in unique_cells
    ])
    weights = particles.weights * like[inverse]
    total = weights.sum()
    if total <= 0:
        warnings.warn("measurement wiped out all particles; resetting weights")
        weights = np.full(len(particles), 1.0 / len(particles))
    else:
        weights = weights / total
    return ParticleSet(positions=particles.positions, headings=particles.headings,
                       weights=weights)


def track(
    scenario: Sequence[tuple[OdometryInput, Measurement]],
    room: RoomModel,
    pl: Placement,
    config: AmclConfig,
    rng: np.random.Generator,
    grid: Grid | None = None,
    masks: np.ndarray | None = None,
    initial_measurement: Measurement | None = None,
) -> list[Pose]:
    """Initialize, then resample / predict / weight / estimate per step.

    Returns one pose estimate per scenario step plus the initial estimate.
    """
    if grid is None:
        grid = build_grid(room)
    if masks is None:
        masks = placement_masks(pl, grid, room)
    model = FingerprintModel(pl, masks, grid, room, config.n, config.sigma_r)
    noise = (config.sigma_d, config.sigma_theta)

    particles = init_particles(room, config.n_particles, rng)
    if initial_measurement is not None:
        particles = _weight_update(particles, initial_measurement, model)
    estimates = [estimate(particles)]
    for odo, meas in scenario:
        particles = resample(particles, rng)
        particles = motion_update(particles, odo, noise, rng, room)
        particles = _weight_update(particles, meas, model)
        estimates.append(estimate(particles))
    return estimates
