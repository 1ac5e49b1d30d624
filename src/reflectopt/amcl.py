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
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .geom import Grid, Polygon, RoomModel
from .objectives import EvalConfig, Fingerprint, distance_bins, nearest_visible
from .placement import Placement

_WEIGHT_FLOOR = 1e-12  # measurement weight in a coverage hole, and the least weight
_MISMATCH_FACTOR = 1e-3  # weight factor per unmatched fingerprint entry


class Pose(NamedTuple):
    x: float
    y: float
    heading: float  # radians in (-pi, pi]


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

    @cached_property
    def heading_vectors(self) -> np.ndarray:
        """(2, n) rows cos and sin of the headings, cached: a set's headings stay as made."""
        return np.array((np.cos(self.headings), np.sin(self.headings)))


@dataclass(frozen=True)
class AmclConfig:
    n_particles: int = 2000
    n: int = EvalConfig.n  # fingerprint size; the CLI takes it from [pso]
    sigma_r: float | None = None  # range likelihood std dev; None -> room.r_res
    sigma_d: float = 0.02  # odometry distance noise (m)
    sigma_theta: float = math.radians(5.0)  # odometry rotation noise (rad)

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be at least 1")
        if self.n < 1:
            raise ValueError("fingerprint size n must be at least 1")
        if self.sigma_r is not None and not (math.isfinite(self.sigma_r) and self.sigma_r > 0):
            raise ValueError("sigma_r must be finite and positive")
        check_noise(sigma_d=self.sigma_d, sigma_theta=self.sigma_theta)


def check_noise(**sigmas: float | None):
    """Raise ValueError for a noise standard deviation that is negative or not finite."""
    for name, sigma in sigmas.items():
        if sigma is not None and not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError(f"{name} must be finite and non-negative")


def wrap_angle(theta):
    """Wrap radians into (-pi, pi]."""
    y = np.asarray(-np.asarray(theta) + math.pi)  # np.mod keeps [0, 2 pi) as it is
    np.mod(y, 2.0 * math.pi, out=y, where=~((y >= 0.0) & (y < 2.0 * math.pi)))
    return -(y - math.pi)


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
    boundary: Polygon,
) -> ParticleSet:
    """Propagate particles by odometry plus Gaussian noise.

    Particles that would leave the room's ``boundary`` are projected back
    onto the nearest boundary point and their weight is scaled down by 0.1.
    """
    sigma_d, sigma_theta = noise
    n = len(particles)
    headings = wrap_angle(particles.headings + odo.rotation + rng.normal(0.0, sigma_theta, n))
    dist = odo.distance + rng.normal(0.0, sigma_d, n)
    moved = ParticleSet(np.empty((n, 2)), headings, particles.weights.copy())
    positions = moved.positions
    np.multiply(dist, moved.heading_vectors, out=positions.T)
    positions += particles.positions
    outside = ~boundary.contains_points(positions)
    if outside.any():
        positions[outside] = boundary.nearest_boundary_points(positions[outside])
        moved.weights[outside] *= 0.1
    return moved


class FingerprintModel:
    """Expected fingerprints per grid cell, as arrays for matching by type.

    ``bins`` (n_elements, n) holds each cell's expected distance bins sorted
    by (type, bin), so its first ``n_type0`` entries are the type-0 group and
    the rest the type-1 group. ``valid`` is false in coverage holes, where
    fewer than n reflectors are visible.
    """

    def __init__(self, pl: Placement, masks: np.ndarray, grid: Grid, room: RoomModel,
                 n: int, sigma_r: float | None = None):
        self.grid = grid
        self.r_res = room.r_res
        self.sigma_r = room.r_res if sigma_r is None else sigma_r
        order, dsel = nearest_visible(pl, masks, grid, n)
        self.valid = np.all(np.isfinite(dsel), axis=1)
        bins = distance_bins(np.where(np.isfinite(dsel), dsel, 0.0), room.r_res)
        types = pl.types[order]
        self.bins = np.take_along_axis(bins, np.lexsort((bins, types), axis=1), axis=1)
        self.n_type0 = np.sum(types == 0, axis=1)


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


def _match_cost_sq_rows(meas: tuple[int, ...], expect: np.ndarray) -> tuple[np.ndarray, int]:
    """``_match_cost_sq`` of one sorted bin tuple against every row of ``expect``.

    ``expect`` is (K, e) with sorted rows. Runs the same lexicographic
    (sum |d|, sum d^2) monotone-matching recursion on int64 columns and
    returns (sum of squared matched differences per row, unmatched count).
    """
    meas_row = np.array(meas, dtype=np.int64)[None, :]  # broadcasts against the K rows
    a, b = (meas_row, expect) if len(meas) <= expect.shape[1] else (expect, meas_row)
    p, q = a.shape[1], b.shape[1]
    zero = np.zeros(len(expect), dtype=np.int64)
    prev = [(zero, zero)] * (q + 1)  # zero a-entries matched
    for i in range(1, p + 1):
        cur = [None] * (q + 1)
        for j in range(i, q - p + i + 1):  # the p - i entries left need the rest of b
            d = np.abs(a[:, i - 1] - b[:, j - 1])
            take_abs, take_sq = prev[j - 1][0] + d, prev[j - 1][1] + d * d
            if j > i:
                skip_abs, skip_sq = cur[j - 1]
                take = (take_abs < skip_abs) | ((take_abs == skip_abs) & (take_sq < skip_sq))
                take_abs = np.where(take, take_abs, skip_abs)
                take_sq = np.where(take, take_sq, skip_sq)
            cur[j] = (take_abs, take_sq)
        prev = cur
    return prev[q][1], q - p


def _cell_likelihoods(cells: np.ndarray, meas: Fingerprint,
                      model: FingerprintModel) -> np.ndarray:
    """Measurement weight at each of the given grid cells.

    Each cell's expected fingerprint is matched against the measurement type
    group by type group (minimum-cost matching on |bin difference|); matched
    pairs contribute Gaussian kernels of the bin residual, unmatched entries
    a fixed small factor. Cells are matched in groups of equal type-0 count,
    so that every group shares its type-group sizes (where both equal the
    measurement's, the matching is the identity); the weight is computed
    once per distinct squared total of a group.
    """
    meas_groups = (
        tuple(sorted(b for b, t in meas.entries if t == 0)),
        tuple(sorted(b for b, t in meas.entries if t == 1)),
    )
    scale = (model.r_res / model.sigma_r) ** 2
    like = np.full(len(cells), _WEIGHT_FLOOR)
    rows = np.flatnonzero(model.valid[cells])
    n_type0 = model.n_type0[cells[rows]]
    for k in np.flatnonzero(np.bincount(n_type0)):  # np.unique would load numpy.ma
        group = rows[n_type0 == k]
        expect = model.bins[cells[group]]
        if k == len(meas_groups[0]) and expect.shape[1] == len(meas.entries):
            sq, mismatch = np.square(expect - (meas_groups[0] + meas_groups[1])).sum(axis=1), 1.0
        else:
            sq0, unmatched0 = _match_cost_sq_rows(meas_groups[0], expect[:, :k])
            sq1, unmatched1 = _match_cost_sq_rows(meas_groups[1], expect[:, k:])
            sq, mismatch = sq0 + sq1, _MISMATCH_FACTOR ** (unmatched0 + unmatched1)
        sq = sq.tolist()
        weight = {v: max(math.exp(-0.5 * scale * v) * mismatch, _WEIGHT_FLOOR) for v in set(sq)}
        like[group] = [weight[v] for v in sq]
    return like


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
    return ParticleSet(particles.positions.take(idx, axis=0), particles.headings.take(idx),
                       np.full(n, 1.0 / n))


def estimate(particles: ParticleSet) -> Pose:
    """Weighted mean position and circular-mean heading."""
    w = particles.weights
    total = w.sum()
    if total <= 0:
        w = np.full(len(particles), 1.0 / len(particles))
        total = 1.0
    w = w / total
    x, y = w @ particles.positions
    cos, sin = particles.heading_vectors
    heading = math.atan2(w @ sin, w @ cos)
    return Pose(float(x), float(y), float(wrap_angle(heading)))


def _weight_update(particles: ParticleSet, meas: Fingerprint,
                   model: FingerprintModel) -> ParticleSet:
    cells = model.grid.nearest_element(particles.positions)
    # np.unique's sorted cells and inverse, from a table over the grid
    present = np.zeros(len(model.grid), dtype=bool)
    present[cells] = True
    unique_cells = np.flatnonzero(present)
    inverse = (np.cumsum(present) - 1)[cells]
    like = _cell_likelihoods(unique_cells, meas, model)
    weights = particles.weights * like[inverse]
    total = weights.sum()
    if total <= 0:
        warnings.warn("measurement wiped out all particles; resetting weights")
        weights = np.full(len(particles), 1.0 / len(particles))
    else:
        weights = weights / total
    particles.weights = weights  # the same set keeps its heading vectors
    return particles


def track(
    scenario: Sequence[tuple[OdometryInput, Fingerprint]],
    room: RoomModel,
    model: FingerprintModel,
    config: AmclConfig,
    rng: np.random.Generator,
    initial_measurement: Fingerprint,
) -> list[Pose]:
    """Initialize, weight by the initial measurement, then resample / predict /
    weight / estimate per step, scoring against the placement's ``model``.

    Returns one pose estimate per scenario step plus the initial estimate.
    """
    noise = (config.sigma_d, config.sigma_theta)
    particles = init_particles(room, config.n_particles, rng)
    particles = _weight_update(particles, initial_measurement, model)
    estimates = [estimate(particles)]
    for odo, meas in scenario:
        particles = resample(particles, rng)
        particles = motion_update(particles, odo, noise, rng, room.boundary)
        particles = _weight_update(particles, meas, model)
        estimates.append(estimate(particles))
    return estimates
