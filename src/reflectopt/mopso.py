"""Extended multi-objective particle swarm optimizer for reflector placement.

Follows the OMOPSO pattern (Pareto archive, crowding-based leaders, per-update
random inertia/acceleration) extended with a permutation-invariant velocity
update, physically inspired constraint repair after every position update,
and dimension mutations that add or remove reflectors, so placements of
different sizes compete in one swarm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .assign import align_leader
from .geom import Grid, RoomModel, build_grid
from .objectives import EvalConfig, evaluate
from .placement import Placement, coverage_floor, placement_masks
from .repair import random_feasible, repair, sample_in_margin

Objectives = tuple[float, float]

# OMOPSO's ranges for the inertia weight W and the cognitive and social
# coefficients C1 and C2, each drawn anew for every velocity update.
_W_RANGE = (0.1, 0.5)
_C1_RANGE = (1.5, 2.0)
_C2_RANGE = (1.5, 2.0)


def dominates(a: Objectives, b: Objectives) -> bool:
    """Pareto dominance: no worse in both objectives, strictly better in one."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


@dataclass
class SwarmParticle:
    placement: Placement
    velocity: np.ndarray  # (M, 2) m/iteration
    pbest: Placement
    pbest_objectives: Objectives

    def check_dimensions(self):
        if len(self.velocity) != self.placement.m:
            raise AssertionError("velocity length diverged from placement size")


@dataclass(frozen=True)
class ArchiveEntry:
    placement: Placement
    f1: float
    f2: float

    @property
    def objectives(self) -> Objectives:
        return (self.f1, self.f2)


class ParetoArchive:
    """Bounded set of mutually non-dominated placements, truncated by crowding distance."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("archive capacity must be at least 2")
        self.capacity = capacity
        self.entries: list[ArchiveEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def update(self, placement: Placement, f1: float, f2: float) -> bool:
        """Insert a candidate; evict entries it dominates. False if rejected."""
        cand = (f1, f2)
        for e in self.entries:
            if dominates(e.objectives, cand):
                return False
        self.entries = [e for e in self.entries if not dominates(cand, e.objectives)]
        self.entries.append(ArchiveEntry(placement=placement, f1=f1, f2=f2))
        if len(self.entries) > self.capacity:  # drop the most crowded, never a best f1 or f2
            objs = np.array([e.objectives for e in self.entries], dtype=float)
            crowd = _crowding_distances(objs)
            protected = {int(np.argmin(objs[:, 0])), int(np.argmin(objs[:, 1]))}
            order = [i for i in range(len(self.entries)) if i not in protected]
            del self.entries[min(order, key=lambda i: (crowd[i], i))]
        return True

    def select_leader(self, rng: np.random.Generator) -> Placement:
        """Binary tournament on crowding distance (ties broken randomly)."""
        if not self.entries:
            raise ValueError("cannot select a leader from an empty archive")
        crowd = _crowding_distances([e.objectives for e in self.entries])
        i = int(rng.integers(len(self.entries)))
        j = int(rng.integers(len(self.entries)))
        if crowd[i] > crowd[j]:
            return self.entries[i].placement
        if crowd[j] > crowd[i]:
            return self.entries[j].placement
        return self.entries[i].placement if rng.random() < 0.5 else self.entries[j].placement


def _crowding_distances(objectives) -> np.ndarray:
    """NSGA-II crowding distance per row of an (n, k) objective array.

    Both ends of each objective's stable sort get inf; the other points add
    the gap between their sorted neighbours over the span (none if zero).
    """
    objs = np.asarray(objectives, dtype=float)
    n = len(objs)
    if n <= 2:
        return np.full(n, math.inf)
    cols = np.arange(objs.shape[1])
    order = np.argsort(objs, axis=0, kind="stable")
    vals = objs[order, cols]
    span = vals[-1] - vals[0]
    gaps = np.zeros((n - 2, len(cols)))
    np.divide(vals[2:] - vals[:-2], span, out=gaps, where=span > 0)
    contrib = np.zeros_like(objs)
    contrib[order[1:-1], cols] = gaps
    crowd = contrib.sum(axis=1)
    crowd[order[[0, -1]]] = math.inf
    return crowd


@dataclass(frozen=True)
class PsoConfig:
    """All optimizer knobs, including the shared constraint parameters."""

    swarm_size: int = 60
    iterations: int = 60
    p_up: float = 0.05
    p_down: float = 0.05
    m_max: int = EvalConfig.m_max
    m_init_range: tuple[int, int] = (27, 32)
    n_types: int = 2
    n: int = EvalConfig.n  # fingerprint size
    k_min: int = EvalConfig.k_min
    d_min: float = EvalConfig.d_min
    archive_capacity: int = 100
    v_max: float | None = None  # None: 2 * room bbox diagonal / iterations
    seed: int = 0
    snapshot_every: int = 10

    def __post_init__(self):
        if self.swarm_size < 1:
            raise ValueError("swarm_size must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.v_max is not None and not (math.isfinite(self.v_max) and self.v_max > 0):
            raise ValueError("v_max must be finite and positive")
        if not (0 <= self.p_up <= 1 and 0 <= self.p_down <= 1 and self.p_up + self.p_down <= 1):
            raise ValueError("mutation probabilities must lie in [0, 1] and sum to <= 1")
        if self.m_init_range[0] < 1 or self.m_init_range[1] > self.m_max:
            raise ValueError("m_init_range must lie within [1, m_max]")
        if self.n_types not in (1, 2):
            raise ValueError("n_types must be 1 or 2")
        if self.archive_capacity < 2:
            raise ValueError("archive_capacity must be at least 2")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be non-negative")
        self.eval_config()  # checks n, k_min and d_min

    def eval_config(self) -> EvalConfig:
        return EvalConfig(n=self.n, k_min=self.k_min, d_min=self.d_min, m_max=self.m_max)

    def resolve_v_max(self, room: RoomModel) -> float:
        if self.v_max is not None:
            return self.v_max
        xmin, ymin, xmax, ymax = room.boundary.bounds
        diag = math.hypot(xmax - xmin, ymax - ymin)
        return 2.0 * diag / max(1, self.iterations)


def velocity_update(
    particle: SwarmParticle,
    leader: Placement,
    config: PsoConfig,
    rng: np.random.Generator,
    v_max: float,
) -> np.ndarray:
    """Inertia + cognitive + social velocity with aligned leader coordinates.

    W, C1, C2 and the scalar random factors r1, r2 are drawn fresh for every
    update; each velocity coordinate is clamped to +-v_max.
    """
    w = rng.uniform(*_W_RANGE)
    c1 = rng.uniform(*_C1_RANGE)
    c2 = rng.uniform(*_C2_RANGE)
    r1 = rng.random()
    r2 = rng.random()
    constrained = config.n_types == 2
    toward_pbest = align_leader(particle.placement, particle.pbest, constrained) - particle.placement.xy
    toward_leader = align_leader(particle.placement, leader, constrained) - particle.placement.xy
    v = w * particle.velocity + c1 * r1 * toward_pbest + c2 * r2 * toward_leader
    return np.clip(v, -v_max, v_max)


def position_update(
    particle: SwarmParticle,
    room: RoomModel,
    grid: Grid,
    config: EvalConfig,
    rng: np.random.Generator,
) -> Placement:
    """Add the velocity to the placement coordinates, then repair."""
    moved = particle.placement.with_xy(particle.placement.xy + particle.velocity)
    repaired, _, _ = repair(moved, room, grid, config, rng)
    return repaired


def upmutate(
    particle: SwarmParticle,
    room: RoomModel,
    config: PsoConfig,
    rng: np.random.Generator,
    v_max: float,
) -> SwarmParticle:
    """Append a reflector at a random margin-respecting position.

    The new reflector's type keeps the equal-split rule; its velocity is a
    fresh random vector. A particle already at m_max is returned unchanged.
    """
    pl = particle.placement
    if pl.m >= config.m_max:
        return particle
    pos = sample_in_margin(room, 1, rng)[0]
    if config.n_types == 1:
        new_type = 0
    else:
        c0 = int((pl.types == 0).sum())
        c1 = int((pl.types == 1).sum())
        new_type = 0 if c0 <= c1 else 1
    new_v = rng.uniform(-v_max, v_max, size=2)
    placement = Placement(
        xy=np.vstack([pl.xy, pos[None, :]]),
        types=np.append(pl.types, new_type),
        z=pl.z,
    )
    return replace(particle, placement=placement,
                   velocity=np.vstack([particle.velocity, new_v[None, :]]))


def downmutate(
    particle: SwarmParticle,
    room: RoomModel,
    grid: Grid,
    config: PsoConfig,
    rng: np.random.Generator,
) -> SwarmParticle:
    """Remove the most redundant reflector, reverting if repair then fails.

    The reflector removed is the one of the over-represented type closest to
    the centroid of the largest grid region with maximal visible-reflector
    count (4-connected regions from ``Grid.components``; of equal sizes, the
    one with the lowest element); removing there avoids creating coverage
    holes. A particle at the coverage floor (see ``coverage_floor``) is
    returned unchanged.
    """
    pl = particle.placement
    if pl.m <= coverage_floor(grid, room, config.k_min):
        return particle  # one fewer would lie below the coverage floor
    masks = placement_masks(pl, grid, room, strict=False)
    counts = masks.sum(axis=0)
    attain = counts == counts.max()
    roots = grid.components(attain)
    largest = np.argmax(np.bincount(roots[attain]))  # region sizes by root; ties: lowest root
    centroid = grid.xy[roots == largest].mean(axis=0)

    c0 = int((pl.types == 0).sum())
    c1 = int((pl.types == 1).sum())
    candidates = np.flatnonzero(pl.types == (0 if c0 >= c1 else 1))  # the over-represented type
    d = np.linalg.norm(pl.xy[candidates] - centroid, axis=1)
    remove = int(candidates[np.argmin(d)])

    keep = np.ones(pl.m, dtype=bool)
    keep[remove] = False
    reduced = Placement(xy=pl.xy[keep], types=pl.types[keep], z=pl.z)
    repaired, feasible, _ = repair(reduced, room, grid, config.eval_config(), rng)
    if not feasible:
        return particle
    return replace(particle, placement=repaired, velocity=particle.velocity[keep])


@dataclass(frozen=True)
class IterationLog:
    iteration: int
    best_f1: float
    best_f2: float
    archive_size: int
    evaluations: int


def run(
    room: RoomModel,
    config: PsoConfig,
    snapshot_cb=None,
    initial_placements: list[Placement] | None = None,
) -> tuple[ParetoArchive, list[IterationLog]]:
    """Run the optimizer and return the Pareto archive plus per-iteration log.

    Leaders, velocities, repairs, mutations and evaluations advance serially
    in particle index order from one seeded generator, so a fixed seed gives
    identical output. ``initial_placements`` overrides the random
    initialization (used by permutation-invariance checks).
    """
    rng = np.random.default_rng(config.seed)
    grid = build_grid(room)
    eval_cfg = config.eval_config()
    v_max = config.resolve_v_max(room)

    if initial_placements is None:
        placements = []
        redraws = 3 * (config.m_init_range[1] - config.m_init_range[0] + 1)
        for _ in range(config.swarm_size):
            last_error = None
            for _ in range(redraws):
                m = int(rng.integers(config.m_init_range[0], config.m_init_range[1] + 1))
                try:
                    placements.append(random_feasible(room, m, config.n_types, rng, grid, eval_cfg))
                    break
                except RuntimeError as exc:
                    last_error = exc  # size infeasible for this room; redraw m
                except ValueError as exc:  # no margin interior to sample: no m helps
                    raise RuntimeError(f"swarm initialization failed: {exc}") from exc
            else:
                raise RuntimeError(f"swarm initialization failed: {last_error}")
    else:
        placements = list(initial_placements)

    objectives = [_evaluate(pl, room, grid, eval_cfg) for pl in placements]
    particles = [
        SwarmParticle(
            placement=pl,
            velocity=np.zeros((pl.m, 2)),
            pbest=pl,
            pbest_objectives=obj,
        )
        for pl, obj in zip(placements, objectives)
    ]
    archive = ParetoArchive(capacity=config.archive_capacity)
    for pl, obj in zip(placements, objectives):
        archive.update(pl, *obj)

    evaluations = len(particles)
    log = [_log_entry(0, archive, evaluations)]

    for iteration in range(1, config.iterations + 1):
        # Phase A (serial): leaders, velocities, positions, mutations.
        for p in particles:
            leader = archive.select_leader(rng)
            p.velocity = velocity_update(p, leader, config, rng, v_max)
            p.placement = position_update(p, room, grid, eval_cfg, rng)
            u = rng.random()
            if u < config.p_up:
                mutated = upmutate(p, room, config, rng, v_max)
            elif u < config.p_up + config.p_down:
                mutated = downmutate(p, room, grid, config, rng)
            else:
                mutated = p
            p.placement = mutated.placement
            p.velocity = mutated.velocity
            p.check_dimensions()

        # Phase B: objective evaluations, which draw no random numbers.
        objs = [_evaluate(p.placement, room, grid, eval_cfg) for p in particles]
        evaluations += len(particles)

        # Phase C (serial): pbest and archive updates in particle order.
        for p, obj in zip(particles, objs):
            if dominates(obj, p.pbest_objectives):
                p.pbest, p.pbest_objectives = p.placement, obj
            elif not dominates(p.pbest_objectives, obj):
                if rng.random() < 0.5:
                    p.pbest, p.pbest_objectives = p.placement, obj
            archive.update(p.placement, *obj)

        log.append(_log_entry(iteration, archive, evaluations))
        if snapshot_cb is not None and config.snapshot_every > 0 and iteration % config.snapshot_every == 0:
            snapshot_cb(iteration, archive)

    return archive, log


def _log_entry(iteration: int, archive: ParetoArchive, evaluations: int) -> IterationLog:
    return IterationLog(
        iteration=iteration,
        best_f1=min(e.f1 for e in archive.entries),
        best_f2=min(e.f2 for e in archive.entries),
        archive_size=len(archive),
        evaluations=evaluations,
    )


def _evaluate(pl: Placement, room: RoomModel, grid: Grid, eval_cfg: EvalConfig) -> Objectives:
    masks = placement_masks(pl, grid, room, strict=False)
    return evaluate(pl, room, grid, masks, eval_cfg)
