"""Reflector placements: type assignment, constraints, visibility queries.

A placement is the decision vector of the optimizer: an ordered list of
reflector (x, y) positions at the shared mounting height, each carrying a
type label in {0, 1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geom import Grid, RoomModel, in_margin, visibility_masks


class Reflector(NamedTuple):
    """One reflector of a placement, with its stable in-placement index."""

    position: np.ndarray  # [x, y, z] (m)
    type: int
    index: int


@dataclass(frozen=True)
class Placement:
    """Ordered reflector set: (M, 2) coordinates, per-reflector types, height."""

    xy: np.ndarray
    types: np.ndarray
    z: float

    def __post_init__(self):
        xy = np.asarray(self.xy, dtype=float).reshape(-1, 2)
        types = np.asarray(self.types, dtype=np.int64).reshape(-1)
        if len(xy) != len(types):
            raise ValueError("xy and types must have matching lengths")
        if len(xy) and not np.all((types == 0) | (types == 1)):
            raise ValueError("reflector types must be 0 or 1")
        xy.flags.writeable = False
        types.flags.writeable = False
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "types", types)

    @property
    def m(self) -> int:
        return len(self.xy)

    @property
    def positions3d(self) -> np.ndarray:
        return np.column_stack([self.xy, np.full(self.m, self.z)])

    def reflectors(self) -> list[Reflector]:
        p3 = self.positions3d
        return [Reflector(p3[i], int(self.types[i]), i) for i in range(self.m)]

    def with_xy(self, xy: np.ndarray) -> "Placement":
        return Placement(xy=np.array(xy, dtype=float), types=self.types.copy(), z=self.z)

    def __eq__(self, other):
        return (
            isinstance(other, Placement)
            and self.z == other.z
            and np.array_equal(self.xy, other.xy)
            and np.array_equal(self.types, other.types)
        )


def type_assignment(m: int, n_types: int) -> np.ndarray:
    """Alternating type labels with the equal-split rule.

    With two types, even indices get type 0, so an odd count yields one more
    reflector of type 0 than of type 1.
    """
    if m < 1:
        raise ValueError("need at least one reflector")
    if n_types == 1:
        return np.zeros(m, dtype=np.int64)
    if n_types == 2:
        return (np.arange(m) % 2).astype(np.int64)
    raise ValueError("only 1 or 2 reflector types are supported")


def coverage_floor(room: RoomModel, k_min: int) -> int:
    """Fewest reflectors that can let every element of ``room.grid`` see k_min of them.

    No reflector sees two of ``room.separated_elements``, and each of those
    elements must see k_min. The floor is at least k_min.
    """
    return k_min * len(room.separated_elements)


def placement_masks(pl: Placement, grid: Grid, room: RoomModel, strict: bool = True) -> np.ndarray:
    """(M, n_elements) boolean visibility mask, one row per reflector."""
    return visibility_masks(pl.xy, pl.z, grid, room, strict=strict)


def close_pairs(xy: np.ndarray, d_min: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair i < j of the (M, 2) points closer than d_min: (i, j, distance).

    Pairs come in row-major order; a pair exactly d_min apart is not close.
    """
    diff = xy[:, None, :] - xy[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    i, j = np.nonzero(np.triu(dist < d_min, k=1))
    return i, j, dist[i, j]


@dataclass(frozen=True)
class ConstraintReport:
    """Outcome of the four placement constraints.

    coverage_violations holds grid element indices seeing fewer than K_min
    reflectors; spacing_violations the offending index pairs; margin
    violations the reflector indices too close to (or beyond) the walls.
    Each rule holds when its violation list is empty.
    """

    m_ok: bool
    coverage_violations: np.ndarray
    spacing_violations: list[tuple[int, int]]
    margin_violations: np.ndarray

    @property
    def coverage_ok(self) -> bool:
        return self.coverage_violations.size == 0

    @property
    def spacing_ok(self) -> bool:
        return not self.spacing_violations

    @property
    def margin_ok(self) -> bool:
        return self.margin_violations.size == 0

    @property
    def feasible(self) -> bool:
        return self.m_ok and self.coverage_ok and self.spacing_ok and self.margin_ok


def check_constraints(
    pl: Placement,
    room: RoomModel,
    grid: Grid,
    masks: np.ndarray,
    m_max: int,
    *,
    k_min: int,
    d_min: float,
) -> ConstraintReport:
    """Evaluate reflector count, coverage, pairwise spacing and wall margin."""
    if masks.shape != (pl.m, len(grid)):
        raise ValueError(f"masks shape {masks.shape} does not match placement/grid")
    i, j, _ = close_pairs(pl.xy, d_min)
    return ConstraintReport(
        m_ok=0 < pl.m <= m_max,
        coverage_violations=np.flatnonzero(masks.sum(axis=0) < k_min),
        spacing_violations=list(zip(i.tolist(), j.tolist())),
        margin_violations=np.flatnonzero(~in_margin(pl.xy, room)),
    )


def visible_reflectors(
    p_r,
    pl: Placement,
    masks: np.ndarray,
    grid: Grid,
) -> list[tuple[Reflector, float]]:
    """Reflectors visible from a grid element center, nearest first.

    Distances are true 3D Euclidean distances; ties break on reflector index.
    Raises if p_r is not one of the grid element centers.
    """
    p = np.asarray(p_r, dtype=float).reshape(3)
    idx = grid.element_at(p[:2])
    if idx < 0 or not np.allclose(grid.centers[idx], p, atol=1e-9):
        raise ValueError("p_r is not a grid element center")
    vis = np.flatnonzero(masks[:, idx])
    p3 = pl.positions3d
    d = np.linalg.norm(p3[vis] - p, axis=1)
    order = np.lexsort((vis, d))
    refl = pl.reflectors()
    return [(refl[int(vis[k])], float(d[k])) for k in order]
