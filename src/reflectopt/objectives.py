"""Placement quality objectives: fingerprint ambiguity and summed GDOP.

f1 counts grid elements whose rounded-distance fingerprint is not unique in
the room; f2 sums the geometric dilution of precision of range-based
multilateration over all grid elements. Both are minimized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geom import Grid, RoomModel
from .placement import Placement, check_constraints, visible_reflectors

# Condition-number ceiling beyond which the information matrix counts as
# singular and the GDOP penalty applies.
_COND_LIMIT = 1e12
_GDOP_PENALTY_TRACE = 1e6

UNIQUE, LOCAL, GLOBAL = 0, 1, 2


class Fingerprint(NamedTuple):
    """Canonical fingerprint: N (distance_bin, type) pairs sorted ascending."""

    entries: tuple[tuple[int, int], ...]


class CoverageError(ValueError):
    """A grid element sees fewer reflectors than the fingerprint needs."""


@dataclass(frozen=True)
class EvalConfig:
    """Shared knobs of the objective evaluation."""

    n: int = 4  # fingerprint size (nearest-N reflectors)
    k_min: int = 4  # minimum visible reflectors per grid element
    d_min: float = 0.5  # minimum pairwise reflector distance (m)
    m_max: int = 32  # maximum reflector count

    def __post_init__(self):
        if self.k_min < 4:
            raise ValueError("k_min must be at least 4: the GDOP needs 4 visible reflectors")
        if self.n < 1:
            raise ValueError("fingerprint size n must be at least 1")
        if self.n > self.k_min:
            raise ValueError("fingerprint size n must not exceed k_min")
        if not (np.isfinite(self.d_min) and self.d_min >= 0):
            raise ValueError("d_min must be finite and non-negative")


def distance_bins(distances: np.ndarray, r_res: float) -> np.ndarray:
    """Round distances to integer resolution bins, half away from zero."""
    return np.floor(np.asarray(distances) / r_res + 0.5).astype(np.int64)


def nearest_fingerprint(distances, types, n: int, r_res: float) -> Fingerprint:
    """Fingerprint of the n nearest of the given reflectors.

    ``distances`` and ``types`` list the visible reflectors in index order
    (or nearest first with ties in index order). The n smallest distances are
    kept, ties going to the earlier entry, and the entries are their
    (distance bin, type) pairs, sorted. Raises CoverageError when fewer than
    n are given.
    """
    if len(distances) < n:
        raise CoverageError(f"only {len(distances)} reflectors visible, fingerprint needs {n}")
    order = np.argsort(distances, kind="stable")[:n]
    bins = distance_bins(np.asarray(distances)[order], r_res)
    types = np.asarray(types)[order]
    return Fingerprint(entries=tuple(sorted((int(b), int(t)) for b, t in zip(bins, types))))


def fingerprint(p_r, pl: Placement, masks: np.ndarray, grid: Grid, n: int, r_res: float) -> Fingerprint:
    """Fingerprint of one grid element: nearest n visible reflectors by true distance."""
    vis = visible_reflectors(p_r, pl, masks, grid)
    return nearest_fingerprint([d for _, d in vis], [r.type for r, _ in vis], n, r_res)


def fingerprint_table(
    pl: Placement, masks: np.ndarray, grid: Grid, n: int, r_res: float
) -> np.ndarray:
    """(n_elements, n) canonical fingerprint codes, one row per grid element.

    Each code packs (bin, type) as 2*bin + type so that row-wise sorted codes
    compare lexicographically like sorted (bin, type) entry lists. Raises
    CoverageError if any element sees fewer than n reflectors.
    """
    order, dsel = nearest_visible(pl, masks, grid, n)
    if not np.all(np.isfinite(dsel)):
        short = int(np.isinf(dsel).any(axis=1).sum())
        raise CoverageError(f"{short} grid elements see fewer than {n} reflectors")
    bins = distance_bins(dsel, r_res)
    types = pl.types[order]
    codes = 2 * bins + types
    codes.sort(axis=1)
    return codes


def nearest_visible(
    pl: Placement, masks: np.ndarray, grid: Grid, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The n nearest visible reflectors of every grid element.

    Returns (indices, distances), both (n_elements, n), nearest first by
    true 3D distance with ties going to the lower reflector index. Columns
    past an element's count of visible reflectors hold distance inf; when
    the placement has fewer than n reflectors, the missing columns also
    hold index 0. The squared distance is summed as (dx² + dz²) + dy², the
    order numpy's ``einsum`` takes over (dx, dy, dz), so it matches an einsum
    reference bit for bit.
    """
    gx, gy, gz = grid.centers.T
    d2, dy = gx - pl.xy[:, :1], gy - pl.xy[:, 1:]  # squared in place: two (M, N) planes
    d2 *= d2
    d2 += (gz - pl.z) ** 2
    d2 += np.multiply(dy, dy, out=dy)
    del dy
    d = np.where(masks, np.sqrt(d2, out=d2), np.inf).T
    order = np.argsort(d, axis=1, kind="stable")[:, :n]
    dsel = np.take_along_axis(d, order, axis=1)
    short = n - order.shape[1]
    if short > 0:
        order = np.pad(order, ((0, 0), (0, short)))
        dsel = np.pad(dsel, ((0, 0), (0, short)), constant_values=np.inf)
    return order, dsel


@dataclass(frozen=True)
class AmbiguityMap:
    """Per-element ambiguity classification and fingerprint group ids."""

    classes: np.ndarray  # UNIQUE / LOCAL / GLOBAL per grid element
    group_ids: np.ndarray  # elements sharing a fingerprint share an id

    @property
    def n_unique(self) -> int:
        return int((self.classes == UNIQUE).sum())

    @property
    def n_local(self) -> int:
        return int((self.classes == LOCAL).sum())

    @property
    def n_global(self) -> int:
        return int((self.classes == GLOBAL).sum())


def ambiguity(
    pl: Placement,
    grid: Grid,
    masks: np.ndarray,
    n: int,
    r_res: float,
    with_map: bool = True,
) -> tuple[int, AmbiguityMap | None]:
    """Count ambiguous grid elements and classify them local/global.

    Two elements are ambiguous when their fingerprints are identical. An
    ambiguous fingerprint group forming a single 4-connected grid region is
    local; one spanning several unconnected regions is global.
    """
    codes = fingerprint_table(pl, masks, grid, n, r_res)
    inv, counts = _unique_rows(codes)
    ambiguous = counts[inv] >= 2
    f1 = int(ambiguous.sum())
    if not with_map:
        return f1, None

    # each connected region of a fingerprint group holds one element that is its own root
    is_root = grid.components(inv + 1) == np.arange(len(grid))
    group_global = np.bincount(inv[is_root], minlength=len(counts)) > 1
    classes = np.where(ambiguous, np.where(group_global[inv], GLOBAL, LOCAL), UNIQUE)
    return f1, AmbiguityMap(classes=classes.astype(np.int8), group_ids=inv.astype(np.int64))


def _unique_rows(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse indices and counts of the distinct rows of non-negative codes.

    Rows are numbered in lexicographic order, as ``np.unique(axis=0)`` does.
    Each row is packed into one int64 key, each code taking as many bits as
    the largest one needs, so the keys sort as the rows do; rows too wide
    for 63 bits are compared whole.
    """
    bits = int(codes.max(initial=0)).bit_length()
    if codes.shape[1] * bits > 63:
        _, inv, counts = np.unique(codes, axis=0, return_inverse=True, return_counts=True)
        return inv.ravel(), counts
    keys = np.zeros(len(codes), dtype=np.int64)
    for col in codes.T:
        keys = (keys << bits) | col
    _, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return inv, counts


def gdop(p_r, visible: list, sigma_r: float) -> float:
    """GDOP of one position from its visible reflectors (Fisher-information form).

    ``visible`` holds (reflector, distance) pairs as returned by
    visible_reflectors. Needs at least 4 entries; near-singular geometry
    yields the fixed penalty value.
    """
    if len(visible) < 4:
        raise ValueError("GDOP needs at least 4 visible reflectors")
    p = np.asarray(p_r, dtype=float).reshape(3)
    h = np.stack([(p - r.position) / d for r, d in visible])
    j = h.T @ h
    vals = np.linalg.eigvalsh(j)
    return _gdop_from_eigvals(vals[None, :], sigma_r)[0]


def _gdop_from_eigvals(vals: np.ndarray, sigma_r: float) -> np.ndarray:
    vmin = vals[:, 0]
    vmax = vals[:, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        trace_inv = (1.0 / vals).sum(axis=1)
        cond = vmax / vmin
    bad = (vmin <= 0) | ~np.isfinite(trace_inv) | (cond > _COND_LIMIT)
    return np.where(bad, _GDOP_PENALTY_TRACE, trace_inv) * sigma_r**2


def gdop_values(pl: Placement, masks: np.ndarray, grid: Grid, sigma_r: float) -> np.ndarray:
    """Per-element GDOP over the whole grid (vectorized).

    The trace of the inverse information matrix comes in closed form, as the
    sum of its principal 2x2 minors over its determinant. A positive definite
    3x3 matrix has cond <= trace**3 / det, so rows within that bound are never
    penalised. Only the others build the matrix from unit vectors and go
    through ``eigvalsh`` and the exact penalty rule of ``_gdop_from_eigvals``.
    """
    counts = masks.sum(axis=0)
    if counts.min() < 4:
        raise ValueError("GDOP needs at least 4 visible reflectors at every element")
    c, p = grid.centers, pl.positions3d
    dx, dy, dz = (c[:, k, None] - p[None, :, k] for k in range(3))
    w = masks.T / (dx * dx + dy * dy + dz * dz)
    wk = w * dx  # then w * dy and w * dz, in the same buffer
    sxx, sxy, sxz = (np.einsum("nm,nm->n", wk, v) for v in (dx, dy, dz))
    np.multiply(w, dy, out=wk)
    syy, syz = (np.einsum("nm,nm->n", wk, v) for v in (dy, dz))
    np.multiply(w, dz, out=wk)
    szz = np.einsum("nm,nm->n", wk, dz)
    minor_x = syy * szz - syz * syz
    minor_y = sxx * szz - sxz * sxz
    minor_z = sxx * syy - sxy * sxy
    det = sxx * minor_x - sxy * (sxy * szz - syz * sxz) + sxz * (sxy * syz - syy * sxz)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        trace_inv = (minor_x + minor_y + minor_z) / det
        cond_bound = (sxx + syy + szz) ** 3 / det
        within_bound = (det > 0) & np.isfinite(trace_inv) & (cond_bound <= _COND_LIMIT)
    values = trace_inv * sigma_r**2
    rest = np.flatnonzero(~within_bound)
    if len(rest):
        diff = c[rest, None, :] - p[None, :, :]
        u = diff / np.sqrt(np.einsum("nmk,nmk->nm", diff, diff))[:, :, None]
        u = u * masks.T[rest, :, None]
        j = np.einsum("nmi,nmj->nij", u, u)
        values[rest] = _gdop_from_eigvals(np.linalg.eigvalsh(j), sigma_r)
    return values


def gdop_objective(
    pl: Placement,
    grid: Grid,
    masks: np.ndarray,
    sigma_r: float,
) -> tuple[float, np.ndarray]:
    """Sum of the per-element GDOP plus the per-element values."""
    values = gdop_values(pl, masks, grid, sigma_r)
    return float(values.sum()), values


def penalty_pair(grid: Grid, sigma_r: float) -> tuple[int, float]:
    """Objective pair that any feasible placement dominates."""
    return len(grid) * 10, _GDOP_PENALTY_TRACE * sigma_r**2 * len(grid)


def evaluate(
    pl: Placement,
    room: RoomModel,
    grid: Grid,
    masks: np.ndarray,
    config: EvalConfig,
) -> tuple[int, float]:
    """Joint objective evaluation: (f1, f2), or the penalty pair if infeasible.

    The range error of the GDOP is the room's range resolution r_res.
    """
    report = check_constraints(
        pl, room, grid, masks, m_max=config.m_max, k_min=config.k_min, d_min=config.d_min
    )
    if not report.feasible:
        return penalty_pair(grid, room.r_res)
    f1, _ = ambiguity(pl, grid, masks, config.n, room.r_res, with_map=False)
    f2, _ = gdop_objective(pl, grid, masks, room.r_res)
    return f1, f2
