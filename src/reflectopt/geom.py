"""Room geometry: polygon predicates, grids, visibility polygons and masks.

All polygons are simple (non-self-intersecting), counterclockwise, without
holes. Points on a polygon boundary count as inside (closed-set convention),
so grid cells whose centers land exactly on a wall are kept.

Line of sight between a reflector and a grid element is a direct segment
test: the segment is blocked iff it strictly crosses an occluder edge, an
edge with some polygon vertex strictly on its right (the edges that are not
on the convex hull). Convex-hull edges cannot block a segment between two
points of the polygon, so a convex room has no occluders at all. A segment
that only touches a wall or grazes a vertex counts as visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

# Perpendicular tolerance for "point on edge" tests (meters).
_EDGE_TOL = 1e-9
# Angular offset of the auxiliary rays cast on both sides of every vertex ray.
_RAY_EPS = 1e-4
# The margin projection lands within _PROJECT_TOL (m) of the margin contour.
_PROJECT_TOL = 1e-6
_PROJECT_MAX_ITER = 50


def _as_points(arr) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) point array, got shape {pts.shape}")
    return pts


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


class Polygon:
    """Simple counterclockwise polygon given by its ordered vertices (meters)."""

    def __init__(self, vertices):
        verts = _as_points(vertices)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not np.all(np.isfinite(verts)):
            raise ValueError("polygon vertices must be finite")
        area2 = _shoelace2(verts)
        if area2 <= 0.0:
            raise ValueError("polygon vertices must be counterclockwise with positive area")
        if _self_intersects(verts):
            raise ValueError("polygon edges self-intersect")
        verts.flags.writeable = False
        self.vertices = verts

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"Polygon({len(self.vertices)} vertices, area={self.area:.3f})"

    @cached_property
    def area(self) -> float:
        return 0.5 * _shoelace2(self.vertices)

    @cached_property
    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the vertex set."""
        v = self.vertices
        return (v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max())

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        a = self.vertices
        b = np.roll(self.vertices, -1, axis=0)
        return a, b

    @cached_property
    def occluder_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, end) vertices of the edges with some vertex strictly on their right.

        These are the edges off the convex hull; only they can block the view
        between two points strictly inside the polygon.
        """
        a, b = self._edges
        v = self.vertices
        right = _cross(b[:, None, 0] - a[:, None, 0], b[:, None, 1] - a[:, None, 1],
                       v[None, :, 0] - a[:, None, 0], v[None, :, 1] - a[:, None, 1]) < 0.0
        occ = right.any(axis=1)
        return a[occ], b[occ]

    def contains_points(self, points) -> np.ndarray:
        """Boolean per point; boundary points count as inside."""
        return _contains_points_raw(*self._edges, _as_points(points))

    def edge_distances(self, points) -> np.ndarray:
        """Unsigned distance from each point to the nearest boundary edge."""
        pts = _as_points(points)
        return np.sqrt(self._nearest_edge_info(pts)[0])

    def nearest_boundary_points(self, points) -> np.ndarray:
        """Closest point on the boundary for each query point."""
        pts = _as_points(points)
        return self._nearest_edge_info(pts)[1]

    def _nearest_edge_info(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(squared distance, closest boundary point, edge index) of each point's nearest edge."""
        a, b = self._edges
        e = b - a
        elen2 = np.maximum(np.einsum("ij,ij->i", e, e), 1e-300)
        d = pts[:, None, :] - a[None, :, :]
        t = np.clip((d[:, :, 0] * e[None, :, 0] + d[:, :, 1] * e[None, :, 1]) / elen2, 0.0, 1.0)
        proj = a[None, :, :] + t[:, :, None] * e[None, :, :]
        diff = pts[:, None, :] - proj
        dist2 = np.einsum("nvi,nvi->nv", diff, diff)
        idx = np.argmin(dist2, axis=1)
        rows = np.arange(len(pts))
        return dist2[rows, idx], proj[rows, idx], idx


def _shoelace2(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _self_intersects(verts: np.ndarray) -> bool:
    n = len(verts)
    a = verts
    b = np.roll(verts, -1, axis=0)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                continue
            if _segments_cross(a[i], b[i], a[j], b[j]):
                return True
    return False


def _segments_cross(p1, q1, p2, q2) -> bool:
    def orient(p, q, r):
        val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if abs(val) < 1e-12:
            return 0
        return 1 if val > 0 else -1

    def on_seg(p, q, r):
        return (
            min(p[0], r[0]) - 1e-12 <= q[0] <= max(p[0], r[0]) + 1e-12
            and min(p[1], r[1]) - 1e-12 <= q[1] <= max(p[1], r[1]) + 1e-12
        )

    o1, o2 = orient(p1, q1, p2), orient(p1, q1, q2)
    o3, o4 = orient(p2, q2, p1), orient(p2, q2, q1)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_seg(p1, p2, q1):
        return True
    if o2 == 0 and on_seg(p1, q2, q1):
        return True
    if o3 == 0 and on_seg(p2, p1, q2):
        return True
    if o4 == 0 and on_seg(p2, q1, q2):
        return True
    return False


@dataclass(frozen=True)
class RoomModel:
    """Room description: boundary polygon plus radar/reflector geometry.

    Attributes:
        boundary: room outline (counterclockwise simple polygon)
        grid_size: edge length of the quadratic grid elements (m)
        z_r: radar height above the floor (m)
        z_l: reflector mounting height (m), z_l > z_r
        r_res: radar range resolution (m)
        cone_half_angle: detection cone half-angle at the radar (rad)
        wall_margin: minimum reflector distance to the nearest wall (m)
    """

    boundary: Polygon
    grid_size: float = 0.1
    z_r: float = 0.5
    z_l: float = 3.0
    r_res: float = 0.075
    cone_half_angle: float = math.pi / 4
    wall_margin: float = 0.5

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.grid_size, self.z_r, self.z_l, self.r_res,
                                              self.cone_half_angle, self.wall_margin)):
            raise ValueError("room parameters must be finite")
        if not (self.z_l > self.z_r > 0):
            raise ValueError("need z_l > z_r > 0")
        if self.grid_size <= 0:
            raise ValueError("grid_size must be positive")
        if self.r_res <= 0:
            raise ValueError("r_res must be positive")
        if not (0 < self.cone_half_angle < math.pi / 2):
            raise ValueError("cone_half_angle must be in (0, pi/2)")
        if self.wall_margin < 0:
            raise ValueError("wall_margin must be non-negative")

    @property
    def cone_radius(self) -> float:
        """Horizontal detection radius at radar height below a reflector."""
        return (self.z_l - self.z_r) * math.tan(self.cone_half_angle)


@dataclass(frozen=True)
class Grid:
    """Regular lattice of evaluated robot positions inside the room.

    ``centers`` holds the 3D element centers [x, y, z_r] in list order;
    ``ij`` the matching integer lattice coordinates (column, row);
    ``cell_index`` maps lattice (row, col) back to the list position (-1
    where the lattice cell center falls outside the room).
    """

    centers: np.ndarray
    ij: np.ndarray
    cell_index: np.ndarray
    size: float
    x0: float
    y0: float
    _kdtree: cKDTree | None = field(default=None, compare=False, repr=False)
    _separated: dict[float, np.ndarray] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self.centers.flags.writeable = False
        self.ij.flags.writeable = False
        self.cell_index.flags.writeable = False

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def xy(self) -> np.ndarray:
        return self.centers[:, :2]

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the underlying lattice raster."""
        return self.cell_index.shape

    def kdtree(self) -> cKDTree:
        if self._kdtree is None:
            object.__setattr__(self, "_kdtree", cKDTree(self.centers[:, :2]))
        return self._kdtree

    def separated_elements(self, radius: float) -> np.ndarray:
        """Indices of grid elements lying pairwise more than 2 * radius apart.

        No disk of that radius holds two of them, so covering every element
        k times with such disks takes at least k times as many disks. The set
        is greedy, not maximum: a farthest-point traversal started from each
        edge element (one with a missing 4-neighbour), keeping the largest.
        The separation carries a relative slack of 1e-9 against rounding.
        Computed on first use per radius; O(n_elements) working memory.
        """
        if radius not in self._separated:
            sep = 2.0 * radius * (1.0 + 1e-9)
            occ = np.pad(self.cell_index >= 0, 1)
            inner = occ[1:-1, 1:-1] & occ[:-2, 1:-1] & occ[2:, 1:-1] & occ[1:-1, :-2] & occ[1:-1, 2:]
            starts = self.cell_index[occ[1:-1, 1:-1] & ~inner]
            x, y = self.xy[:, 0], self.xy[:, 1]
            best = []
            for s in starts:
                chosen = [int(s)]
                dmin = np.hypot(x - x[s], y - y[s])
                while True:
                    j = int(np.argmax(dmin))
                    if dmin[j] <= sep:
                        break
                    chosen.append(j)
                    np.minimum(dmin, np.hypot(x - x[j], y - y[j]), out=dmin)
                if len(chosen) > len(best):
                    best = chosen
            self._separated[radius] = np.array(best)
        return self._separated[radius]

    def nearest_element(self, points) -> np.ndarray:
        """Index of the grid element whose center is closest to each point."""
        pts = _as_points(points)
        return self.kdtree().query(pts)[1]

    def element_at(self, point) -> int:
        """Element index of the lattice cell containing ``point``, -1 if none."""
        x, y = float(point[0]), float(point[1])
        col = int(math.floor((x - self.x0) / self.size))
        row = int(math.floor((y - self.y0) / self.size))
        ny, nx = self.cell_index.shape
        if 0 <= row < ny and 0 <= col < nx:
            return int(self.cell_index[row, col])
        return -1

    def rasterize(self, values: np.ndarray, fill=0) -> np.ndarray:
        """Spread per-element values onto the (rows, cols) lattice raster."""
        out = np.full(self.cell_index.shape, fill, dtype=np.asarray(values).dtype)
        valid = self.cell_index >= 0
        out[valid] = np.asarray(values)[self.cell_index[valid]]
        return out


def build_grid(room: RoomModel) -> Grid:
    """Lay a quadratic lattice over the room and keep centers inside it.

    The lattice is anchored at the boundary bounding-box minimum corner plus
    half a cell; all centers sit at radar height z_r.
    """
    xmin, ymin, xmax, ymax = room.boundary.bounds
    g = room.grid_size
    nx = max(1, int(math.ceil((xmax - xmin) / g - 1e-9)))
    ny = max(1, int(math.ceil((ymax - ymin) / g - 1e-9)))
    cols, rows = np.meshgrid(np.arange(nx), np.arange(ny))
    xs = xmin + (cols.ravel() + 0.5) * g
    ys = ymin + (rows.ravel() + 0.5) * g
    pts = np.column_stack([xs, ys])
    keep = room.boundary.contains_points(pts)
    if not np.any(keep):
        raise ValueError("no grid element centers fall inside the room")
    pts = pts[keep]
    ij = np.column_stack([cols.ravel()[keep], rows.ravel()[keep]])
    centers = np.column_stack([pts, np.full(len(pts), room.z_r)])
    cell_index = np.full((ny, nx), -1, dtype=np.int64)
    cell_index[ij[:, 1], ij[:, 0]] = np.arange(len(pts))
    return Grid(centers=centers, ij=ij, cell_index=cell_index, size=g, x0=xmin, y0=ymin)


def point_in_polygon(p, poly: Polygon) -> bool:
    """True iff p lies inside or on the boundary of the polygon."""
    return bool(poly.contains_points(np.asarray(p, dtype=float).reshape(1, 2))[0])


def boundary_distances(points, poly: Polygon) -> np.ndarray:
    """Signed distance of each point to the polygon boundary: >0 inside, <0 outside."""
    pts = _as_points(points)
    d = poly.edge_distances(pts)
    return np.where(poly.contains_points(pts), d, -d)


def boundary_distance(p, poly: Polygon) -> float:
    """Signed distance to the polygon boundary: >0 inside, <0 outside."""
    return float(boundary_distances(np.asarray(p, dtype=float).reshape(1, 2), poly)[0])


def _visibility_vertices(q_xy: np.ndarray, poly: Polygon) -> np.ndarray:
    """Vertices of the region of ``poly`` with line of sight to ``q_xy``.

    Rays are cast from q toward every polygon vertex plus two angularly
    offset rays per vertex; the first wall hit of every ray is kept and the
    hits are sorted counterclockwise around q.
    """
    q = np.asarray(q_xy, dtype=float).reshape(2)
    verts = poly.vertices
    base = np.arctan2(verts[:, 1] - q[1], verts[:, 0] - q[0])
    angles = np.concatenate([base - _RAY_EPS, base, base + _RAY_EPS])
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])

    a, b = poly._edges
    e = b - a  # (V, 2)
    aq = a - q  # (V, 2)
    # Solve q + t*d = a + u*e for every ray/edge pair.
    denom = dirs[:, 0:1] * e[None, :, 1].reshape(1, -1) - dirs[:, 1:2] * e[None, :, 0].reshape(1, -1)
    cross_aq_e = aq[:, 0] * e[:, 1] - aq[:, 1] * e[:, 0]  # (V,)
    cross_aq_d = aq[None, :, 0] * dirs[:, 1:2] - aq[None, :, 1] * dirs[:, 0:1]  # (R, V)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = cross_aq_e[None, :] / denom
        u = cross_aq_d / denom
    ok = (np.abs(denom) > 1e-15) & (u >= -1e-12) & (u <= 1 + 1e-12) & (t > 1e-9)
    t = np.where(ok, t, np.inf)
    tmin = t.min(axis=1)
    hit = np.isfinite(tmin)
    pts = q + tmin[hit, None] * dirs[hit]

    order = np.argsort(np.arctan2(pts[:, 1] - q[1], pts[:, 0] - q[0]), kind="stable")
    pts = pts[order]
    # Drop consecutive (and wraparound) near-duplicates.
    keep = np.ones(len(pts), dtype=bool)
    if len(pts) > 1:
        d = np.linalg.norm(pts - np.roll(pts, 1, axis=0), axis=1)
        keep = d > 1e-9
        keep[0] = keep[0] or not np.any(keep)
    return pts[keep]


def visibility_polygon(q_xy, poly: Polygon) -> Polygon:
    """Region of the polygon with an unobstructed straight-line view of q_xy.

    Raises ValueError if q_xy is not strictly inside the polygon.
    """
    q = np.asarray(q_xy, dtype=float).reshape(2)
    if boundary_distance(q, poly) <= 0:
        raise ValueError("viewpoint must lie strictly inside the polygon")
    return Polygon(_visibility_vertices(q, poly))


def cone_mask(q, grid: Grid, room: RoomModel) -> np.ndarray:
    """Grid elements lying under the detection cone of a reflector at q.

    A grid element is covered iff its horizontal distance to the reflector
    is at most (q_z - z_r) * tan(cone_half_angle).
    """
    q = np.asarray(q, dtype=float).reshape(3)
    radius = (q[2] - room.z_r) * math.tan(room.cone_half_angle)
    d = np.hypot(grid.xy[:, 0] - q[0], grid.xy[:, 1] - q[1])
    return d <= radius


def visibility_mask(q, grid: Grid, room: RoomModel, strict: bool = True) -> np.ndarray:
    """Elementwise AND of the cone mask and the line-of-sight mask of q.

    One row of ``visibility_masks`` for a reflector at q = (x, y, z): an
    element is visible iff it lies under the cone and the segment to it
    strictly crosses no occluder edge (touching a wall or grazing a vertex
    counts as visible). With strict=False, a reflector not strictly inside
    the room yields an all-false mask instead of raising (useful for
    transient repair states).
    """
    q = np.asarray(q, dtype=float).reshape(3)
    return visibility_masks(q[None, :2], q[2], grid, room, strict)[0]


def visibility_masks(xy, z: float, grid: Grid, room: RoomModel, strict: bool = True) -> np.ndarray:
    """(M, n_elements) cone-and-line-of-sight masks of reflectors at (xy, z).

    Row i is true where the element lies within the cone radius of reflector
    i and the segment between them strictly crosses no occluder edge of the
    room (``Polygon.occluder_edges``); a segment that only touches a wall or
    grazes a vertex counts as visible. A reflector not strictly inside the
    room (signed boundary distance at most _EDGE_TOL) raises with strict,
    and gets an all-false row otherwise.
    """
    xy = _as_points(xy)
    inside = boundary_distances(xy, room.boundary) > _EDGE_TOL
    if strict and not inside.all():
        raise ValueError("reflector (x, y) must lie strictly inside the room")
    radius = (float(z) - room.z_r) * math.tan(room.cone_half_angle)
    gx, gy = grid.xy[:, 0], grid.xy[:, 1]
    qx, qy = xy[:, 0:1], xy[:, 1:2]
    out = np.hypot(gx - qx, gy - qy) <= radius
    out &= inside[:, None]
    # Strict crossing of segment q->p with edge a->b: q and p strictly on
    # opposite sides of the edge line, a and b strictly on opposite sides of
    # the segment line.
    for (ax, ay), (bx, by) in zip(*room.boundary.occluder_edges):
        d1 = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)
        d2 = (bx - ax) * (gy - ay) - (by - ay) * (gx - ax)
        d3 = (gx - qx) * (ay - qy) - (gy - qy) * (ax - qx)
        d4 = (gx - qx) * (by - qy) - (gy - qy) * (bx - qx)
        out &= ~(((d1 * d2) < -1e-12) & ((d3 * d4) < -1e-12))
    return out


def _contains_points_raw(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Boundary-inclusive point-in-polygon against the edges a[i] -> b[i]."""
    ax, ay = a[:, 0], a[:, 1]
    bx, by = b[:, 0], b[:, 1]
    px = pts[:, 0:1]
    py = pts[:, 1:2]
    cond = (ay > py) != (by > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = ax + (py - ay) * (bx - ax) / (by - ay)
    inside = (np.sum(cond & (px < x_int), axis=1) % 2) == 1

    ex, ey = bx - ax, by - ay
    elen2 = ex * ex + ey * ey
    dx = px - ax
    dy = py - ay
    cross = dx * ey - dy * ex
    dot = dx * ex + dy * ey
    on_line = np.abs(cross) <= _EDGE_TOL * np.maximum(np.sqrt(elen2), 1.0)
    within = (dot >= -_EDGE_TOL) & (dot <= elen2 + _EDGE_TOL)
    return inside | np.any(on_line & within, axis=1)


def in_margin(points, room: RoomModel) -> np.ndarray:
    """The wall-margin rule: inside the room and at least wall_margin - _EDGE_TOL from every wall."""
    return _margin_info(_as_points(points), room)[0]


def _margin_info(pts: np.ndarray, room: RoomModel) -> tuple[np.ndarray, ...]:
    """(in_margin verdict, signed boundary distance, nearest boundary point, its edge index)."""
    poly = room.boundary
    inside = poly.contains_points(pts)
    dist2, near, edge = poly._nearest_edge_info(pts)
    dist = np.sqrt(dist2)
    ok = inside & (dist >= room.wall_margin - _EDGE_TOL)
    return ok, np.where(inside, dist, -dist), near, edge


def project_into_margin(points, room: RoomModel) -> np.ndarray:
    """Move each point that fails ``in_margin`` onto the wall-margin contour.

    Takes a point of shape (2,) or an (n, 2) array and returns the same
    shape; points passing the rule come back unchanged. The others step along
    the gradient of the signed boundary distance toward a target half of
    _PROJECT_TOL past the margin, halving a step that lands farther from it
    (concave corners), until they pass the rule within _PROJECT_TOL of it.
    """
    shape = np.shape(points)
    q = _as_points(points).copy()
    a, b = room.boundary._edges
    margin = room.wall_margin
    target = margin + 0.5 * _PROJECT_TOL
    ok, d, near, edge = _margin_info(q, room)
    active = ~ok
    scale = np.ones(len(q))
    for _ in range(_PROJECT_MAX_ITER):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        qa, da = q[rows], d[rows]
        # Ascent direction of the signed distance; on the boundary itself the
        # inward normal of the nearest edge.
        grad = np.where((da > 0)[:, None], qa - near[rows], near[rows] - qa)
        # Row by row: np.linalg.norm is a BLAS dot, which batched norms round differently.
        norm = np.array([np.linalg.norm(g) for g in grad])
        wall = norm < 1e-12
        e = b[edge[rows[wall]]] - a[edge[rows[wall]]]
        grad[wall] = np.column_stack([-e[:, 1], e[:, 0]])
        norm[wall] = [np.linalg.norm(g) for g in grad[wall]]
        q_new = qa + (target - da)[:, None] * (grad / norm[:, None]) * scale[rows, None]
        ok_new, d_new, near_new, edge_new = _margin_info(q_new, room)
        # Equality acceptance lets corner cases switch their nearest edge.
        better = np.abs(d_new - target) <= np.abs(da - target)
        moved, stuck = rows[better], rows[~better]
        q[moved], d[moved] = q_new[better], d_new[better]
        near[moved], edge[moved] = near_new[better], edge_new[better]
        active[moved] = ~(ok_new[better] & (np.abs(d_new[better] - margin) <= _PROJECT_TOL))
        scale[moved] = 1.0
        scale[stuck] *= 0.5
        scale[stuck[scale[stuck] < 1e-9]] = 1.0
    if active.any():
        raise ValueError("no point satisfying the wall margin found (room too thin?)")
    return q.reshape(shape)
