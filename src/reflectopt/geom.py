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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Perpendicular tolerance for "point on edge" tests (meters).
_EDGE_TOL = 1e-9
# Angular offset of the auxiliary rays cast on both sides of every vertex ray.
_RAY_EPS = 1e-4
# The margin projection offsets the walls by wall_margin + _PROJECT_TOL / 2 (m), so
# the points it returns pass in_margin with rounding to spare.
_PROJECT_TOL = 1e-6
_INSIDE_CELLS = 64  # raster cells per side of the bounding box in Polygon._inside_cells
_INSIDE_PAD = 1e-6  # relative clearance between a wall and a cell that gets a verdict
_CONE_BAND = 1e-12  # relative band around radius**2 where the cone test asks np.hypot


def _as_points(arr) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (n, 2) point array, got shape {pts.shape}")
    return pts


def _side(ox, oy, ux, uy, px, py):
    """u x (p - o): positive where p lies left of the line through o along u."""
    return ux * (py - oy) - uy * (px - ox)


def _apart(s, t):
    """True where sides s and t are strictly opposite: the segment-crossing rule."""
    return s * t < -1e-12


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
        right = _side(a[:, None, 0], a[:, None, 1], b[:, None, 0] - a[:, None, 0],
                      b[:, None, 1] - a[:, None, 1], v[None, :, 0], v[None, :, 1]) < 0.0
        occ = right.any(axis=1)
        return a[occ], b[occ]

    @cached_property
    def _inside_cells(self) -> np.ndarray:
        """Inside verdicts of an _INSIDE_CELLS-square raster over the bounds.

        A cell gets a verdict only if no wall comes within a pad of it: the
        relative _INSIDE_PAD, far beyond rounding, plus twice the reach of the
        on-edge test, _EDGE_TOL across and along every wall. Such a cell lies
        wholly on one side of the boundary, and every point in it is decided by
        the parity test alone, so the verdict at the cell centre is the verdict
        for all of it. Indexed by raster (row, col) plus one: -1 is no verdict,
        also on a border of one cell around the raster; 0 outside; 1 inside.
        """
        n = _INSIDE_CELLS
        xmin, ymin, xmax, ymax = (float(v) for v in self.bounds)
        wx, wy = (xmax - xmin) / n, (ymax - ymin) / n
        cx = xmin + (np.arange(n) + 0.5) * wx
        cy = ymin + (np.arange(n) + 0.5) * wy
        scale = max(1.0, abs(xmin), abs(ymin), abs(xmax), abs(ymax))
        pad = _INSIDE_PAD * scale + 2.0 * _EDGE_TOL
        near = np.zeros((n, n), dtype=bool)  # (row, col) = (y, x)
        a, b = self._edges
        for (ax, ay), (bx, by) in zip(a.tolist(), b.tolist()):
            length = math.hypot(bx - ax, by - ay)
            # The cells that meet the wall's padded bounding box, one more on
            # each side against rounding ...
            c0 = max(math.floor((min(ax, bx) - pad - xmin) / wx) - 1, 0)
            c1 = min(math.floor((max(ax, bx) + pad - xmin) / wx) + 2, n)
            r0 = max(math.floor((min(ay, by) - pad - ymin) / wy) - 1, 0)
            r1 = min(math.floor((max(ay, by) + pad - ymin) / wy) + 2, n)
            # ... and of those the ones whose padded box the wall's line meets.
            ux, uy = (by - ay) / length, (ax - bx) / length
            off = ux * (cx[None, c0:c1] - ax) + uy * (cy[r0:r1, None] - ay)
            reach = abs(ux) * (0.5 * wx + pad) + abs(uy) * (0.5 * wy + pad)
            near[r0:r1, c0:c1] |= np.abs(off) <= reach
        # Neighbouring free cells of a row share a side of the boundary, so
        # the parity test at the centre of each run's first cell decides the run.
        free = ~near
        starts = free.copy()
        starts[:, 1:] &= near[:, :-1]
        first = np.flatnonzero(starts)
        run_verdicts = _parity_inside(a, b, np.column_stack([cx[first % n], cy[first // n]]))
        # only near cells lie between the end of a run and the next start
        run_lengths = np.add.reduceat(free.ravel(), first, dtype=np.intp)
        verdicts = np.full((n + 2, n + 2), -1, dtype=np.int8)
        verdicts[1:-1, 1:-1][free] = np.repeat(run_verdicts, run_lengths)
        verdicts.flags.writeable = False
        return verdicts

    def contains_points(self, points) -> np.ndarray:
        """Boolean per point; boundary points count as inside.

        A point takes the verdict of its ``_inside_cells`` cell if it has one;
        the others (near a wall, off the raster, NaN and +-inf) take the exact
        test, ``_contains_points_raw``. Every answer is the exact test's.
        """
        pts = _as_points(points)
        return self._cell_verdicts(pts, lambda rest: _contains_points_raw(*self._edges, rest))

    def _cell_verdicts(self, pts: np.ndarray, exact) -> np.ndarray:
        """Each point's ``_inside_cells`` verdict, ``exact(pts[rest])`` where its cell has none."""
        n = _INSIDE_CELLS
        xmin, ymin, xmax, ymax = self.bounds
        wx, wy = (xmax - xmin) / n, (ymax - ymin) / n
        # Raster (row, col) plus one, clamped onto the border (fmax sends NaN to 0).
        col = np.fmin(np.fmax(np.floor((pts[:, 0] - xmin) / wx) + 1.0, 0.0), n + 1.0)
        row = np.fmin(np.fmax(np.floor((pts[:, 1] - ymin) / wy) + 1.0, 0.0), n + 1.0)
        verdict = self._inside_cells.ravel()[(row * (n + 2) + col).astype(np.intp)]
        inside = verdict > 0
        rest = np.flatnonzero(verdict < 0)
        if rest.size:
            inside[rest] = exact(pts[rest])
        return inside

    def edge_distances(self, points) -> np.ndarray:
        """Unsigned distance from each point to the nearest boundary edge."""
        pts = _as_points(points)
        return np.sqrt(self._nearest_edge_info(pts)[0])

    def nearest_boundary_points(self, points) -> np.ndarray:
        """Closest point on the boundary for each query point."""
        pts = _as_points(points)
        return self._nearest_edge_info(pts)[1]

    def _nearest_edge_info(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(squared distance, closest boundary point) of each point's nearest edge."""
        if np.isinf(pts).any():  # infinitely far, no closest point; NaN passes inf * 0 quietly
            far = np.isinf(pts).any(axis=1)
            dist2, proj = self._nearest_edge_info(np.where(far[:, None], np.nan, pts))
            return np.where(far, np.inf, dist2), proj
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
        return dist2[rows, idx], proj[rows, idx]


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

    @cached_property
    def grid(self) -> Grid:
        """The room's grid, built by ``build_grid`` on first use."""
        return build_grid(self)

    @cached_property
    def margin_corners(self) -> np.ndarray:
        """(n, 2) corners of the margin region R (``margin.py``), computed on first use.

        A component of R turns by 2 pi along its boundary, by 0 along the
        shifted wall lines and negatively along the vertex circles, which
        bulge into it, so it has a convex corner: R is empty iff this is.
        """
        from .margin import corners  # evaluate and simulate never load it

        return corners(self)

    @cached_property
    def separated_elements(self) -> np.ndarray:
        """Indices of grid elements lying pairwise more than 2 * cone_radius apart.

        No reflector sees two of them, so covering every element k times
        takes at least k times as many reflectors. The set is greedy, not
        maximum: a farthest-point traversal started from each edge element
        (one with a missing 4-neighbour), keeping the largest. The separation
        carries a relative slack of 1e-9 against rounding. Computed on first
        use; O(n_elements) working memory.
        """
        grid = self.grid
        sep = 2.0 * self.cone_radius * (1.0 + 1e-9)
        occ = np.pad(grid.cell_index >= 0, 1)
        inner = occ[1:-1, 1:-1] & occ[:-2, 1:-1] & occ[2:, 1:-1] & occ[1:-1, :-2] & occ[1:-1, 2:]
        starts = grid.cell_index[occ[1:-1, 1:-1] & ~inner]
        x, y = grid.xy[:, 0], grid.xy[:, 1]
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
        return np.array(best)


@dataclass(frozen=True)
class Grid:
    """Regular lattice of evaluated robot positions inside the room.

    ``centers`` holds the 3D element centers [x, y, z_r] in list order;
    ``cell_index`` maps lattice (row, col) back to the list position (-1
    where the lattice cell center falls outside the room).
    """

    centers: np.ndarray
    cell_index: np.ndarray
    size: float
    x0: float
    y0: float

    def __post_init__(self):
        self.centers.flags.writeable = False
        self.cell_index.flags.writeable = False

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def xy(self) -> np.ndarray:
        return self.centers[:, :2]

    def nearest_element(self, points) -> np.ndarray:
        """Index of the grid element whose center is closest to each point.

        Closest means the least ``dx * dx + dy * dy`` over all elements,
        computed in floating point; ties go to the lowest element index. A
        NaN or infinite point raises ValueError. Single points and batches
        take the same exact search, ``nearest.NearestSearch``, in bounded
        memory.
        """
        return self._nearest_search.nearest(points)

    @cached_property
    def _nearest_search(self):
        from .nearest import NearestSearch  # optimize and evaluate never load it

        return NearestSearch(self)

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

    def components(self, values: np.ndarray) -> np.ndarray:
        """Root of each element's 4-connected component of equal positive values.

        The root is the component's lowest element index; an element whose
        value is not positive gets -1. Elements are numbered in raster order,
        so sorted roots list the components as a raster scan meets them.
        Hooking and pointer jumping (Shiloach and Vishkin, J. Algorithms 3(1),
        1982) over the same-value lattice edges.
        """
        raster = self.rasterize(values, fill=0)
        idx = self.cell_index
        same_h = (raster[:, :-1] == raster[:, 1:]) & (raster[:, :-1] > 0)
        same_v = (raster[:-1, :] == raster[1:, :]) & (raster[:-1, :] > 0)
        a = np.concatenate([idx[:, :-1][same_h], idx[:-1, :][same_v]])
        b = np.concatenate([idx[:, 1:][same_h], idx[1:, :][same_v]])
        parent = np.arange(len(self))
        while True:
            ra, rb = parent[a], parent[b]
            differ = ra != rb
            if not differ.any():
                return np.where(values > 0, parent, -1)
            # an edge within one tree stays there; every root across the
            # other edges hooks onto the lowest root it meets, then each
            # element follows its parent pointers to a root
            a, b, ra, rb = a[differ], b[differ], ra[differ], rb[differ]
            np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped


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
        raise ValueError(f"no grid element centers fall inside the room at grid_size = {g!r}")
    pts = pts[keep]
    ij = np.column_stack([cols.ravel()[keep], rows.ravel()[keep]])
    centers = np.column_stack([pts, np.full(len(pts), room.z_r)])
    cell_index = np.full((ny, nx), -1, dtype=np.int64)
    cell_index[ij[:, 1], ij[:, 0]] = np.arange(len(pts))
    return Grid(centers=centers, cell_index=cell_index, size=g, x0=xmin, y0=ymin)


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

    A reflector whose ``Polygon._inside_cells`` cell has a verdict takes it. Squared
    offsets decide the cone rule ``hypot(dx, dy) <= radius`` outside a relative band of
    _CONE_BAND. Per occluder edge, only visible pairs straddling the edge line get the
    segment-line test.
    """
    xy = _as_points(xy)
    poly = room.boundary
    inside = poly._cell_verdicts(xy, lambda rest: boundary_distances(rest, poly) > _EDGE_TOL)
    if strict and not inside.all():
        raise ValueError("reflector (x, y) must lie strictly inside the room")
    radius = (float(z) - room.z_r) * math.tan(room.cone_half_angle)
    gx, gy = grid.xy[:, 0], grid.xy[:, 1]
    qx, qy = np.where(inside, xy.T, np.nan)  # NaN sees nothing, without warnings
    d2, dy = gx - qx[:, None], gy - qy[:, None]  # squared in place: two (M, N) planes
    d2 *= d2
    d2 += np.multiply(dy, dy, out=dy)
    # d2 and radius**2 lie within 2 ulp of the exact squares and np.hypot within 1 ulp,
    # so outside the band the squares decide. A negative radius, or one whose square
    # may leave the normal range, sends every pair to np.hypot.
    lo, hi = 0.0, math.inf
    if 1e-150 <= radius <= 1e150:
        lo, hi = radius * radius * (1.0 - _CONE_BAND), radius * radius * (1.0 + _CONE_BAND)
    vis = d2 < lo
    k = np.flatnonzero((d2 <= hi) ^ vis)
    del d2, dy
    r, c = np.divmod(k, len(gx))
    vis.put(k, np.hypot(gx[c] - qx[r], gy[c] - qy[r]) <= radius)
    for (ax, ay), (bx, by) in zip(*(e.tolist() for e in poly.occluder_edges)):
        ex, ey = bx - ax, by - ay
        k = np.flatnonzero(vis & _apart(_side(ax, ay, ex, ey, qx, qy)[:, None],
                                        _side(ax, ay, ex, ey, gx, gy)))
        # Pad to whole steps of 128 pairs, repeating the last: numpy keeps freed
        # blocks under 1 KiB per exact size, and a new size per call grew the heap.
        k = k.take(np.arange(-(-len(k) // 128) * 128), mode="clip")
        r, c = np.divmod(k, len(gx))
        seg = qx[r], qy[r], gx[c] - qx[r], gy[c] - qy[r]  # origin and direction of each segment
        vis.put(k[_apart(_side(*seg, ax, ay), _side(*seg, bx, by))], False)
    return vis


def sight_lines_clear(qx, qy, px, py, room: RoomModel) -> np.ndarray:
    """True where the segment q->p strictly crosses no occluder edge of the room.

    The four coordinate arrays broadcast against each other. A strict
    crossing of edge a->b has q and p strictly on opposite sides of the edge
    line and a and b strictly on opposite sides of the segment line, so a
    segment that only touches a wall or grazes a vertex stays clear.
    """
    clear = np.ones(np.broadcast(qx, qy, px, py).shape, dtype=bool)
    dx, dy = px - qx, py - qy
    for (ax, ay), (bx, by) in zip(*room.boundary.occluder_edges):
        ex, ey = bx - ax, by - ay
        clear &= ~(_apart(_side(ax, ay, ex, ey, qx, qy), _side(ax, ay, ex, ey, px, py))
                   & _apart(_side(qx, qy, dx, dy, ax, ay), _side(qx, qy, dx, dy, bx, by)))
    return clear


def _parity_inside(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd point-in-polygon against the edges a[i] -> b[i]; boundary points fall either way."""
    ax, ay = a[:, 0], a[:, 1]
    bx, by = b[:, 0], b[:, 1]
    px = pts[:, 0:1]
    py = pts[:, 1:2]
    cond = (ay > py) != (by > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = ax + (py - ay) * (bx - ax) / (by - ay)
    return (np.sum(cond & (px < x_int), axis=1) % 2) == 1


def _contains_points_raw(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Boundary-inclusive point-in-polygon against the edges a[i] -> b[i]."""
    inside = _parity_inside(a, b, pts)
    # The on-edge test only where the parity test says outside, and only for
    # finite points: no edge holds the others, and inf * 0 would warn.
    out = np.flatnonzero(~inside & np.isfinite(pts).all(axis=1))
    if out.size:
        ax, ay = a[:, 0], a[:, 1]
        ex, ey = b[:, 0] - ax, b[:, 1] - ay
        elen2 = ex * ex + ey * ey
        dx = pts[out, 0:1] - ax
        dy = pts[out, 1:2] - ay
        cross = dx * ey - dy * ex
        dot = dx * ex + dy * ey
        reach = _EDGE_TOL * np.sqrt(elen2)  # cross and dot are edge length times distance
        on_line = np.abs(cross) <= reach
        within = (dot >= -reach) & (dot <= elen2 + reach)
        inside[out] = np.any(on_line & within, axis=1)
    return inside


def in_margin(points, room: RoomModel) -> np.ndarray:
    """The wall-margin rule: inside the room and at least wall_margin - _EDGE_TOL from every wall."""
    pts = _as_points(points)
    poly = room.boundary
    return poly.contains_points(pts) & (poly.edge_distances(pts) >= room.wall_margin - _EDGE_TOL)


def project_into_margin(points, room: RoomModel) -> np.ndarray:
    """Move each point that fails ``in_margin`` to the nearest point of the margin region.

    Takes a point of shape (2,) or an (n, 2) array and returns the same
    shape; points passing the rule come back unchanged, the others go to
    ``margin.nearest_points``. Raises ValueError for a non-finite point and
    when the region is empty.
    """
    shape = np.shape(points)
    q = _as_points(points).copy()
    if not np.isfinite(q).all():
        i = int(np.argmin(np.isfinite(q).all(axis=1)))
        raise ValueError(f"cannot project non-finite point {i}: {tuple(q[i].tolist())}")
    rows = np.flatnonzero(~in_margin(q, room))
    if rows.size:
        from .margin import nearest_points  # evaluate and simulate never load it

        q[rows] = nearest_points(q[rows], room)
    return q.reshape(shape)
