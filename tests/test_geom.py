import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from reflectopt import geom
from reflectopt.geom import (
    _EDGE_TOL,
    _INSIDE_CELLS,
    Polygon,
    RoomModel,
    boundary_distance,
    boundary_distances,
    build_grid,
    in_margin,
    project_into_margin,
    sight_lines_clear,
    visibility_mask,
    visibility_masks,
    visibility_polygon,
)
from reflectopt.nearest import NearestSearch
from reflectopt.placement import Placement, check_constraints, placement_masks
from conftest import comb_room_poly, five_test_rooms, mc_visibility_area, segment_visible


class TestPolygon:
    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0)])

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])

    def test_rejects_self_intersection(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_area(self, unit_square, l_room_poly):
        assert unit_square.area == pytest.approx(1.0)
        assert l_room_poly.area == pytest.approx(60.0)


class TestPointInPolygon:
    def test_interior(self, unit_square):
        assert unit_square.contains_points([(0.5, 0.5)]).tolist() == [True]

    def test_exterior(self, unit_square):
        assert unit_square.contains_points([(1.5, 0.5)]).tolist() == [False]

    def test_boundary_counts_as_inside(self, unit_square):
        assert unit_square.contains_points([(1.0, 0.5), (0.0, 0.0)]).tolist() == [True, True]

    def test_concave(self, l_room_poly):
        # (2, 6) lies in the removed block
        assert l_room_poly.contains_points([(2, 2), (2, 6), (7, 6)]).tolist() == [True, False, True]


class TestBoundaryDistance:
    def test_center_of_square(self, unit_square):
        assert boundary_distance((0.5, 0.5), unit_square) == pytest.approx(0.5)

    def test_exterior_negative(self, unit_square):
        assert boundary_distance((-0.25, 0.5), unit_square) == pytest.approx(-0.25)

    def test_near_edge(self, unit_square):
        assert boundary_distance((0.1, 0.5), unit_square) == pytest.approx(0.1)


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [(np.inf, 2.0), (2.0, -np.inf), (np.inf, np.inf),
                                     (np.nan, 2.0), (np.inf, np.nan)])
    def test_neither_in_margin_nor_inside(self, readme_l_room, bad):
        room = readme_l_room
        pts = np.array([(2.0, 2.0), bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dist = room.boundary.edge_distances(pts)
            signed = boundary_distances(pts, room.boundary)
            margin = in_margin(pts, room)
            with pytest.raises(ValueError, match=r"non-finite point 1: \("):
                project_into_margin(pts, room)
        assert dist[0] == signed[0] == 2.0 and margin[0]
        assert not margin[1] and not signed[1] > _EDGE_TOL
        if np.isinf(bad).any():  # infinitely far, whatever the other coordinate
            assert dist[1] == np.inf and signed[1] == -np.inf
        else:
            assert np.isnan(dist[1]) and np.isnan(signed[1])


class TestBuildGrid:
    def test_unit_square_half_meter(self, unit_square):
        room = RoomModel(boundary=unit_square, grid_size=0.5, z_r=0.5, z_l=3.0)
        grid = build_grid(room)
        got = sorted(map(tuple, np.round(grid.centers, 9)))
        assert got == [
            (0.25, 0.25, 0.5),
            (0.25, 0.75, 0.5),
            (0.75, 0.25, 0.5),
            (0.75, 0.75, 0.5),
        ]

    def test_rectangle_count(self):
        rect = Polygon([(0, 0), (10, 0), (10, 8), (0, 8)])
        grid = build_grid(RoomModel(boundary=rect, grid_size=0.1))
        assert len(grid) == 100 * 80

    def test_l_room_count_matches_point_in_polygon(self, l_room_poly):
        # Independent oracle: test every lattice point on its own.
        room = RoomModel(boundary=l_room_poly, grid_size=0.1)
        grid = build_grid(room)
        count = 0
        for ix in range(100):
            for iy in range(80):
                p = (0.05 + 0.1 * ix, 0.05 + 0.1 * iy)
                count += l_room_poly.contains_points([p])[0]
        assert len(grid) == count == 6000

    def test_empty_grid_is_error(self, unit_square):
        room = RoomModel(boundary=unit_square, grid_size=5.0)
        # one 5 m cell over a 1 m room: center (2.5, 2.5) is outside
        with pytest.raises(ValueError):
            build_grid(room)

    def test_room_grid_is_built_once(self, readme_l_room):
        room = dataclasses.replace(readme_l_room)
        grid = room.grid
        assert room.grid is grid
        ref = build_grid(room)
        for name in ("centers", "cell_index"):
            assert np.array_equal(getattr(grid, name), getattr(ref, name))
        assert (grid.size, grid.x0, grid.y0) == (ref.size, ref.x0, ref.y0)

    def test_replaced_room_gets_its_own_grid(self, readme_l_room):
        room = dataclasses.replace(readme_l_room)
        fine = room.grid
        coarse = dataclasses.replace(room, grid_size=0.4)
        assert coarse.grid is not fine and room.grid is fine
        assert (len(fine), len(coarse.grid), coarse.grid.size) == (1500, 380, 0.4)

    def test_raster_round_trip(self, small_grid):
        vals = np.arange(len(small_grid))
        raster = small_grid.rasterize(vals, fill=-1)
        back = raster[tuple(np.argwhere(small_grid.cell_index >= 0).T)]
        assert np.array_equal(back, vals)


def _two_term_contains(poly, pts):
    """Parity test OR on-edge test, both over every point and edge."""
    a = poly.vertices
    b = np.roll(a, -1, axis=0)
    ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    px, py = pts[:, 0:1], pts[:, 1:2]
    cond = (ay > py) != (by > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_int = ax + (py - ay) * (bx - ax) / (by - ay)
    inside = (np.sum(cond & (px < x_int), axis=1) % 2) == 1
    ex, ey = bx - ax, by - ay
    elen2 = ex * ex + ey * ey
    cross = (px - ax) * ey - (py - ay) * ex
    dot = (px - ax) * ex + (py - ay) * ey
    # within _EDGE_TOL of the edge's line, and at most _EDGE_TOL beyond either end
    reach = _EDGE_TOL * np.sqrt(elen2)
    on_line = np.abs(cross) <= reach
    within = (dot >= -reach) & (dot <= elen2 + reach)
    return inside, np.any(on_line & within, axis=1)


def _exact_contains(poly, pts):
    """The exact parity and on-edge test, without the raster."""
    return geom._contains_points_raw(*poly._edges, pts)


def _raster_lines(poly):
    """x of the raster's column edges and y of its row edges."""
    xmin, ymin, xmax, ymax = poly.bounds
    n = _INSIDE_CELLS
    return (xmin + np.arange(n + 1) * ((xmax - xmin) / n),
            ymin + np.arange(n + 1) * ((ymax - ymin) / n))


def _raster_probe_points(poly: Polygon, rng: np.random.Generator, k: int = 500) -> np.ndarray:
    """Random points and the points where a raster lookup could go wrong."""
    xmin, ymin, xmax, ymax = poly.bounds
    a = poly.vertices
    e = np.roll(a, -1, axis=0) - a
    normal = np.column_stack([-e[:, 1], e[:, 0]]) / np.linalg.norm(e, axis=1)[:, None]
    on_edges = a[:, None, :] + np.linspace(0.0, 1.0, 21)[None, :, None] * e[:, None, :]
    offsets = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]) * _EDGE_TOL
    near_edges = on_edges[:, :, None, :] + offsets[:, None] * normal[:, None, None, :]
    # raster cell lines and corners, and one ulp to either side of a line
    cols, rows = _raster_lines(poly)
    corners = np.stack(np.meshgrid(cols, rows), axis=-1).reshape(-1, 2)
    rand = rng.uniform([xmin - 1, ymin - 1], [xmax + 1, ymax + 1], (k, 2))
    on_cols = np.column_stack([rng.choice(cols, k), rand[:, 1]])
    on_rows = np.column_stack([rand[:, 0], rng.choice(rows, k)])
    ulp_cols = np.column_stack([np.nextafter(on_cols[:, 0], rng.choice([-1e9, 1e9], k)),
                                rand[:, 1]])
    ulp_rows = np.column_stack([rand[:, 0],
                                np.nextafter(on_rows[:, 1], rng.choice([-1e9, 1e9], k))])
    projected = poly.nearest_boundary_points(rand)
    far = rng.uniform([xmin - 100, ymin - 100], [xmax + 100, ymax + 100], (k, 2))
    nan, inf = np.nan, np.inf
    special = np.array([[nan, ymin], [xmax, nan], [nan, nan], [inf, ymin], [-inf, ymax],
                        [xmin, inf], [xmax, -inf], [inf, inf], [-inf, -inf], [nan, inf]])
    return np.concatenate([rand, a, on_edges.reshape(-1, 2), near_edges.reshape(-1, 2), corners,
                           on_cols, on_rows, ulp_cols, ulp_rows, projected, far, special])


class TestContainsPoints:
    def test_matches_two_term_formula(self, oracle_room):
        poly = oracle_room.boundary
        a = poly.vertices
        e = np.roll(a, -1, axis=0) - a
        normal = np.column_stack([-e[:, 1], e[:, 0]]) / np.linalg.norm(e, axis=1)[:, None]
        t = np.linspace(0.0, 1.0, 41)
        on_edges = a[:, None, :] + t[None, :, None] * e[:, None, :]
        offsets = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * _EDGE_TOL
        near = on_edges[:, :, None, :] + offsets[:, None] * normal[:, None, None, :]
        xmin, ymin, xmax, ymax = poly.bounds
        rand = np.random.default_rng(3).uniform([xmin - 1, ymin - 1], [xmax + 1, ymax + 1],
                                                (2000, 2))
        pts = np.concatenate([near.reshape(-1, 2), a, rand])
        parity, on_edge = _two_term_contains(poly, pts)
        assert np.array_equal(poly.contains_points(pts), parity | on_edge)
        # both terms decide some points
        assert (on_edge & ~parity).any() and (parity & ~on_edge).any()

    def test_non_finite_points_outside_without_warning(self, oracle_room, readme_l_room):
        for poly in (oracle_room.boundary, readme_l_room.boundary):
            # on each vertex's row and column, so some products are inf * 0
            finite = np.concatenate([poly.vertices[:, 0], poly.vertices[:, 1], [0.0, -3.5]])
            pts = [(s, c) for s in (np.inf, -np.inf, np.nan) for c in finite]
            pts += [(c, s) for s, c in pts]
            pts += [(a, b) for a in (np.inf, -np.inf, np.nan) for b in (np.inf, -np.inf, np.nan)]
            pts = np.array(pts)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = poly.contains_points(pts)
            assert not got.any()
            with np.errstate(invalid="ignore"):
                parity, on_edge = _two_term_contains(poly, pts)
            assert np.array_equal(got, parity | on_edge)

    @pytest.mark.parametrize("room_index", range(8), ids=[
        "convex", "l_shape", "u_shape", "rand1", "rand2", "readme_L", "U", "comb"])
    def test_raster_matches_exact_test(self, room_index, readme_l_room, u_room):
        poly = (five_test_rooms() + [readme_l_room.boundary, u_room.boundary,
                                     comb_room_poly()])[room_index]
        pts = _raster_probe_points(poly, np.random.default_rng(31 + room_index))
        assert np.array_equal(poly.contains_points(pts), _exact_contains(poly, pts))
        # the raster decides most of the room
        assert (poly._inside_cells >= 0).sum() > 0.5 * _INSIDE_CELLS ** 2

    # No shrink phase: when every example fails, shrinking can run for
    # minutes and grow past 1 GB before the failure is reported.
    @settings(max_examples=100, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(0.01, 20.0)),
                    min_size=4, max_size=12),
           st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.integers(0, 2**32 - 1))
    def test_raster_on_random_star_polygons(self, spokes, cx, cy, seed):
        # Spoke i lies in the i-th of n equal sectors around (cx, cy), so no
        # gap reaches pi; neighbouring spokes may nearly meet, making a very
        # short wall.
        n = len(spokes)
        verts = [(cx + r * math.cos(2 * math.pi * (i + f) / n),
                  cy + r * math.sin(2 * math.pi * (i + f) / n))
                 for i, (f, r) in enumerate(spokes)]
        try:
            poly = Polygon(verts)
        except ValueError:
            assume(False)
        pts = _raster_probe_points(poly, np.random.default_rng(seed), k=100)
        assert np.array_equal(poly.contains_points(pts), _exact_contains(poly, pts))

    def test_free_cells_need_no_exact_test(self, oracle_room, monkeypatch):
        poly = oracle_room.boundary
        cols, rows = _raster_lines(poly)
        r, c = np.nonzero(poly._inside_cells >= 0)  # raster index plus one
        frac = np.random.default_rng(5).uniform(0.01, 0.99, (len(r), 2))
        pts = np.column_stack([cols[c - 1] + frac[:, 0] * (cols[1] - cols[0]),
                               rows[r - 1] + frac[:, 1] * (rows[1] - rows[0])])
        expected = _exact_contains(poly, pts)

        def no_exact_test(a, b, points):
            raise AssertionError("exact test asked for a point in a free cell")

        monkeypatch.setattr(geom, "_contains_points_raw", no_exact_test)
        assert np.array_equal(poly.contains_points(pts), expected)

    @pytest.mark.parametrize("room_name", ["readme_L", "U", "comb"])
    def test_callers_match_exact_test(self, room_name, readme_l_room, u_room):
        room = {"readme_L": readme_l_room, "U": u_room,
                "comb": dataclasses.replace(u_room, boundary=comb_room_poly())}[room_name]
        poly = room.boundary
        # finite points only: sight_lines_clear warns on +-inf (inf * 0)
        pts = _raster_probe_points(poly, np.random.default_rng(7))
        pts = pts[np.isfinite(pts).all(axis=1)]
        inside = _exact_contains(poly, pts)
        dist = poly.edge_distances(pts)
        assert np.array_equal(in_margin(pts, room),
                              inside & (dist >= room.wall_margin - _EDGE_TOL))
        # A cone that holds every element, on a coarse grid: each row is the
        # strictly-inside verdict and the sight lines.
        coarse = dataclasses.replace(room, grid_size=2.0)
        grid = build_grid(coarse)
        strictly = inside & (dist > _EDGE_TOL)
        clear = sight_lines_clear(pts[:, 0:1], pts[:, 1:2], grid.xy[:, 0], grid.xy[:, 1], coarse)
        masks = visibility_masks(pts, coarse.z_r + 500.0, grid, coarse, strict=False)
        assert np.array_equal(masks, strictly[:, None] & clear)
        assert masks[strictly].any(axis=1).mean() > 0.9  # the rows are not empty
        # lattice centres on walls, too, at 0.4 m
        for size in (room.grid_size, 0.4):
            grid = build_grid(dataclasses.replace(room, grid_size=size))
            ny, nx = grid.cell_index.shape
            cols, rows = np.meshgrid(np.arange(nx), np.arange(ny))
            lattice = np.column_stack([grid.x0 + (cols.ravel() + 0.5) * size,
                                       grid.y0 + (rows.ravel() + 0.5) * size])
            keep = _exact_contains(poly, lattice)
            assert np.array_equal(grid.cell_index.ravel() >= 0, keep)
            assert np.array_equal(grid.xy, lattice[keep])

    @pytest.mark.parametrize("k", [1.5, 2.0, 2.4])
    def test_point_inside_short_wall_tip_is_outside(self, k, u_room):
        # The comb's 0.4 m wall tip at x = 12 runs along y = 6; the point lies
        # k nm inside the wall, beyond the on-edge test's reach of _EDGE_TOL.
        room = dataclasses.replace(u_room, boundary=comb_room_poly())
        pt = np.array([[12.0, 6.0 + k * 1e-9]])
        assert not room.boundary.contains_points(pt)[0]
        assert boundary_distances(pt, room.boundary)[0] < 0.0
        grid = build_grid(dataclasses.replace(room, grid_size=0.4))
        assert not visibility_masks(pt, room.z_l, grid, room, strict=False).any()


def _brute_nearest(grid, pts) -> np.ndarray:
    """Lowest index of the least dx * dx + dy * dy over all grid elements, per point."""
    out = np.empty(len(pts), dtype=np.intp)
    for s in range(0, len(pts), 256):
        dx = pts[s:s + 256, 0, None] - grid.xy[:, 0]
        dy = pts[s:s + 256, 1, None] - grid.xy[:, 1]
        out[s:s + 256] = np.argmin(dx * dx + dy * dy, axis=1)  # the first of equal minima
    return out


def _lattice_probe_points(grid, boundary, rng, n) -> np.ndarray:
    """Random points, lattice vertices, points on, near and one ulp off cell
    edges, wall projections, far points around the grid's lattice, and
    finite points far beyond it."""
    ny, nx = grid.cell_index.shape
    g = grid.size
    cols = grid.x0 + np.arange(-2, nx + 3) * g
    rows = grid.y0 + np.arange(-2, ny + 3) * g
    lo = np.array([grid.x0, grid.y0]) - 2 * g
    hi = np.array([grid.x0 + nx * g, grid.y0 + ny * g]) + 2 * g
    rand = rng.uniform(lo, hi, (n, 2))
    vertices = np.stack(np.meshgrid(cols, rows), axis=-1).reshape(-1, 2)
    on_cols = np.column_stack([rng.choice(cols, n), rand[:, 1]])
    on_rows = np.column_stack([rand[:, 0], rng.choice(rows, n)])
    # within and just beyond the lattice tolerance of an edge
    eps = rng.choice(np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]) * 1e-9 * g, n)
    near_cols = on_cols + np.column_stack([eps, np.zeros(n)])
    near_rows = on_rows + np.column_stack([np.zeros(n), eps])
    # one ulp off an edge, where rounding decides the side
    ulp_cols = np.column_stack([np.nextafter(on_cols[:, 0], rng.choice([-1e9, 1e9], n)),
                                rand[:, 1]])
    ulp_rows = np.column_stack([rand[:, 0],
                                np.nextafter(on_rows[:, 1], rng.choice([-1e9, 1e9], n))])
    walls = boundary.nearest_boundary_points(rand)
    far = rng.uniform(lo - 10.0, hi + 10.0, (n, 2))
    # squared distances up to 2e300 still do not overflow
    huge = np.array([[1e150, 1e150], [-1e150, 3.0], [2.0, -1e150], [1e150, -1e150]])
    return np.concatenate([rand, vertices, on_cols, on_rows, near_cols, near_rows, ulp_cols,
                           ulp_rows, walls, far, huge])


def _nearest_test_room(index, small_room, readme_l_room, u_room) -> RoomModel:
    """The 4 x 4 room, the five test rooms, the README L, U and comb rooms."""
    if index == 0:
        return small_room
    if index <= 5:
        return RoomModel(boundary=five_test_rooms()[index - 1], grid_size=0.25)
    if index == 8:
        return RoomModel(boundary=comb_room_poly(), grid_size=0.2)
    return readme_l_room if index == 6 else u_room


class TestNearestElement:
    @pytest.mark.parametrize("room_index", range(9), ids=[
        "square", "convex", "l_shape", "u_shape", "rand1", "rand2", "readme_L", "U", "comb"])
    def test_matches_brute_force(self, room_index, small_room, readme_l_room, u_room):
        room = _nearest_test_room(room_index, small_room, readme_l_room, u_room)
        grid = build_grid(room)
        pts = _lattice_probe_points(grid, room.boundary, np.random.default_rng(29 + room_index),
                                    1000)
        expected = _brute_nearest(grid, pts)
        assert np.array_equal(grid.nearest_element(pts), expected)
        for i in range(0, len(pts), 101):
            assert grid.nearest_element(pts[i]).tolist() == [expected[i]]

    def test_ties_go_to_the_lowest_index(self, small_grid):
        # 0.25 m cells: the centers, and the distances to a lattice vertex or
        # edge point, are exact binary fractions, so these ties are exact
        idx = small_grid.cell_index
        # the last point's window holds only its lattice row, behind two empty rows
        pts = np.array([[1.0, 1.0], [1.0, 1.1], [1.1, 1.0], [0.0, 0.0], [4.0, 2.0],
                        [3.75, -0.125]])
        expected = [idx[3, 3], idx[4, 3], idx[3, 4], idx[0, 0], idx[7, 15], idx[0, 14]]
        assert small_grid.nearest_element(pts).tolist() == expected
        assert [small_grid.nearest_element(p)[0] for p in pts] == expected
        assert np.array_equal(_brute_nearest(small_grid, pts), expected)

    # No shrink phase, as in TestContainsPoints.
    @settings(max_examples=100, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(0.5, 5.0)),
                    min_size=4, max_size=12),
           st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(0.2, 0.5),
           st.integers(0, 2**32 - 1))
    def test_random_star_polygons_match_brute_force(self, spokes, cx, cy, size, seed):
        n = len(spokes)
        verts = [(cx + r * math.cos(2 * math.pi * (i + f) / n),
                  cy + r * math.sin(2 * math.pi * (i + f) / n))
                 for i, (f, r) in enumerate(spokes)]
        try:
            room = RoomModel(boundary=Polygon(verts), grid_size=size)
            grid = build_grid(room)
        except ValueError:
            assume(False)
        pts = _lattice_probe_points(grid, room.boundary, np.random.default_rng(seed), 50)
        expected = _brute_nearest(grid, pts)
        assert np.array_equal(grid.nearest_element(pts), expected)
        assert grid.nearest_element(pts[0]).tolist() == [expected[0]]

    def test_cell_interiors_need_no_kdtree(self, oracle_room, monkeypatch):
        # points inside a cell that holds an element need no window search
        grid = build_grid(oracle_room)
        offsets = np.random.default_rng(5).uniform(-0.49, 0.49, (len(grid), 2)) * grid.size
        expected = _brute_nearest(grid, grid.xy + offsets)

        def no_window_search(self, pts, flat):
            raise AssertionError("window search asked for a point inside a grid cell")

        monkeypatch.setattr(NearestSearch, "_window_search", no_window_search)
        assert np.array_equal(grid.nearest_element(grid.xy + offsets), expected)

    @pytest.mark.parametrize("bad", [(np.nan, 1.0), (1.0, np.inf), (-np.inf, -np.inf),
                                     (np.nan, np.inf)])
    def test_non_finite_points_raise(self, readme_l_room, bad):
        grid = build_grid(readme_l_room)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                grid.nearest_element(np.array([bad]))
            batch = np.random.default_rng(3).uniform(0.0, 4.0, (500, 2))
            batch[137] = bad
            with pytest.raises(ValueError):
                grid.nearest_element(batch)

    @pytest.mark.parametrize("room_index", [8, 5], ids=["comb", "rand2"])
    def test_far_points_in_bounded_memory(self, room_index, small_room, readme_l_room, u_room,
                                          monkeypatch):
        # most far points lie more than 1.5 cells from every element, so they
        # compare all elements
        room = _nearest_test_room(room_index, small_room, readme_l_room, u_room)
        grid = build_grid(room)
        ny, nx = grid.cell_index.shape
        lo = np.array([grid.x0, grid.y0])
        hi = lo + grid.size * np.array([nx, ny])
        pts = np.random.default_rng(8).uniform(lo - 10.0, hi + 10.0, (40_000, 2))
        pts = pts[((pts < lo) | (pts > hi)).any(axis=1)][:10_000]
        assert len(pts) == 10_000
        compared_all = []
        nearest_of_all = NearestSearch._nearest_of_all

        def spy(self, far):
            compared_all.append(len(far))
            return nearest_of_all(self, far)

        monkeypatch.setattr(NearestSearch, "_nearest_of_all", spy)
        tracemalloc.start()
        try:
            got = grid.nearest_element(pts)  # the first call also builds the lookup tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert sum(compared_all) > len(pts) // 2
        assert np.array_equal(got, _brute_nearest(grid, pts))


class TestVisibilityPolygon:
    def test_convex_room_sees_everything(self, unit_square):
        for q in [(0.5, 0.5), (0.1, 0.9), (0.73, 0.21)]:
            vp = visibility_polygon(q, unit_square)
            assert vp.area == pytest.approx(unit_square.area, rel=1e-9)

    def test_square_center_recovers_square(self, unit_square):
        vp = visibility_polygon((0.5, 0.5), unit_square)
        corners = {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}
        got = {tuple(np.round(v, 9)) for v in vp.vertices}
        assert corners <= got

    def test_outside_viewpoint_rejected(self, unit_square):
        with pytest.raises(ValueError):
            visibility_polygon((2.0, 0.5), unit_square)

    def test_l_room_shadow(self, l_room_poly):
        vp = visibility_polygon((2.0, 2.0), l_room_poly)
        assert vp.area < l_room_poly.area
        mc = mc_visibility_area((2.0, 2.0), l_room_poly, n_samples=100_000, seed=7)
        assert vp.area == pytest.approx(mc, rel=0.01)

    def test_contained_in_room(self, l_room_poly):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = rng.uniform([0.3, 0.3], [9.7, 3.7])
            vp = visibility_polygon(q, l_room_poly)
            assert np.all(l_room_poly.contains_points(vp.vertices))
            assert vp.area <= l_room_poly.area + 1e-9


class TestConeMask:
    def test_radius_follows_tangent(self):
        rect = Polygon([(0, 0), (10, 0), (10, 8), (0, 8)])
        room = RoomModel(boundary=rect, grid_size=0.1, z_r=0.5, z_l=2.5,
                         cone_half_angle=np.deg2rad(45.0))
        grid = build_grid(room)
        q = np.array([5.0, 4.0, 2.5])
        mask = visibility_mask(q, grid, room)  # a convex room: the cone alone
        d = np.hypot(grid.xy[:, 0] - 5.0, grid.xy[:, 1] - 4.0)
        assert np.array_equal(mask, d <= 2.0)
        assert mask[grid.nearest_element([(5.0 + 1.9, 4.0)])[0]]
        assert not mask[grid.nearest_element([(5.0 + 2.12, 4.0)])[0]]

    def test_30_degree_cone(self):
        rect = Polygon([(0, 0), (10, 0), (10, 8), (0, 8)])
        room = RoomModel(boundary=rect, grid_size=0.1, z_r=0.5, z_l=2.5,
                         cone_half_angle=np.deg2rad(30.0))
        grid = build_grid(room)
        mask = visibility_mask(np.array([5.0, 4.0, 2.5]), grid, room)
        radius = 2.0 * math.tan(np.deg2rad(30.0))
        d = np.hypot(grid.xy[:, 0] - 5.0, grid.xy[:, 1] - 4.0)
        assert np.array_equal(mask, d <= radius)
        # radius ~= 1.1547 m: the center 1.15 m below q is in, 1.25 m is out
        assert mask[grid.nearest_element([(5.05, 4.0 - 1.15)])[0]]
        assert not mask[grid.nearest_element([(5.05, 4.0 - 1.25)])[0]]


class TestVisibilityMask:
    def test_convex_room_wide_cone_all_true(self, small_room, small_grid):
        wide = RoomModel(
            boundary=small_room.boundary,
            grid_size=small_room.grid_size,
            z_r=small_room.z_r,
            z_l=small_room.z_l,
            cone_half_angle=np.deg2rad(89.0),
            wall_margin=small_room.wall_margin,
        )
        q = np.array([2.0, 2.0, wide.z_l])
        assert np.all(visibility_mask(q, small_grid, wide))

    def test_zero_cone_limit(self, small_room, small_grid):
        narrow = RoomModel(
            boundary=small_room.boundary,
            grid_size=small_room.grid_size,
            z_r=small_room.z_r,
            z_l=small_room.z_l,
            cone_half_angle=1e-9,
            wall_margin=small_room.wall_margin,
        )
        q = np.array([2.125, 2.125, narrow.z_l])  # exactly over a grid center
        mask = visibility_mask(q, small_grid, narrow)
        d = np.hypot(small_grid.xy[:, 0] - q[0], small_grid.xy[:, 1] - q[1])
        assert np.all(d[mask] <= small_room.grid_size / 2 + 1e-9)

    def test_l_room_matches_brute_force(self, l_room_poly):
        room = RoomModel(boundary=l_room_poly, grid_size=0.2, z_r=0.5, z_l=3.5,
                         cone_half_angle=np.deg2rad(45.0))
        grid = build_grid(room)
        rng = np.random.default_rng(11)
        for _ in range(5):
            qxy = rng.uniform([0.6, 0.6], [4.4, 3.4])
            q = np.array([*qxy, room.z_l])
            mask = visibility_mask(q, grid, room)
            los = segment_visible(qxy, grid.xy, l_room_poly)
            d = np.hypot(grid.xy[:, 0] - q[0], grid.xy[:, 1] - q[1])
            cone = d <= (room.z_l - room.z_r) * math.tan(room.cone_half_angle)
            expect = los & cone
            assert np.array_equal(mask, expect)

    def test_monotone_in_cone_angle(self, l_room_poly):
        base = dict(boundary=l_room_poly, grid_size=0.25, z_r=0.5, z_l=3.5)
        grid = build_grid(RoomModel(**base))
        q = np.array([3.0, 2.0, 3.5])
        prev = None
        for deg in [20, 35, 50, 65, 80]:
            room = RoomModel(**base, cone_half_angle=np.deg2rad(deg))
            mask = visibility_mask(q, grid, room)
            if prev is not None:
                assert np.all(mask[prev])  # set bits never clear
            prev = mask

    def test_outside_reflector(self, small_room, small_grid):
        q = np.array([-1.0, 2.0, small_room.z_l])
        with pytest.raises(ValueError):
            visibility_mask(q, small_grid, small_room)
        assert not visibility_mask(q, small_grid, small_room, strict=False).any()


def _cone_rule(xy, z, grid, room) -> np.ndarray:
    """The cone rule itself: np.hypot of the offsets at most the cone radius at height z."""
    radius = (z - room.z_r) * math.tan(room.cone_half_angle)
    return np.hypot(grid.xy[:, 0] - xy[:, :1], grid.xy[:, 1] - xy[:, 1:]) <= radius


class TestConeBand:
    """Cone verdicts where the squared-distance pre-test hands pairs to np.hypot."""

    @pytest.fixture
    def room(self):
        # 12 x 12 m with a 0.3 m grid and a 45 degree cone of radius 4.5 m: the
        # lattice offsets (2.7, 3.6), (3.6, 2.7) and (4.5, 0) lie on the cone radius.
        return RoomModel(boundary=Polygon([(0, 0), (12, 0), (12, 12), (0, 12)]), grid_size=0.3,
                         z_r=0.5, z_l=5.0, cone_half_angle=np.deg2rad(45.0))

    @pytest.fixture
    def hypot_pairs(self, monkeypatch):
        """Element count of every np.hypot call from here on."""
        pairs = []
        real = np.hypot

        def spy(a, b, *args, **kwargs):
            pairs.append(np.broadcast(a, b).size)
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "hypot", spy)
        return pairs

    def test_elements_on_the_radius(self, room, hypot_pairs):
        grid = room.grid
        q = grid.xy[grid.element_at((6.15, 6.15))]
        # on the element centre, and moved 1 ulp each way along x, y and both
        xy = np.array([q, [np.nextafter(q[0], 13.0), q[1]], [np.nextafter(q[0], -1.0), q[1]],
                       [q[0], np.nextafter(q[1], 13.0)], [q[0], np.nextafter(q[1], -1.0)],
                       np.nextafter(q, 13.0), np.nextafter(q, -1.0)])
        dx, dy = grid.xy[:, 0] - xy[:, :1], grid.xy[:, 1] - xy[:, 1:]
        on_radius = np.abs(np.hypot(dx, dy) - 4.5) < 1e-9
        assert (on_radius.sum(axis=1) == 12).all()
        squares_differ = 0
        for z in room.z_l + math.ulp(room.z_l) * np.arange(-2, 3):  # radii within ulps of 4.5 m
            radius = (z - room.z_r) * math.tan(room.cone_half_angle)
            expected = _cone_rule(xy, z, grid, room)
            squares_differ += int((expected != (dx * dx + dy * dy <= radius * radius)).sum())
            hypot_pairs.clear()
            assert np.array_equal(visibility_masks(xy, z, grid, room), expected)
            # the band holds the elements on the radius, and no pair far from it
            assert on_radius.sum() <= sum(hypot_pairs) < 2 * on_radius.sum()
        assert squares_differ > 0  # a plain squared comparison would get some wrong

    def test_reflector_below_the_radar_sees_nothing(self, room, hypot_pairs):
        xy = room.grid.xy[[100, 700]]
        z = room.z_r - 1.0  # negative radius
        masks = visibility_masks(xy, z, room.grid, room)
        assert not masks.any()
        hypot_pairs.clear()
        assert np.array_equal(masks, _cone_rule(xy, z, room.grid, room))

    @pytest.mark.parametrize("z", [1e200, 0.5])
    def test_squared_radius_off_the_normal_range_takes_the_exact_test(self, room, hypot_pairs, z):
        # radius**2 overflows at z = 1e200; at z = z_r the radius is 0
        xy = room.grid.xy[[100, 700]]
        masks = visibility_masks(xy, z, room.grid, room)
        assert sum(hypot_pairs) == masks.size
        assert np.array_equal(masks, _cone_rule(xy, z, room.grid, room))
        assert masks.all() if z > 1.0 else masks.sum(axis=1).tolist() == [1, 1]

    def test_nan_reflector_gets_an_empty_row(self, room, hypot_pairs):
        xy = np.array([room.grid.xy[100], (np.nan, 6.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            masks = visibility_masks(xy, room.z_l, room.grid, room, strict=False)
        assert not masks[1].any()
        assert sum(hypot_pairs) < len(room.grid)  # the NaN row takes no exact test
        hypot_pairs.clear()
        assert np.array_equal(masks[0], _cone_rule(xy[:1], room.z_l, room.grid, room)[0])

    def test_single_reflector_mask(self, room):
        grid = room.grid
        q = grid.xy[grid.element_at((6.15, 6.15))]
        mask = visibility_mask([*q, room.z_l], grid, room)
        assert np.array_equal(mask, _cone_rule(q[None], room.z_l, grid, room)[0])
        assert mask.sum() < len(grid)


class TestOccluderEdges:
    def test_l_room_has_the_two_reflex_walls(self, l_room_poly):
        a, b = l_room_poly.occluder_edges
        got = {(tuple(p), tuple(q)) for p, q in zip(a.tolist(), b.tolist())}
        assert got == {((5.0, 8.0), (5.0, 4.0)), ((5.0, 4.0), (0.0, 4.0))}

    def test_convex_rooms_have_none(self, unit_square):
        rect = Polygon([(0, 0), (10, 0), (10, 8), (0, 8)])
        assert len(rect.occluder_edges[0]) == len(unit_square.occluder_edges[0]) == 0
        assert len(five_test_rooms()[0].occluder_edges[0]) == 0

    def test_u_room_has_its_three_inner_walls_and_no_hull_edge(self):
        u = five_test_rooms()[2]
        a, b = u.occluder_edges
        got = {(tuple(p), tuple(q)) for p, q in zip(a.tolist(), b.tolist())}
        assert got == {((6.0, 6.0), (6.0, 2.0)), ((6.0, 2.0), (3.0, 2.0)),
                       ((3.0, 2.0), (3.0, 6.0))}


def _test_room(vertices, grid_size=0.25, z_l=4.0):
    """Room with a 45 degree cone: radius 3.5 m at the default z_l."""
    return RoomModel(boundary=Polygon(vertices), grid_size=grid_size, z_r=0.5, z_l=z_l,
                     cone_half_angle=np.deg2rad(45.0), wall_margin=0.5)


def _oracle_masks(xy, grid, room):
    """Cone AND brute-force segment test, one row per reflector strictly inside the room."""
    poly = room.boundary
    strictly = _exact_contains(poly, xy) & (poly.edge_distances(xy) > _EDGE_TOL)
    rows = []
    for q, ok in zip(xy, strictly):
        cone = np.hypot(grid.xy[:, 0] - q[0], grid.xy[:, 1] - q[1]) <= room.cone_radius
        rows.append(ok & cone & segment_visible(q, grid.xy, poly))
    return np.array(rows).reshape(len(xy), len(grid))


def _probe_reflectors(room, grid, rng, k=30) -> np.ndarray:
    """Reflector positions where the mask kernel's shortcuts could go wrong."""
    poly = room.boundary
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    # grid centres, and the lattice corners and edge midpoints around them
    lattice = (grid.xy[rng.integers(0, len(grid), k)]
               + rng.choice([-0.5, 0.0, 0.5], (k, 2)) * grid.size)
    i = rng.integers(0, len(v), k)
    walls = v[i] + rng.uniform(0.0, 1.0, (k, 1)) * e[i]
    # 1e-9 to 1e-6 m from a reflex vertex (any vertex in a convex room)
    before = np.roll(e, 1, axis=0)
    reflex = v[before[:, 0] * e[:, 1] - before[:, 1] * e[:, 0] < 0.0]
    corners = reflex if len(reflex) else v
    angle = rng.uniform(0.0, 2.0 * math.pi, k)
    away = np.column_stack([np.cos(angle), np.sin(angle)]) * 10.0 ** rng.uniform(-9.0, -6.0, (k, 1))
    near = corners[rng.integers(0, len(corners), k)] + away
    xmin, ymin, xmax, ymax = poly.bounds
    contour = project_into_margin(rng.uniform([xmin, ymin], [xmax, ymax], (k, 2)), room)
    # in raster cells with no verdict
    r, c = np.nonzero(poly._inside_cells[1:-1, 1:-1] < 0)
    cols, rows = _raster_lines(poly)
    pick = rng.integers(0, len(r), k)
    undecided = np.column_stack([cols[c[pick]] + rng.uniform(0.0, 1.0, k) * (cols[1] - cols[0]),
                                 rows[r[pick]] + rng.uniform(0.0, 1.0, k) * (rows[1] - rows[0])])
    return np.concatenate([lattice, walls, near, contour, undecided])


class TestVisibilityMasks:
    @pytest.mark.parametrize("room_index", range(9))
    def test_placement_masks_equal_oracle(self, room_index, readme_l_room, u_room):
        # The five test rooms, the README L room, the U room, the comb room
        # and a 30 x 30 m hall.
        hall = Polygon([(0, 0), (30, 0), (30, 30), (0, 30)])
        rooms = [_test_room(poly.vertices) for poly in five_test_rooms()] + [
            readme_l_room, u_room,
            dataclasses.replace(u_room, boundary=comb_room_poly(), grid_size=0.4),
            dataclasses.replace(u_room, boundary=hall, grid_size=1.0)]
        room = rooms[room_index]
        grid = build_grid(room)
        rng = np.random.default_rng(100 + room_index)
        xmin, ymin, xmax, ymax = room.boundary.bounds
        cand = rng.uniform([xmin, ymin], [xmax, ymax], size=(2000, 2))
        xy = cand[boundary_distances(cand, room.boundary) > 0.01][:60]
        assert len(xy) == 60
        pl = Placement(xy=xy, types=np.zeros(len(xy), int), z=room.z_l)
        masks = placement_masks(pl, grid, room)
        assert np.array_equal(masks, _oracle_masks(xy, grid, room))
        # and where rounding, walls and the raster's undecided cells could matter
        xy = _probe_reflectors(room, grid, rng)
        pl = Placement(xy=xy, types=np.zeros(len(xy), int), z=room.z_l)
        masks = placement_masks(pl, grid, room, strict=False)
        expected = _oracle_masks(xy, grid, room)
        assert np.array_equal(masks, expected)
        assert expected.any(axis=1).mean() > 0.5 and not expected.any(axis=1).all()

    @pytest.mark.parametrize("room_name", ["readme_L", "U", "comb"])
    def test_strictly_inside_verdict_at_the_tolerance(self, room_name, readme_l_room, u_room):
        room = {"readme_L": readme_l_room, "U": u_room,
                "comb": dataclasses.replace(u_room, boundary=comb_room_poly())}[room_name]
        poly = room.boundary
        v = poly.vertices
        e = np.roll(v, -1, axis=0) - v
        normal = np.column_stack([-e[:, 1], e[:, 0]]) / np.linalg.norm(e, axis=1)[:, None]
        t = np.linspace(0.05, 0.95, 7)
        on_walls = v[:, None, :] + t[None, :, None] * e[:, None, :]
        # inward, just short of and just past the reach of the on-edge test
        offsets = _EDGE_TOL * np.array([1.0 - 1e-3, 1.0 + 1e-3])
        pts = (on_walls[:, :, None, :]
               + offsets[:, None] * normal[:, None, None, :]).reshape(-1, 2)
        strictly = boundary_distances(pts, poly) > _EDGE_TOL
        assert strictly.any() and not strictly.all()
        coarse = dataclasses.replace(room, grid_size=1.0)
        grid = build_grid(coarse)
        clear = sight_lines_clear(pts[:, 0:1], pts[:, 1:2], grid.xy[:, 0], grid.xy[:, 1], coarse)
        masks = visibility_masks(pts, coarse.z_r + 500.0, grid, coarse, strict=False)
        assert np.array_equal(masks, strictly[:, None] & clear)
        assert np.array_equal(masks.any(axis=1), strictly)

    def test_cells_with_a_verdict_need_no_boundary_distance(self, oracle_room, monkeypatch):
        room = oracle_room
        poly = room.boundary
        cols, rows = _raster_lines(poly)
        r, c = np.nonzero(poly._inside_cells >= 0)  # raster index plus one
        frac = np.random.default_rng(9).uniform(0.01, 0.99, (len(r), 2))
        xy = np.column_stack([cols[c - 1] + frac[:, 0] * (cols[1] - cols[0]),
                              rows[r - 1] + frac[:, 1] * (rows[1] - rows[0])])
        expected = visibility_masks(xy, room.z_l, room.grid, room, strict=False)
        assert expected.any()

        def no_boundary_distances(points, poly):
            raise AssertionError("boundary_distances asked for a reflector in a decided cell")

        monkeypatch.setattr(geom, "boundary_distances", no_boundary_distances)
        assert np.array_equal(visibility_masks(xy, room.z_l, room.grid, room, strict=False),
                              expected)

    # No shrink phase, as in TestContainsPoints.
    @settings(max_examples=100, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(0.5, 5.0)),
                    min_size=4, max_size=12),
           st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(0.2, 0.5),
           st.integers(0, 2**32 - 1))
    def test_random_star_polygons_match_oracle(self, spokes, cx, cy, size, seed):
        n = len(spokes)
        verts = [(cx + r * math.cos(2 * math.pi * (i + f) / n),
                  cy + r * math.sin(2 * math.pi * (i + f) / n))
                 for i, (f, r) in enumerate(spokes)]
        try:
            room = RoomModel(boundary=Polygon(verts), grid_size=size)
            grid = build_grid(room)
        except ValueError:
            assume(False)
        rng = np.random.default_rng(seed)
        xmin, ymin, xmax, ymax = room.boundary.bounds
        v = room.boundary.vertices
        xy = np.concatenate([rng.uniform([xmin, ymin], [xmax, ymax], (12, 2)),
                             grid.xy[rng.integers(0, len(grid), 4)],
                             v + rng.uniform(-1e-6, 1e-6, v.shape)])
        masks = visibility_masks(xy, room.z_l, grid, room, strict=False)
        assert np.array_equal(masks, _oracle_masks(xy, grid, room))

    def test_u_room_grazing_ray_is_visible(self):
        # The segment q -> (7.9, 3.5) passes 6e-5 m beside the reflex vertex
        # (7, 3) without crossing a wall, so the element is visible. A
        # ray-cast visibility polygon, whose auxiliary rays sit 1e-4 rad off
        # each vertex ray, called it hidden.
        room = _test_room([(0, 0), (10, 0), (10, 8), (7, 8), (7, 3), (3, 3), (3, 8), (0, 8)],
                          grid_size=0.2, z_l=5.0)
        grid = build_grid(room)
        q = np.array([5.53888661, 2.18809138])
        cell = grid.element_at((7.9, 3.5))
        assert segment_visible(q, grid.xy[cell:cell + 1], room.boundary)[0]
        assert visibility_mask([*q, room.z_l], grid, room)[cell]
        assert np.array_equal(visibility_masks(q[None], room.z_l, grid, room),
                              _oracle_masks(q[None], grid, room))

    def test_rows_off_the_interior(self, readme_l_room):
        room = readme_l_room
        grid = build_grid(room)
        inside = [(2.0, 2.0), (7.5, 6.0)]
        off = [(0.0, 2.0), (5.0, 6.0), (-1.0, 2.0), (2.0, 6.0)]  # two walls, two outside
        xy = np.array(inside + off)
        with pytest.raises(ValueError, match="strictly inside"):
            visibility_masks(xy, room.z_l, grid, room, strict=True)
        masks = visibility_masks(xy, room.z_l, grid, room, strict=False)
        assert masks.shape == (len(xy), len(grid))
        assert not masks[len(inside):].any()
        for row, q in zip(masks, inside):
            assert np.array_equal(row, visibility_mask([*q, room.z_l], grid, room))
            assert row.any()

    def test_empty_batch(self, small_room, small_grid):
        masks = visibility_masks(np.empty((0, 2)), small_room.z_l, small_grid, small_room)
        assert masks.shape == (0, len(small_grid))

    def test_non_finite_reflectors_get_no_mask(self, readme_l_room):
        room = readme_l_room
        inside = (2.0, 2.0)
        for bad in [(np.inf, 2.0), (2.0, -np.inf), (np.nan, 2.0), (np.inf, np.nan)]:
            xy = np.array([inside, bad])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="strictly inside"):
                    visibility_masks(xy, room.z_l, room.grid, room, strict=True)
                masks = visibility_masks(xy, room.z_l, room.grid, room, strict=False)
            assert not masks[1].any()
            assert np.array_equal(masks[0], visibility_mask([*inside, room.z_l], room.grid, room))


class TestSeparatedElements:
    @staticmethod
    def _rooms(readme_l_room):
        # The five test rooms, the README L room, and the U room (10 x 8 m
        # with a 4 x 5 m notch).
        u_room = _test_room([(0, 0), (10, 0), (10, 8), (7, 8), (7, 3), (3, 3), (3, 8), (0, 8)],
                            grid_size=0.2, z_l=5.0)
        return [_test_room(poly.vertices) for poly in five_test_rooms()] + [readme_l_room, u_room]

    @pytest.mark.parametrize("room_index", range(7))
    def test_no_reflector_sees_two(self, room_index, readme_l_room):
        room = self._rooms(readme_l_room)[room_index]
        grid = build_grid(room)
        s = room.separated_elements
        assert len(s) >= 1 and len(set(s.tolist())) == len(s)
        pts = grid.xy[s]
        dist = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
        assert np.all(dist[~np.eye(len(s), dtype=bool)] > 2.0 * room.cone_radius)
        rng = np.random.default_rng(300 + room_index)
        xmin, ymin, xmax, ymax = room.boundary.bounds
        cand = rng.uniform([xmin, ymin], [xmax, ymax], size=(5000, 2))
        xy = cand[boundary_distances(cand, room.boundary) > 0.01][:200]
        assert len(xy) == 200
        # The midpoints of the pairs are where one reflector comes closest
        # to seeing two of them.
        i, j = np.triu_indices(len(s), k=1)
        mids = 0.5 * (pts[i] + pts[j])
        xy = np.vstack([xy, mids[boundary_distances(mids, room.boundary) > 0.01]])
        pl = Placement(xy=xy, types=np.zeros(len(xy), int), z=room.z_l)
        assert np.all(placement_masks(pl, grid, room)[:, s].sum(axis=1) <= 1)

    def test_readme_l_room_floor_is_12(self, readme_l_room):
        room = dataclasses.replace(readme_l_room)  # a fresh room: nothing cached yet
        assert len(room.grid) == 1500
        assert "separated_elements" not in vars(room)  # lazy: the grid does not compute it
        s = room.separated_elements
        assert 4 * len(s) == 12
        assert room.separated_elements is s

    def test_room_inside_one_cone_has_floor_k_min(self, small_room):
        # 4 x 4 m room, cone radius ~6.9 m: one reflector can see every element.
        assert len(small_room.separated_elements) == 1


class TestProjectIntoMargin:
    def _room(self):
        return RoomModel(
            boundary=Polygon([(0, 0), (4, 0), (4, 4), (0, 4)]),
            grid_size=0.5,
            wall_margin=0.5,
        )

    def test_feasible_unchanged(self):
        room = self._room()
        p = project_into_margin((2.0, 2.0), room)
        assert np.allclose(p, (2.0, 2.0))

    def test_axis_aligned_projection(self):
        room = self._room()
        p = project_into_margin((0.1, 2.0), room)
        assert np.allclose(p, (0.5, 2.0), atol=1e-6)

    def test_corner_projection(self):
        room = self._room()
        p = project_into_margin((0.1, 0.1), room)
        assert np.allclose(p, (0.5, 0.5), atol=1e-6)

    def test_outside_point(self):
        room = self._room()
        p = project_into_margin((-1.0, 2.0), room)
        assert np.allclose(p, (0.5, 2.0), atol=1e-6)

    def test_idempotent_and_margin_bound(self, l_room_poly):
        room = RoomModel(boundary=l_room_poly, grid_size=0.5, wall_margin=0.5)
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform([-1, -1], [11, 9])
            q = project_into_margin(p, room)
            assert in_margin(q, room)[0]
            q2 = project_into_margin(q, room)
            assert np.array_equal(q2, q)

    @pytest.mark.parametrize("p", [(-0.0017, -0.8566), (10.8512, -0.002), (3.8876, 8.0022)])
    def test_lands_where_the_constraint_check_accepts(self, readme_l_room, p):
        # These points once came back up to 8.8e-7 m short of the margin,
        # inside the old stop window but failing the constraint check, and a
        # second projection left them there.
        q = project_into_margin(p, readme_l_room)
        assert _inline_margin_ok(q[None], readme_l_room)[0]
        assert np.array_equal(project_into_margin(q, readme_l_room), q)

    def test_spike_room_point_lands_in_margin(self):
        # 0.14 m inside the 49 degree corner at (8, 4): a gradient ascent of
        # the wall distance stalled on the ridge between the two walls here
        room = _test_room(five_test_rooms()[3].vertices)
        q = project_into_margin((7.787, 3.733), room)
        assert in_margin(q, room)[0]

    @pytest.mark.parametrize("room_index", range(8), ids=[
        "convex", "l_shape", "u_shape", "rand1", "rand2", "readme_L", "U", "comb"])
    def test_nearest_point_of_the_margin_region(self, room_index, readme_l_room, u_room):
        room = ([_test_room(poly.vertices) for poly in five_test_rooms()]
                + [readme_l_room, u_room, _test_room(comb_room_poly().vertices)])[room_index]
        xmin, ymin, xmax, ymax = room.boundary.bounds
        v = room.boundary.vertices
        pts = np.concatenate([
            np.random.default_rng(40 + room_index).uniform([xmin - 1, ymin - 1],
                                                           [xmax + 1, ymax + 1], (200, 2)),
            v, 0.5 * (v + np.roll(v, -1, axis=0)), room.margin_corners])
        _check_projection(room, pts, _margin_lattice(room, 0.02))

    # No shrink phase, as in TestContainsPoints.
    @settings(max_examples=50, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.lists(st.tuples(st.floats(0.0, 0.999), st.floats(0.5, 5.0)),
                    min_size=3, max_size=12),
           st.floats(-100.0, 100.0), st.floats(-100.0, 100.0), st.floats(0.05, 1.5),
           st.integers(0, 2**32 - 1))
    def test_random_star_polygons(self, spokes, cx, cy, margin, seed):
        n = len(spokes)
        verts = [(cx + r * math.cos(2 * math.pi * (i + f) / n),
                  cy + r * math.sin(2 * math.pi * (i + f) / n))
                 for i, (f, r) in enumerate(spokes)]
        try:
            room = RoomModel(boundary=Polygon(verts), wall_margin=margin)
        except ValueError:
            assume(False)
        xmin, ymin, xmax, ymax = room.boundary.bounds
        pts = np.random.default_rng(seed).uniform([xmin - 1, ymin - 1], [xmax + 1, ymax + 1],
                                                  (20, 2))
        lattice = _margin_lattice(room, 0.05)
        if len(room.margin_corners) == 0:  # the region is empty
            assert len(lattice) == 0
            with pytest.raises(ValueError, match="leaves no room point"):
                project_into_margin(pts, room)
        else:
            _check_projection(room, np.concatenate([pts, room.boundary.vertices]), lattice)

    def test_margin_corners_of_a_square(self, unit_square):
        room = RoomModel(boundary=unit_square, grid_size=0.25, wall_margin=0.25)
        assert "margin_corners" not in vars(room)  # computed on first use
        corners = room.margin_corners
        t = 0.25 + 0.5 * geom._PROJECT_TOL
        assert np.allclose(sorted(corners.tolist()),
                           [(t, t), (t, 1 - t), (1 - t, t), (1 - t, 1 - t)], rtol=0.0, atol=1e-12)
        assert room.margin_corners is corners
        assert len(dataclasses.replace(room, wall_margin=0.5).margin_corners) == 0

    def test_margin_violations_match_the_inline_rule(self, small_room, small_grid):
        # Points from 2e-6 m short of the margin to 1e-6 m past it, along a
        # wall, into a corner and outside; the constraint check used to
        # compute this verdict inline.
        short = [0.0, 1e-10, 5e-10, 1e-9, 1.5e-9, 1e-8, 1e-7, 5e-7, 1e-6, 2e-6, -1e-6]
        xy = ([(0.5 - s, 2.0) for s in short] + [(2.0, 3.5 + s) for s in short]
              + [(0.5 - s, 0.5 - s) for s in short] + [(-0.1, 2.0), (2.0, 2.0), (4.0, 2.0)])
        pl = Placement(xy=xy, types=np.zeros(len(xy), int), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room, strict=False)
        report = check_constraints(pl, small_room, small_grid, masks, m_max=len(xy),
                                   k_min=4, d_min=0.0)
        expected = np.flatnonzero(~_inline_margin_ok(pl.xy, small_room))
        assert np.array_equal(report.margin_violations, expected)
        assert np.array_equal(in_margin(pl.xy, small_room), _inline_margin_ok(pl.xy, small_room))
        assert 0 < len(expected) < len(xy)


def _inline_margin_ok(xy, room):
    """The wall-margin verdict as check_constraints wrote it inline."""
    inside = room.boundary.contains_points(xy)
    return ~(~inside | (room.boundary.edge_distances(xy) < room.wall_margin - 1e-9))


def _margin_lattice(room, step):
    """The points of a step-spaced lattice over the room's bounds that in_margin accepts."""
    xmin, ymin, xmax, ymax = room.boundary.bounds
    xs, ys = np.meshgrid(np.arange(xmin, xmax, step), np.arange(ymin, ymax, step))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    chunks = np.array_split(pts, len(pts) // 10_000 + 1)
    return np.concatenate([c[in_margin(c, room)] for c in chunks])


def _check_projection(room, pts, lattice):
    """project_into_margin against the margin rule and the nearest lattice point of the region.

    The projection offsets the walls by _PROJECT_TOL / 2 past the margin, and
    in_margin accepts points _EDGE_TOL short of it, so a lattice point may lie
    up to about (_PROJECT_TOL / 2) * sqrt(2) nearer than the exact nearest
    point: 1e-6 m covers that.
    """
    batch = project_into_margin(pts, room)
    assert batch.shape == pts.shape
    assert np.array_equal(batch, np.array([project_into_margin(p, room) for p in pts]))
    assert in_margin(batch, room).all()
    assert np.array_equal(project_into_margin(batch, room), batch)
    inside = in_margin(pts, room)
    assert np.array_equal(batch[inside], pts[inside])
    nearest = np.array([np.sqrt(np.min((lattice[:, 0] - x) ** 2 + (lattice[:, 1] - y) ** 2,
                                       initial=np.inf)) for x, y in pts])
    assert np.all(np.hypot(*(batch - pts).T) <= nearest + 1e-6)


class TestVisibilityMonteCarloSuite:
    def test_random_rooms_and_points(self):
        # 20 random interior points across 5 rooms vs the sampling oracle.
        rooms = five_test_rooms()
        rng = np.random.default_rng(123)
        checks = 0
        for poly in rooms:
            xmin, ymin, xmax, ymax = poly.bounds
            pts = []
            while len(pts) < 4:
                cand = rng.uniform([xmin, ymin], [xmax, ymax])
                if boundary_distance(cand, poly) > 0.05:
                    pts.append(cand)
            for q in pts:
                vp = visibility_polygon(q, poly)
                mc = mc_visibility_area(q, poly, n_samples=30_000,
                                        seed=int(rng.integers(1 << 31)))
                assert vp.area == pytest.approx(mc, rel=0.02)
                checks += 1
        assert checks == 20
