import math

import numpy as np
import pytest

from reflectopt.geom import (
    Grid,
    Polygon,
    RoomModel,
    boundary_distance,
    boundary_distances,
    build_grid,
    cone_mask,
    in_margin,
    point_in_polygon,
    project_into_margin,
    visibility_mask,
    visibility_masks,
    visibility_polygon,
)
from reflectopt.placement import Placement, check_constraints, placement_masks
from conftest import mc_visibility_area, segment_visible


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
        assert point_in_polygon((0.5, 0.5), unit_square)

    def test_exterior(self, unit_square):
        assert not point_in_polygon((1.5, 0.5), unit_square)

    def test_boundary_counts_as_inside(self, unit_square):
        assert point_in_polygon((1.0, 0.5), unit_square)
        assert point_in_polygon((0.0, 0.0), unit_square)

    def test_concave(self, l_room_poly):
        assert point_in_polygon((2, 2), l_room_poly)
        assert not point_in_polygon((2, 6), l_room_poly)  # removed block
        assert point_in_polygon((7, 6), l_room_poly)


class TestBoundaryDistance:
    def test_center_of_square(self, unit_square):
        assert boundary_distance((0.5, 0.5), unit_square) == pytest.approx(0.5)

    def test_exterior_negative(self, unit_square):
        assert boundary_distance((-0.25, 0.5), unit_square) == pytest.approx(-0.25)

    def test_near_edge(self, unit_square):
        assert boundary_distance((0.1, 0.5), unit_square) == pytest.approx(0.1)


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
        # Independent oracle: run point_in_polygon over the full lattice.
        room = RoomModel(boundary=l_room_poly, grid_size=0.1)
        grid = build_grid(room)
        count = 0
        for ix in range(100):
            for iy in range(80):
                p = (0.05 + 0.1 * ix, 0.05 + 0.1 * iy)
                count += point_in_polygon(p, l_room_poly)
        assert len(grid) == count == 6000

    def test_empty_grid_is_error(self, unit_square):
        room = RoomModel(boundary=unit_square, grid_size=5.0)
        # one 5 m cell over a 1 m room: center (2.5, 2.5) is outside
        with pytest.raises(ValueError):
            build_grid(room)

    def test_raster_round_trip(self, small_grid):
        vals = np.arange(len(small_grid))
        raster = small_grid.rasterize(vals, fill=-1)
        back = raster[small_grid.ij[:, 1], small_grid.ij[:, 0]]
        assert np.array_equal(back, vals)


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
        mask = cone_mask(q, grid, room)
        d = np.hypot(grid.xy[:, 0] - 5.0, grid.xy[:, 1] - 4.0)
        assert np.array_equal(mask, d <= 2.0)
        assert mask[grid.nearest_element([(5.0 + 1.9, 4.0)])[0]]
        assert not mask[grid.nearest_element([(5.0 + 2.12, 4.0)])[0]]

    def test_30_degree_cone(self):
        rect = Polygon([(0, 0), (10, 0), (10, 8), (0, 8)])
        room = RoomModel(boundary=rect, grid_size=0.1, z_r=0.5, z_l=2.5,
                         cone_half_angle=np.deg2rad(30.0))
        grid = build_grid(room)
        mask = cone_mask(np.array([5.0, 4.0, 2.5]), grid, room)
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


class TestOccluderEdges:
    def test_l_room_has_the_two_reflex_walls(self, l_room_poly):
        a, b = l_room_poly.occluder_edges
        got = {(tuple(p), tuple(q)) for p, q in zip(a.tolist(), b.tolist())}
        assert got == {((5.0, 8.0), (5.0, 4.0)), ((5.0, 4.0), (0.0, 4.0))}

    def test_convex_rooms_have_none(self, unit_square):
        rect = Polygon([(0, 0), (10, 0), (10, 8), (0, 8)])
        assert len(rect.occluder_edges[0]) == len(unit_square.occluder_edges[0]) == 0
        assert len(_five_test_rooms()[0].occluder_edges[0]) == 0

    def test_u_room_has_its_three_inner_walls_and_no_hull_edge(self):
        u = _five_test_rooms()[2]
        a, b = u.occluder_edges
        got = {(tuple(p), tuple(q)) for p, q in zip(a.tolist(), b.tolist())}
        assert got == {((6.0, 6.0), (6.0, 2.0)), ((6.0, 2.0), (3.0, 2.0)),
                       ((3.0, 2.0), (3.0, 6.0))}


def _test_room(vertices, grid_size=0.25, z_l=4.0):
    """Room with a 45 degree cone: radius 3.5 m at the default z_l."""
    return RoomModel(boundary=Polygon(vertices), grid_size=grid_size, z_r=0.5, z_l=z_l,
                     cone_half_angle=np.deg2rad(45.0), wall_margin=0.5)


def _oracle_masks(xy, grid, room):
    """Cone AND brute-force segment test, one row per reflector."""
    rows = []
    for q in xy:
        cone = np.hypot(grid.xy[:, 0] - q[0], grid.xy[:, 1] - q[1]) <= room.cone_radius
        rows.append(cone & segment_visible(q, grid.xy, room.boundary))
    return np.array(rows)


class TestVisibilityMasks:
    @pytest.mark.parametrize("room_index", range(6))
    def test_placement_masks_equal_oracle(self, room_index, readme_l_room):
        # The five test rooms, then the README L room (0.2 m grid, 4.5 m cone).
        rooms = [_test_room(poly.vertices) for poly in _five_test_rooms()] + [readme_l_room]
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


class TestSeparatedElements:
    @staticmethod
    def _rooms(readme_l_room):
        # The five test rooms, the README L room, and the U room (10 x 8 m
        # with a 4 x 5 m notch).
        u_room = _test_room([(0, 0), (10, 0), (10, 8), (7, 8), (7, 3), (3, 3), (3, 8), (0, 8)],
                            grid_size=0.2, z_l=5.0)
        return [_test_room(poly.vertices) for poly in _five_test_rooms()] + [readme_l_room, u_room]

    @pytest.mark.parametrize("room_index", range(7))
    def test_no_reflector_sees_two(self, room_index, readme_l_room):
        room = self._rooms(readme_l_room)[room_index]
        grid = build_grid(room)
        s = grid.separated_elements(room.cone_radius)
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
        grid = build_grid(readme_l_room)
        assert grid._separated == {}  # lazy: build_grid does not compute it
        s = grid.separated_elements(readme_l_room.cone_radius)
        assert 4 * len(s) == 12
        assert grid.separated_elements(readme_l_room.cone_radius) is s

    def test_room_inside_one_cone_has_floor_k_min(self, small_room, small_grid):
        # 4 x 4 m room, cone radius ~6.9 m: one reflector can see every element.
        assert len(small_grid.separated_elements(small_room.cone_radius)) == 1


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

    @pytest.mark.parametrize("room_name", ["square", "L", "U"])
    def test_batch_matches_points_and_scalar_reference(self, room_name, readme_l_room):
        room = {"square": _test_room([(0, 0), (4, 0), (4, 4), (0, 4)]),
                "L": readme_l_room,
                "U": _test_room(_U_ROOM, grid_size=0.2, z_l=5.0)}[room_name]
        xmin, ymin, xmax, ymax = room.boundary.bounds
        pts = np.random.default_rng(17).uniform([xmin - 1, ymin - 1], [xmax + 1, ymax + 1],
                                                size=(6000, 2))
        batch = project_into_margin(pts, room)
        assert batch.shape == pts.shape
        assert np.array_equal(batch, np.array([project_into_margin(p, room) for p in pts]))
        assert _inline_margin_ok(batch, room).all()
        ref = np.array([_scalar_projection(p, room) for p in pts])
        ref_ok = _inline_margin_ok(ref, room)
        assert np.array_equal(batch[ref_ok], ref[ref_ok])
        assert ref_ok.mean() > 0.999

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


_U_ROOM = [(0, 0), (10, 0), (10, 8), (7, 8), (7, 3), (3, 3), (3, 8), (0, 8)]


def _inline_margin_ok(xy, room):
    """The wall-margin verdict as check_constraints wrote it inline."""
    inside = room.boundary.contains_points(xy)
    return ~(~inside | (room.boundary.edge_distances(xy) < room.wall_margin - 1e-9))


def _scalar_projection(p, room, tol=1e-6, max_iter=50):
    """Reference: the one-point projection that the batched one replaced."""
    poly = room.boundary
    margin = room.wall_margin
    p = np.asarray(p, dtype=float).reshape(2)
    d = boundary_distance(p, poly)
    if d >= margin:
        return p.copy()
    target = margin + 0.5 * tol
    q = p.copy()
    scale = 1.0
    for _ in range(max_iter):
        d = boundary_distance(q, poly)
        if abs(d - margin) <= tol and d >= margin - tol:
            return q
        grad = _scalar_gradient(q, poly, d)
        step = (target - d) * grad * scale
        q_new = q + step
        d_new = boundary_distance(q_new, poly)
        if abs(d_new - target) <= abs(d - target):
            q = q_new
            scale = 1.0
        else:
            scale *= 0.5
            if scale < 1e-9:
                scale = 1.0
    d = boundary_distance(q, poly)
    if abs(d - margin) <= tol and d >= margin - tol:
        return q
    raise ValueError("no point satisfying the wall margin found")


def _scalar_gradient(q, poly, d):
    b = poly.nearest_boundary_points(q.reshape(1, 2))[0]
    u = q - b
    norm = np.linalg.norm(u)
    if norm < 1e-12:
        a, bb = poly._edges
        e = bb - a
        elen2 = np.maximum(np.einsum("ij,ij->i", e, e), 1e-300)
        dvec = q[None, :] - a
        t = np.clip(np.einsum("ij,ij->i", dvec, e) / elen2, 0.0, 1.0)
        proj = a + t[:, None] * e
        i = int(np.argmin(np.einsum("ij,ij->i", q[None, :] - proj, q[None, :] - proj)))
        n = np.array([-e[i, 1], e[i, 0]])
        return n / np.linalg.norm(n)
    return u / norm if d > 0 else -u / norm


class TestVisibilityMonteCarloSuite:
    def test_random_rooms_and_points(self):
        # 20 random interior points across 5 rooms vs the sampling oracle.
        rooms = _five_test_rooms()
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


def _five_test_rooms():
    convex = Polygon([(0, 0), (6, 0), (8, 3), (5, 7), (1, 5)])
    l_shape = Polygon([(0, 0), (10, 0), (10, 8), (5, 8), (5, 4), (0, 4)])
    u_shape = Polygon([(0, 0), (9, 0), (9, 6), (6, 6), (6, 2), (3, 2), (3, 6), (0, 6)])
    rand1 = Polygon([(0, 0), (5, 1), (7, 0), (8, 4), (6, 3), (4, 6), (1, 4)])
    rand2 = Polygon([(0, 0), (4, -1), (9, 1), (7, 3), (9, 6), (3, 5), (2, 7), (-1, 3)])
    return [convex, l_shape, u_shape, rand1, rand2]
