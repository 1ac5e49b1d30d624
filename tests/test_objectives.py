import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from reflectopt.geom import Grid, Polygon, RoomModel, build_grid
from reflectopt.objectives import (
    GLOBAL,
    LOCAL,
    UNIQUE,
    AmbiguityMap,
    CoverageError,
    EvalConfig,
    _COND_LIMIT,
    _gdop_from_eigvals,
    _unique_rows,
    ambiguity,
    distance_bins,
    evaluate,
    fingerprint,
    fingerprint_table,
    gdop,
    gdop_objective,
    gdop_values,
    nearest_fingerprint,
    nearest_visible,
    penalty_pair,
)
from reflectopt.placement import Placement, placement_masks, type_assignment, visible_reflectors
from reflectopt.repair import random_feasible
from conftest import comb_room_poly


def _einsum_nearest_visible(pl, masks, grid, n):
    """nearest_visible as an (N, M, 3) difference with an einsum norm, for reference."""
    diff = grid.centers[:, None, :] - pl.positions3d[None, :, :]
    d = np.where(masks.T, np.sqrt(np.einsum("nmk,nmk->nm", diff, diff)), np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, :n]
    dsel = np.take_along_axis(d, order, axis=1)
    short = n - order.shape[1]
    order = np.pad(order, ((0, 0), (0, max(short, 0))))
    return order, np.pad(dsel, ((0, 0), (0, max(short, 0))), constant_values=np.inf)


def trace_inverse_3x3(j):
    """Independent oracle: trace of the inverse via the adjugate formula."""
    j = np.asarray(j, float)
    det = np.linalg.det(j)
    cof_00 = j[1, 1] * j[2, 2] - j[1, 2] * j[2, 1]
    cof_11 = j[0, 0] * j[2, 2] - j[0, 2] * j[2, 0]
    cof_22 = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    return (cof_00 + cof_11 + cof_22) / det


class TestDistanceBins:
    def test_half_away_from_zero(self):
        assert distance_bins(np.array([0.25]), 0.1)[0] == 3  # 2.5 -> 3, not 2
        assert distance_bins(np.array([0.24]), 0.1)[0] == 2
        assert distance_bins(np.array([2.0]), 0.1)[0] == 20


class TestNearestFingerprint:
    def test_fewer_than_n_raises(self):
        with pytest.raises(CoverageError, match="only 3 reflectors visible, fingerprint needs 4"):
            nearest_fingerprint([1.0, 2.0, 3.0], [0, 1, 0], 4, 0.1)
        with pytest.raises(CoverageError, match="only 0 reflectors visible"):
            nearest_fingerprint(np.empty(0), np.empty(0, int), 1, 0.1)

    def test_tied_distances_keep_the_lower_index(self):
        # entries 1 and 2 tie at 2.0 m with different types: the earlier one is kept
        assert nearest_fingerprint([3.0, 2.0, 2.0, 1.0], [0, 1, 0, 0], 2, 0.5).entries == (
            (2, 0), (4, 1))
        assert nearest_fingerprint(np.array([3.0, 2.0, 2.0, 1.0]), np.array([0, 0, 1, 0]),
                                   2, 0.5).entries == ((2, 0), (4, 0))

    def test_n_equal_to_count_keeps_all(self):
        fp = nearest_fingerprint(np.array([2.0, 0.5, 1.25]), np.array([1, 0, 1]), 3, 0.25)
        assert fp.entries == ((2, 0), (5, 1), (8, 1))
        assert all(type(v) is int for entry in fp.entries for v in entry)


class TestFingerprint:
    def test_two_reflector_arithmetic(self, small_room, small_grid):
        # reflector straight above (d=2.0) and offset 0.6 m (d=sqrt(4.36)~2.088)
        c = small_grid.centers[small_grid.nearest_element([(1.125, 1.125)])[0]]
        pl = Placement(
            xy=[[c[0], c[1]], [c[0] + 0.6, c[1]]], types=[0, 1], z=c[2] + 2.0
        )
        masks = placement_masks(pl, small_grid, small_room)
        fp = fingerprint(c, pl, masks, small_grid, n=2, r_res=0.1)
        assert fp.entries == ((20, 0), (21, 1))

    def test_mirror_symmetry(self, small_room, small_grid):
        c = small_grid.centers[small_grid.nearest_element([(1.125, 1.125)])[0]]
        pl = Placement(xy=[[c[0], c[1]], [c[0] + 0.6, c[1]]], types=[0, 1], z=c[2] + 2.0)
        mirrored = Placement(xy=[[c[0] + 0.6, c[1]], [c[0], c[1]]], types=[1, 0], z=c[2] + 2.0)
        masks = placement_masks(pl, small_grid, small_room)
        masks_m = placement_masks(mirrored, small_grid, small_room)
        fp = fingerprint(c, pl, masks, small_grid, n=2, r_res=0.1)
        fp_m = fingerprint(c, mirrored, masks_m, small_grid, n=2, r_res=0.1)
        assert fp == fp_m

    def test_nearest_n_excludes_farthest(self, small_room, small_grid):
        rng = np.random.default_rng(4)
        c = small_grid.centers[small_grid.nearest_element([(2.125, 2.125)])[0]]
        xy = rng.uniform(0.7, 3.3, size=(5, 2))
        pl = Placement(xy=xy, types=type_assignment(5, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        fp = fingerprint(c, pl, masks, small_grid, n=4, r_res=small_room.r_res)
        # brute-force oracle: farthest of the 5 must not contribute its bin/type
        vis = visible_reflectors(c, pl, masks, small_grid)
        assert len(vis) == 5
        drop = vis[-1]
        expect = sorted(
            (int(distance_bins(np.array([d]), small_room.r_res)[0]), r.type)
            for r, d in vis[:4]
        )
        assert list(fp.entries) == expect
        assert drop[1] >= max(d for _, d in vis[:4])

    def test_coverage_error(self, small_room, small_grid):
        c = small_grid.centers[0]
        pl = Placement(xy=[[2.0, 2.0]], types=[0], z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        with pytest.raises(CoverageError):
            fingerprint(c, pl, masks, small_grid, n=2, r_res=0.1)

    def test_table_rejects_placement_smaller_than_fingerprint(self, small_room, small_grid):
        # every element sees all 3 reflectors, one short of the fingerprint size
        pl = Placement(xy=[[1.0, 1.0], [3.0, 1.0], [2.0, 3.0]], types=[0, 1, 0],
                       z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        order, dist = nearest_visible(pl, masks, small_grid, 4)
        assert order.shape == dist.shape == (len(small_grid), 4)
        assert np.all(np.isinf(dist[:, 3])) and np.all(np.isfinite(dist[:, :3]))
        with pytest.raises(CoverageError):
            fingerprint(small_grid.centers[0], pl, masks, small_grid, n=4, r_res=0.1)
        with pytest.raises(CoverageError):
            fingerprint_table(pl, masks, small_grid, n=4, r_res=0.1)

    def test_table_matches_per_element_op(self, small_room, small_grid):
        rng = np.random.default_rng(9)
        xy = rng.uniform(0.8, 3.2, size=(6, 2))
        pl = Placement(xy=xy, types=type_assignment(6, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        table = fingerprint_table(pl, masks, small_grid, n=4, r_res=small_room.r_res)
        for idx in range(0, len(small_grid), 13):
            fp = fingerprint(
                small_grid.centers[idx], pl, masks, small_grid, n=4, r_res=small_room.r_res
            )
            codes = sorted(2 * b + t for b, t in fp.entries)
            assert codes == table[idx].tolist()

    def test_nearest_visible_matches_scalar_oracle(self, readme_l_room):
        grid = build_grid(readme_l_room)
        rng = np.random.default_rng(21)
        xy = rng.uniform([0.6, 0.6], [9.4, 3.4], size=(7, 2))
        e = int(grid.nearest_element(np.array([[3.0, 2.0]]))[0])
        c = grid.xy[e]
        xy = np.vstack([xy, c + [0.3, 0.0], c - [0.3, 0.0]])  # equidistant from element e
        pl = Placement(xy=xy, types=type_assignment(9, 2), z=readme_l_room.z_l)
        masks = placement_masks(pl, grid, readme_l_room)
        order, dist = nearest_visible(pl, masks, grid, 4)
        assert order.shape == dist.shape == (len(grid), 4)
        assert np.isinf(dist).any(axis=1).any()  # some elements see fewer than 4
        for idx in range(len(grid)):
            vis = visible_reflectors(grid.centers[idx], pl, masks, grid)[:4]
            k = len(vis)
            assert order[idx, :k].tolist() == [r.index for r, _ in vis]
            assert np.allclose(dist[idx, :k], [d for _, d in vis], rtol=1e-12, atol=0.0)
            assert np.all(np.isinf(dist[idx, k:]))
        assert order[e, :2].tolist() == [7, 8]  # equal distances: lower index first

    @pytest.mark.parametrize("room_name", ["L", "U", "comb"])
    def test_nearest_visible_matches_einsum_reference(self, room_name, readme_l_room, u_room):
        room = {"L": readme_l_room, "U": u_room,
                "comb": dataclasses.replace(u_room, boundary=comb_room_poly(),
                                            grid_size=0.4)}[room_name]
        grid = room.grid
        rng = np.random.default_rng({"L": 31, "U": 32, "comb": 33}[room_name])
        lo, hi = np.reshape(room.boundary.bounds, (2, 2))
        short = tied = 0
        for t in range(70):
            m = int(rng.integers(1, 4)) if t % 7 == 0 else int(rng.integers(4, 30))
            if t % 3 == 0:  # grid centres and the lattice corners between them
                xy = (grid.xy[rng.integers(0, len(grid), m)]
                      + rng.choice([-0.5, 0.0, 0.5], (m, 2)) * grid.size)
            elif t % 3 == 1:  # equidistant pairs either side of grid centres
                c = grid.xy[rng.integers(0, len(grid), (m + 1) // 2)]
                step = rng.choice([0.1, 0.3, 0.5], (len(c), 1)) * [[1.0, 0.0]]
                xy = np.concatenate([c + step, c - step])[:m]
            else:
                xy = rng.uniform(lo, hi, (m, 2))
            pl = Placement(xy=xy, types=type_assignment(m, 2), z=room.z_l)
            masks = placement_masks(pl, grid, room, strict=False)
            for n in (3, 4):
                order, dist = nearest_visible(pl, masks, grid, n)
                ref_order, ref_dist = _einsum_nearest_visible(pl, masks, grid, n)
                assert np.array_equal(order, ref_order) and np.array_equal(dist, ref_dist)
            short += int(np.isinf(dist).any())
            tied += int(((dist[:, 1:] == dist[:, :-1]) & np.isfinite(dist[:, 1:])).any())
        assert short > 10 and tied > 10  # elements seeing fewer than n; equal distances

    def test_permutation_invariance(self, small_room, small_grid):
        rng = np.random.default_rng(14)
        xy = rng.uniform(0.8, 3.2, size=(7, 2))
        types = type_assignment(7, 2)
        pl = Placement(xy=xy, types=types, z=small_room.z_l)
        perm = rng.permutation(7)
        pl2 = Placement(xy=xy[perm], types=types[perm], z=small_room.z_l)
        t1 = fingerprint_table(pl, placement_masks(pl, small_grid, small_room),
                               small_grid, 4, small_room.r_res)
        t2 = fingerprint_table(pl2, placement_masks(pl2, small_grid, small_room),
                               small_grid, 4, small_room.r_res)
        assert np.array_equal(t1, t2)


class TestAmbiguity:
    def test_mirror_symmetric_placement_all_ambiguous(self, small_room, small_grid):
        # placement symmetric about x = 2 in the symmetric 4x4 room
        xy = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0], [3.0, 3.0],
                       [2.0, 1.4], [2.0, 2.6]])
        pl = Placement(xy=xy, types=np.zeros(6, int), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        f1, amb_map = ambiguity(pl, small_grid, masks, n=4,
                                r_res=small_room.r_res)
        assert f1 == len(small_grid)
        assert amb_map.n_unique == 0

    def test_counts_sum_to_grid(self, small_room, small_grid):
        rng = np.random.default_rng(21)
        xy = rng.uniform(0.8, 3.2, size=(8, 2))
        pl = Placement(xy=xy, types=type_assignment(8, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        f1, amb_map = ambiguity(pl, small_grid, masks, n=4,
                                r_res=small_room.r_res)
        total = amb_map.n_unique + amb_map.n_local + amb_map.n_global
        assert total == len(small_grid)
        assert f1 == amb_map.n_local + amb_map.n_global

    def test_matches_pairwise_oracle(self, small_room, small_grid):
        rng = np.random.default_rng(33)
        xy = rng.uniform(0.8, 3.2, size=(8, 2))
        pl = Placement(xy=xy, types=type_assignment(8, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        f1, _ = ambiguity(pl, small_grid, masks, n=4, r_res=small_room.r_res)
        # O(n^2) oracle over per-element fingerprints
        fps = [
            fingerprint(small_grid.centers[i], pl, masks, small_grid, 4, small_room.r_res)
            for i in range(len(small_grid))
        ]
        amb = [
            any(i != j and fps[i] == fps[j] for j in range(len(fps)))
            for i in range(len(fps))
        ]
        assert f1 == sum(amb)

    def test_local_vs_global_classification(self, oracle_room):
        room = oracle_room
        grid = build_grid(room)
        # 8 reflectors cover the 4 x 4 room, 20 the 10 x 8 m L and U rooms
        m = 8 if room.boundary.area < 20 else 20
        pl = random_feasible(room, m, 2, np.random.default_rng(40))
        masks = placement_masks(pl, grid, room)
        _, amb_map = ambiguity(pl, grid, masks, n=4, r_res=room.r_res)
        assert {LOCAL, GLOBAL} <= set(amb_map.classes.tolist())
        # flood-fill oracle per group
        groups = {}
        for i, gid in enumerate(amb_map.group_ids):
            groups.setdefault(int(gid), []).append(i)
        cells = np.argwhere(grid.cell_index >= 0)  # (row, col) of each element
        ij = {(c, r): i for i, (r, c) in enumerate(cells.tolist())}
        for gid, members in groups.items():
            if len(members) == 1:
                assert amb_map.classes[members[0]] == UNIQUE
                continue
            member_set = set(members)
            seen = set()
            regions = 0
            for start in members:
                if start in seen:
                    continue
                regions += 1
                stack = [start]
                seen.add(start)
                while stack:
                    cur = stack.pop()
                    cy, cx = cells[cur]
                    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        nb = ij.get((cx + dx, cy + dy))
                        if nb is not None and nb in member_set and nb not in seen:
                            seen.add(nb)
                            stack.append(nb)
            expect = GLOBAL if regions > 1 else LOCAL
            for m in members:
                assert amb_map.classes[m] == expect


def raster_grid(raster: np.ndarray) -> tuple[Grid, np.ndarray]:
    """Unit-cell grid over the cells of ``raster`` that are >= 0, plus their values."""
    rows, cols = np.nonzero(raster >= 0)
    cell_index = np.full(raster.shape, -1, dtype=np.int64)
    cell_index[rows, cols] = np.arange(len(rows))
    centers = np.column_stack([cols + 0.5, rows + 0.5, np.zeros(len(rows))])
    grid = Grid(centers=centers, cell_index=cell_index, size=1.0, x0=0.0, y0=0.0)
    return grid, raster[rows, cols]


def csgraph_components(raster: np.ndarray) -> np.ndarray:
    """Oracle labels: csgraph components over the same-value 4-neighbour edges."""
    grid, _ = raster_grid(raster)
    idx = grid.cell_index
    edges = [(idx[r, c], idx[r + dr, c + dc])
             for r, c in zip(*np.nonzero(raster >= 0)) for dr, dc in ((0, 1), (1, 0))
             if r + dr < raster.shape[0] and c + dc < raster.shape[1]
             and raster[r + dr, c + dc] == raster[r, c]]
    row, col = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    n = len(grid)
    adj = coo_matrix((np.ones(len(row), dtype=np.int8), (row, col)), shape=(n, n))
    return connected_components(adj, directed=False)[1]


def snake(height: int, width: int) -> np.ndarray:
    """One winding corridor (value 1) between walls (value 0) open at alternate ends."""
    raster = np.ones((height, width), dtype=np.int64)
    for r in range(1, height, 2):
        raster[r] = 0
        raster[r, width - 1 if r % 4 == 1 else 0] = 1
    return raster


class TestSameValueComponents:
    def assert_matches_csgraph(self, raster):
        grid, values = raster_grid(raster)
        got = grid.components(values + 1)
        want = csgraph_components(raster)
        # the same partition: the (got, want) label pairs pair off one to one
        pairs = np.unique(np.column_stack([got, want]), axis=0)
        assert len(pairs) == len(np.unique(got)) == len(np.unique(want))
        # each label is the lowest element index of its component
        for label in np.unique(got):
            assert label == np.flatnonzero(got == label).min()
        return got

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                  elements=st.integers(-1, 2)))
    def test_random_rasters_with_holes_match_csgraph(self, raster):
        # -1 marks a lattice cell without a grid element
        if (raster >= 0).any():
            self.assert_matches_csgraph(raster)

    @pytest.mark.parametrize("raster", [snake(21, 17), snake(21, 17).T,
                                        np.where(snake(21, 17) == 1, 1, -1)],
                             ids=["rows", "columns", "hole_walls"])
    def test_snake_is_one_corridor(self, raster):
        # one corridor of about 200 elements: its lowest index has to reach
        # the far end through parent pointers
        got = self.assert_matches_csgraph(raster)
        corridor = got[raster_grid(raster)[1] == 1]
        assert len(np.unique(corridor)) == 1


    def test_zero_values_are_in_no_component(self):
        # a zero splits the ones into two components and gets root -1
        grid, _ = raster_grid(np.zeros((3, 5), dtype=np.int64))
        values = np.array([[1, 1, 0, 1, 2], [1, 0, 0, 1, 2], [1, 0, 1, 1, 2]]).ravel()
        got = grid.components(values)
        np.testing.assert_array_equal(got, [0, 0, -1, 3, 4, 0, -1, -1, 3, 4, 0, -1, 3, 3, 4])
        # as booleans, the twos join the ones on their left
        np.testing.assert_array_equal(grid.components(values > 0)[values == 2], [3, 3, 3])


class TestGdop:
    def _sym_case(self):
        p_r = np.array([0.0, 0.0, 0.0])

        class R(object):
            def __init__(self, pos):
                self.position = np.asarray(pos, float)
                self.type = 0
                self.index = 0

        vis = []
        for sx, sy in itertools.product((-1, 1), (-1, 1)):
            q = np.array([sx, sy, 2.0])
            vis.append((R(q), float(np.linalg.norm(q - p_r))))
        return p_r, vis

    def test_symmetric_four_reflector_case(self):
        # H^T H = diag(2/3, 2/3, 8/3); trace of inverse = 1.5 + 1.5 + 0.375
        p_r, vis = self._sym_case()
        val = gdop(p_r, vis, sigma_r=1.0)
        assert val == pytest.approx(3.375, abs=1e-12)
        assert gdop(p_r, vis, sigma_r=0.5) == pytest.approx(3.375 * 0.25, abs=1e-12)

    def test_collinear_penalty(self):
        class R(object):
            def __init__(self, pos):
                self.position = np.asarray(pos, float)

        p_r = np.array([0.0, 0.0, 0.0])
        vis = []
        for x in (1.0, 2.0, 3.0, 4.0):
            q = np.array([x, 0.0, 2.0])
            vis.append((R(q), float(np.linalg.norm(q))))
        assert gdop(p_r, vis, sigma_r=0.5) == pytest.approx(1e6 * 0.25)

    def test_needs_four(self):
        p_r, vis = self._sym_case()
        with pytest.raises(ValueError):
            gdop(p_r, vis[:3], sigma_r=1.0)

    def test_matches_inversion_oracle(self, small_room, small_grid):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = rng.integers(5, 10)
            xy = rng.uniform(0.7, 3.3, size=(m, 2))
            pl = Placement(xy=xy, types=type_assignment(m, 1), z=small_room.z_l)
            masks = placement_masks(pl, small_grid, small_room)
            if masks.sum(axis=0).min() < 4:
                continue
            vals = gdop_values(pl, masks, small_grid, sigma_r=small_room.r_res)
            for idx in rng.integers(0, len(small_grid), size=5):
                vis = np.flatnonzero(masks[:, idx])
                p = small_grid.centers[idx]
                h = np.stack([
                    (p - pl.positions3d[i]) / np.linalg.norm(p - pl.positions3d[i])
                    for i in vis
                ])
                expect = trace_inverse_3x3(h.T @ h) * small_room.r_res**2
                assert vals[idx] == pytest.approx(expect, rel=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(17)

        class R(object):
            def __init__(self, pos):
                self.position = np.asarray(pos, float)

        p_r = np.array([1.0, 2.0, 0.0])
        offsets = rng.uniform(-2, 2, size=(6, 2))
        base = [np.array([p_r[0] + ox, p_r[1] + oy, 2.5]) for ox, oy in offsets]
        vis = [(R(q), float(np.linalg.norm(q - p_r))) for q in base]
        ref = gdop(p_r, vis, sigma_r=1.0)
        for theta in (0.3, 1.1, 2.7):
            c, s = np.cos(theta), np.sin(theta)
            rot = []
            for q in base:
                dx, dy = q[0] - p_r[0], q[1] - p_r[1]
                q2 = np.array([p_r[0] + c * dx - s * dy, p_r[1] + s * dx + c * dy, q[2]])
                rot.append((R(q2), float(np.linalg.norm(q2 - p_r))))
            assert gdop(p_r, rot, sigma_r=1.0) == pytest.approx(ref, rel=1e-9)

    def test_row_append_monotonicity(self):
        rng = np.random.default_rng(23)

        class R(object):
            def __init__(self, pos):
                self.position = np.asarray(pos, float)

        for _ in range(20):
            p_r = np.array([0.0, 0.0, 0.0])
            qs = rng.uniform(-3, 3, size=(7, 2))
            pts = [np.array([x, y, rng.uniform(1.5, 3.0)]) for x, y in qs]
            vis = [(R(q), float(np.linalg.norm(q))) for q in pts]
            with_extra = gdop(p_r, vis, sigma_r=1.0)
            without = gdop(p_r, vis[:-1], sigma_r=1.0)
            assert with_extra <= without + 1e-12

    def test_sigma_scaling(self):
        p_r, vis = self._sym_case()
        v1 = gdop(p_r, vis, sigma_r=1.0)
        v2 = gdop(p_r, vis, sigma_r=2.0)
        assert v2 == pytest.approx(4.0 * v1)


class TestGdopObjective:
    def test_single_element_sum(self, small_room):
        room = RoomModel(
            boundary=Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]),
            grid_size=1.5, z_r=0.5, z_l=4.5,
            cone_half_angle=np.deg2rad(60.0), wall_margin=0.1,
        )
        grid = build_grid(room)
        assert len(grid) == 1
        pl = Placement(xy=[[0.3, 0.3], [0.7, 0.3], [0.3, 0.7], [0.7, 0.7]],
                       types=[0, 1, 0, 1], z=room.z_l)
        masks = placement_masks(pl, grid, room)
        f2, values = gdop_objective(pl, grid, masks, sigma_r=room.r_res)
        assert f2 == pytest.approx(values[0])

    def test_sum_matches_loop_oracle(self, small_room, small_grid):
        rng = np.random.default_rng(31)
        xy = rng.uniform(0.8, 3.2, size=(8, 2))
        pl = Placement(xy=xy, types=type_assignment(8, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        f2, gmap = gdop_objective(pl, small_grid, masks, sigma_r=0.075)
        total = 0.0
        for idx in range(len(small_grid)):
            vis = visible_reflectors(small_grid.centers[idx], pl, masks, small_grid)
            total += gdop(small_grid.centers[idx], vis, sigma_r=0.075)
        assert f2 == pytest.approx(total, rel=1e-12)

    def test_extra_reflector_never_hurts(self, small_room, small_grid):
        rng = np.random.default_rng(37)
        for _ in range(5):
            m = 7
            xy = rng.uniform(0.8, 3.2, size=(m, 2))
            pl = Placement(xy=xy, types=type_assignment(m, 1), z=small_room.z_l)
            masks = placement_masks(pl, small_grid, small_room)
            if masks.sum(axis=0).min() < 4:
                continue
            extra = Placement(xy=np.vstack([xy, [[2.0, 2.0]]]),
                              types=type_assignment(m + 1, 1), z=small_room.z_l)
            masks_x = placement_masks(extra, small_grid, small_room)
            v0 = gdop_values(pl, masks, small_grid, sigma_r=0.075)
            v1 = gdop_values(extra, masks_x, small_grid, sigma_r=0.075)
            keep = masks_x[m]  # elements where the new reflector is visible
            assert np.all(v1[keep] <= v0[keep] + 1e-9)
            assert v1.sum() <= v0.sum() + 1e-9


def eigen_gdop_values(pl, masks, grid, sigma_r):
    """Reference GDOP and condition number per element, from unit vectors through eigvalsh."""
    diff = grid.centers[:, None, :] - pl.positions3d[None, :, :]
    u = diff / np.linalg.norm(diff, axis=2)[:, :, None] * masks.T[:, :, None]
    vals = np.linalg.eigvalsh(np.einsum("nmi,nmj->nij", u, u))
    with np.errstate(divide="ignore"):
        return _gdop_from_eigvals(vals, sigma_r), vals[:, -1] / vals[:, 0]


def row_unique_ambiguity(pl, grid, masks, n, r_res):
    """Reference ambiguity: f1, group ids and classes from np.unique over whole rows."""
    codes = fingerprint_table(pl, masks, grid, n, r_res)
    _, inv, counts = np.unique(codes, axis=0, return_inverse=True, return_counts=True)
    inv = inv.ravel()
    ambiguous = counts[inv] >= 2
    comp = grid.components(inv + 1)
    pairs = np.unique(np.column_stack([inv, comp]), axis=0)
    group_global = np.bincount(pairs[:, 0], minlength=len(counts)) > 1
    classes = np.full(len(grid), UNIQUE, dtype=np.int8)
    classes[ambiguous & group_global[inv]] = GLOBAL
    classes[ambiguous & ~group_global[inv]] = LOCAL
    return int(ambiguous.sum()), inv, classes


def _random_cases(small_room, small_grid, readme_l_room):
    """(placement, masks, grid, room): open-room draws and repaired L-room placements."""
    rng = np.random.default_rng(61)
    for _ in range(8):
        m = int(rng.integers(5, 12))
        pl = Placement(xy=rng.uniform(0.6, 3.4, size=(m, 2)),
                       types=type_assignment(m, int(rng.integers(1, 3))), z=small_room.z_l)
        yield pl, placement_masks(pl, small_grid, small_room), small_grid, small_room
    l_grid = build_grid(readme_l_room)
    for m in (13, 16):
        pl = random_feasible(readme_l_room, m, 2, rng)
        yield pl, placement_masks(pl, l_grid, readme_l_room), l_grid, readme_l_room


def wx_wy_wz_gdop_values(pl, masks, grid, sigma_r):
    """``gdop_values`` as it was with the three weighted products held at once."""
    c, p = grid.centers, pl.positions3d
    dx, dy, dz = (c[:, k, None] - p[None, :, k] for k in range(3))
    w = masks.T / (dx * dx + dy * dy + dz * dz)
    wx, wy, wz = w * dx, w * dy, w * dz
    sxx, sxy, sxz = (np.einsum("nm,nm->n", wx, v) for v in (dx, dy, dz))
    syy, syz = (np.einsum("nm,nm->n", wy, v) for v in (dy, dz))
    szz = np.einsum("nm,nm->n", wz, dz)
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
    return values, rest


class TestEvaluationKernels:
    def test_closed_form_gdop_matches_eigvalsh_and_scalar(self, small_room, small_grid,
                                                           readme_l_room):
        for pl, masks, grid, room in _random_cases(small_room, small_grid, readme_l_room):
            values = gdop_values(pl, masks, grid, room.r_res)
            expect, _ = eigen_gdop_values(pl, masks, grid, room.r_res)
            np.testing.assert_allclose(values, expect, rtol=1e-12, atol=0.0)
            for idx in range(0, len(grid), 97):
                vis = visible_reflectors(grid.centers[idx], pl, masks, grid)
                assert values[idx] == pytest.approx(gdop(grid.centers[idx], vis, room.r_res),
                                                    rel=1e-12, abs=0.0)

    def test_gdop_bitwise_equal_to_three_product_form(self, small_room, readme_l_room, u_room):
        comb = RoomModel(boundary=comb_room_poly(), grid_size=0.3, z_r=0.5, z_l=5.0)
        rng = np.random.default_rng(63)
        for room in (small_room, readme_l_room, u_room, comb):
            grid = build_grid(room)
            xmin, ymin, xmax, ymax = room.boundary.bounds
            for _ in range(3):
                m = int(rng.integers(6, 23))
                xy = rng.uniform([xmin, ymin], [xmax, ymax], (m, 2))
                # four reflectors on one line: elements that see only them
                # have a singular matrix and take the eigvalsh rows
                xy[:4, 1] = xy[0, 1]
                pl = Placement(xy=xy, types=type_assignment(m, 2), z=room.z_l)
                masks = rng.uniform(size=(m, len(grid))) < 0.6
                masks[:4] |= rng.uniform(size=len(grid)) < 0.3
                masks[4:, rng.uniform(size=len(grid)) < 0.1] = False
                masks[:4, masks.sum(axis=0) < 4] = True
                values = gdop_values(pl, masks, grid, room.r_res)
                expect, rest = wx_wy_wz_gdop_values(pl, masks, grid, room.r_res)
                assert values.tobytes() == expect.tobytes()
                assert len(rest) > 0

    def test_collinear_rows_keep_the_penalty_set(self, small_room, small_grid):
        # Four reflectors on one line, two off it; half the elements see only the line.
        xy = [[0.8, 2.0], [1.6, 2.0], [2.4, 2.0], [3.2, 2.0], [1.0, 1.0], [3.0, 3.0]]
        pl = Placement(xy=xy, types=type_assignment(6, 1), z=small_room.z_l)
        masks = np.ones((6, len(small_grid)), dtype=bool)
        masks[4:, ::2] = False
        values = gdop_values(pl, masks, small_grid, small_room.r_res)
        expect, _ = eigen_gdop_values(pl, masks, small_grid, small_room.r_res)
        penalty = 1e6 * small_room.r_res**2
        assert np.array_equal(values == penalty, expect == penalty)
        assert np.array_equal(values == penalty, ~masks[4])
        np.testing.assert_allclose(values, expect, rtol=1e-12, atol=0.0)

    def test_reflector_above_element_keeps_the_penalty_set(self, small_room, small_grid):
        # One reflector directly above an element and three on a line through it,
        # one of them moved off the line: the smaller the offset, the closer to
        # singular, and offsets near 1e-5 m put rows on both sides of the limit.
        cx, cy = small_grid.xy[len(small_grid) // 2]
        penalty = 1e6 * small_room.r_res**2
        masks = np.ones((4, len(small_grid)), dtype=bool)
        penalised = []
        for offset in [0.0, *np.logspace(-7, -3, 41)]:
            xy = [[cx, cy], [cx - 1.0, cy], [cx + 1.0, cy], [cx + 0.5, cy + offset]]
            pl = Placement(xy=xy, types=type_assignment(4, 1), z=small_room.z_l)
            values = gdop_values(pl, masks, small_grid, small_room.r_res)
            expect, cond = eigen_gdop_values(pl, masks, small_grid, small_room.r_res)
            assert np.array_equal(values == penalty, expect == penalty)
            kept = expect != penalty
            # both forms lose about cond * machine epsilon of relative precision
            err = np.abs(values[kept] - expect[kept]) / expect[kept]
            assert np.all(err <= 1e-14 * cond[kept])
            penalised.append(int((values == penalty).sum()))
        assert penalised[0] == len(small_grid) and penalised[-1] == 0
        assert any(0 < k < len(small_grid) for k in penalised)

    def test_packed_keys_match_row_unique(self, small_room, small_grid, readme_l_room):
        for pl, masks, grid, room in _random_cases(small_room, small_grid, readme_l_room):
            f1, amb = ambiguity(pl, grid, masks, 4, room.r_res)
            ref_f1, ref_ids, ref_classes = row_unique_ambiguity(pl, grid, masks, 4, room.r_res)
            assert f1 == ref_f1
            assert np.array_equal(amb.group_ids, ref_ids)
            assert np.array_equal(amb.classes, ref_classes)

    def test_wide_codes_fall_back_to_row_unique(self, small_room, small_grid):
        rng = np.random.default_rng(62)
        xy = rng.uniform(0.8, 3.2, size=(8, 2))
        pl = Placement(xy=xy, types=type_assignment(8, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        r_res = 1e-6
        codes = fingerprint_table(pl, masks, small_grid, 4, r_res)
        assert 4 * int(codes.max()).bit_length() > 63
        f1, amb = ambiguity(pl, small_grid, masks, 4, r_res)
        ref_f1, ref_ids, ref_classes = row_unique_ambiguity(pl, small_grid, masks, 4, r_res)
        assert f1 == ref_f1
        assert np.array_equal(amb.group_ids, ref_ids)
        assert np.array_equal(amb.classes, ref_classes)

    @pytest.mark.parametrize("bits", [1, 5, 15, 16, 21, 31])
    @pytest.mark.parametrize("width", [1, 3, 4])
    def test_unique_rows_matches_numpy(self, bits, width):
        rng = np.random.default_rng(bits * 10 + width)
        codes = rng.integers(0, 2**bits, size=(300, width))
        codes[100:200] = codes[:100]  # repeated rows
        codes.sort(axis=1)
        _, inv, counts = np.unique(codes, axis=0, return_inverse=True, return_counts=True)
        got_inv, got_counts = _unique_rows(codes)
        assert np.array_equal(got_inv, inv.ravel())
        assert np.array_equal(got_counts, counts)


class TestEvaluate:
    def test_feasible_equals_parts(self, small_room, small_grid):
        rng = np.random.default_rng(51)
        # jittered 3x3 lattice: 1 m pitch keeps the 0.5 m spacing with margin
        base = np.array([[x, y] for x in (1.0, 2.0, 3.0) for y in (1.0, 2.0, 3.0)])
        xy = base + rng.uniform(-0.15, 0.15, size=base.shape)
        pl = Placement(xy=xy, types=type_assignment(9, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        cfg = EvalConfig()
        from reflectopt.placement import check_constraints
        rep = check_constraints(pl, small_room, small_grid, masks, m_max=cfg.m_max,
                                k_min=cfg.k_min, d_min=cfg.d_min)
        assert rep.feasible
        f1, f2 = evaluate(pl, small_room, small_grid, masks, cfg)
        a, _ = ambiguity(pl, small_grid, masks, cfg.n, small_room.r_res)
        g, _ = gdop_objective(pl, small_grid, masks, small_room.r_res)
        assert (f1, f2) == (a, pytest.approx(g))

    def test_fingerprint_larger_than_k_min_rejected(self):
        # a feasible placement only guarantees k_min visible reflectors per element
        with pytest.raises(ValueError, match="k_min"):
            EvalConfig(n=5, k_min=4)
        assert EvalConfig(n=4, k_min=4).n == 4

    def test_spacing_violation_gets_penalty(self, small_room, small_grid):
        xy = np.array([[1.0, 1.0], [1.2, 1.0], [3.0, 1.0], [1.0, 3.0], [3.0, 3.0]])
        pl = Placement(xy=xy, types=type_assignment(5, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        cfg = EvalConfig()
        assert evaluate(pl, small_room, small_grid, masks, cfg) == penalty_pair(
            small_grid, small_room.r_res
        )

    def test_penalty_dominated_by_feasible(self, small_room, small_grid):
        pf1, pf2 = penalty_pair(small_grid, small_room.r_res)
        # any feasible outcome is bounded by f1 <= |grid| and finite f2
        assert pf1 > len(small_grid)
        assert pf2 > 1e6 * small_room.r_res**2
