import itertools

import numpy as np
import pytest

from reflectopt.geom import Polygon, RoomModel, build_grid
from reflectopt.objectives import (
    GLOBAL,
    LOCAL,
    UNIQUE,
    AmbiguityMap,
    CoverageError,
    EvalConfig,
    ambiguity,
    distance_bins,
    evaluate,
    fingerprint,
    fingerprint_table,
    gdop,
    gdop_objective,
    gdop_values,
    nearest_visible,
    penalty_pair,
)
from reflectopt.placement import Placement, placement_masks, type_assignment, visible_reflectors


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
        f1, amb_map = ambiguity(pl, small_room, small_grid, masks, n=4,
                                r_res=small_room.r_res)
        assert f1 == len(small_grid)
        assert amb_map.n_unique == 0

    def test_counts_sum_to_grid(self, small_room, small_grid):
        rng = np.random.default_rng(21)
        xy = rng.uniform(0.8, 3.2, size=(8, 2))
        pl = Placement(xy=xy, types=type_assignment(8, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        f1, amb_map = ambiguity(pl, small_room, small_grid, masks, n=4,
                                r_res=small_room.r_res)
        total = amb_map.n_unique + amb_map.n_local + amb_map.n_global
        assert total == len(small_grid)
        assert f1 == amb_map.n_local + amb_map.n_global

    def test_matches_pairwise_oracle(self, small_room, small_grid):
        rng = np.random.default_rng(33)
        xy = rng.uniform(0.8, 3.2, size=(8, 2))
        pl = Placement(xy=xy, types=type_assignment(8, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        f1, _ = ambiguity(pl, small_room, small_grid, masks, n=4, r_res=small_room.r_res)
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

    def test_local_vs_global_classification(self, small_room, small_grid):
        rng = np.random.default_rng(40)
        xy = rng.uniform(0.8, 3.2, size=(8, 2))
        pl = Placement(xy=xy, types=type_assignment(8, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        _, amb_map = ambiguity(pl, small_room, small_grid, masks, n=4,
                               r_res=small_room.r_res)
        # flood-fill oracle per group
        groups = {}
        for i, gid in enumerate(amb_map.group_ids):
            groups.setdefault(int(gid), []).append(i)
        ij = {tuple(small_grid.ij[i]): i for i in range(len(small_grid))}
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
                    cx, cy = small_grid.ij[cur]
                    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        nb = ij.get((cx + dx, cy + dy))
                        if nb is not None and nb in member_set and nb not in seen:
                            seen.add(nb)
                            stack.append(nb)
            expect = GLOBAL if regions > 1 else LOCAL
            for m in members:
                assert amb_map.classes[m] == expect


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
        f2, values = gdop_objective(pl, room, grid, masks, sigma_r=room.r_res)
        assert f2 == pytest.approx(values[0])

    def test_sum_matches_loop_oracle(self, small_room, small_grid):
        rng = np.random.default_rng(31)
        xy = rng.uniform(0.8, 3.2, size=(8, 2))
        pl = Placement(xy=xy, types=type_assignment(8, 2), z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        f2, gmap = gdop_objective(pl, small_room, small_grid, masks, sigma_r=0.075)
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
        a, _ = ambiguity(pl, small_room, small_grid, masks, cfg.n, small_room.r_res)
        g, _ = gdop_objective(pl, small_room, small_grid, masks, small_room.r_res)
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
