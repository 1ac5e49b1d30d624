import math

import numpy as np
import pytest

from reflectopt.geom import RoomModel, Polygon, build_grid
from reflectopt.placement import (
    Placement,
    check_constraints,
    close_pairs,
    placement_masks,
    type_assignment,
    visible_reflectors,
)


class TestTypeAssignment:
    def test_even_split(self):
        assert type_assignment(4, 2).tolist() == [0, 1, 0, 1]

    def test_odd_count_has_one_more_type_zero(self):
        t = type_assignment(5, 2)
        assert (t == 0).sum() == 3
        assert (t == 1).sum() == 2

    def test_single_type(self):
        assert type_assignment(3, 1).tolist() == [0, 0, 0]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            type_assignment(0, 2)
        with pytest.raises(ValueError):
            type_assignment(3, 5)


def _ring_placement(room, m=8, radius=1.2):
    angles = 2 * np.pi * np.arange(m) / m
    center = np.array([2.0, 2.0])
    xy = center + radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return Placement(xy=xy, types=type_assignment(m, 2), z=room.z_l)


class TestClosePairs:
    def test_matches_double_loop(self):
        # clustered points with exact duplicates and a pair exactly d_min apart
        rng = np.random.default_rng(8)
        for trial in range(100):
            m = int(rng.integers(0, 30))
            xy = rng.uniform(0.0, 4.0, size=(m, 2))
            if m:
                xy = np.concatenate([xy, xy[:1], xy[:1] + [0.5, 0.0]])
            want = []
            for i in range(len(xy)):
                for j in range(i + 1, len(xy)):
                    dx, dy = xy[i] - xy[j]
                    d = math.sqrt(dx * dx + dy * dy)
                    if d < 0.5:
                        want.append((i, j, d))
            i, j, d = close_pairs(xy, 0.5)
            assert list(zip(i.tolist(), j.tolist(), d.tolist())) == want

    def test_pair_at_d_min_is_not_close(self):
        i, j, d = close_pairs(np.array([[1.0, 1.0], [1.5, 1.0], [1.0, 1.0]]), 0.5)
        assert (i.tolist(), j.tolist(), d.tolist()) == ([0], [2], [0.0])


class TestCheckConstraints:
    def test_single_reflector_fails_coverage(self, small_room, small_grid):
        pl = Placement(xy=[[2.0, 2.0]], types=[0], z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        rep = check_constraints(pl, small_room, small_grid, masks, m_max=32, k_min=4, d_min=0.5)
        assert not rep.coverage_ok
        assert len(rep.coverage_violations) == len(small_grid)
        assert not rep.feasible

    def test_close_pair_fails_spacing(self, small_room, small_grid):
        pl = Placement(xy=[[2.0, 2.0], [2.3, 2.0]], types=[0, 1], z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        rep = check_constraints(pl, small_room, small_grid, masks, m_max=32, k_min=4, d_min=0.5)
        assert not rep.spacing_ok
        assert rep.spacing_violations == [(0, 1)]
        assert all(type(k) is int for pair in rep.spacing_violations for k in pair)

    def test_margin_violation_indices(self, small_room, small_grid):
        pl = Placement(xy=[[0.2, 2.0], [2.0, 2.0]], types=[0, 1], z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room, strict=False)
        rep = check_constraints(pl, small_room, small_grid, masks, m_max=32, k_min=4, d_min=0.5)
        assert not rep.margin_ok
        assert rep.margin_violations.tolist() == [0]

    def test_feasible_ring(self, small_room, small_grid):
        # 8 reflectors on a ring, wide cone: brute-force recount per element.
        pl = _ring_placement(small_room)
        masks = placement_masks(pl, small_grid, small_room)
        rep = check_constraints(pl, small_room, small_grid, masks, m_max=32, k_min=4, d_min=0.5)
        assert rep.feasible
        # independent recount: visible reflectors per element via mask oracle
        p3 = pl.positions3d
        radius = small_room.cone_radius
        for idx in range(0, len(small_grid), 7):
            c = small_grid.centers[idx]
            count = sum(
                np.hypot(c[0] - p3[i, 0], c[1] - p3[i, 1]) <= radius
                for i in range(pl.m)
            )  # convex room: line of sight never blocks
            assert count == masks[:, idx].sum() >= 4

    def test_mask_mismatch_raises(self, small_room, small_grid):
        pl = _ring_placement(small_room)
        with pytest.raises(ValueError):
            check_constraints(pl, small_room, small_grid, np.ones((1, 3), bool), m_max=32,
                              k_min=4, d_min=0.5)


class TestVisibleReflectors:
    def test_vertical_distance(self, small_room, small_grid):
        c = small_grid.centers[0]
        pl = Placement(xy=[[c[0], c[1]]], types=[0], z=c[2] + 2.0)
        masks = placement_masks(pl, small_grid, small_room)
        out = visible_reflectors(c, pl, masks, small_grid)
        assert len(out) == 1
        assert out[0][1] == pytest.approx(2.0)

    def test_3_4_5_triangle(self, small_room, small_grid):
        c = small_grid.centers[small_grid.nearest_element([(1.125, 2.125)])[0]]
        pl = Placement(xy=[[c[0] + 1.5, c[1]]], types=[0], z=c[2] + 2.0)
        masks = placement_masks(pl, small_grid, small_room)
        out = visible_reflectors(c, pl, masks, small_grid)
        assert out[0][1] == pytest.approx(2.5)

    def test_masked_out_reflector_excluded(self, small_room, small_grid):
        c = small_grid.centers[0]
        pl = Placement(xy=[[c[0], c[1]], [c[0] + 0.6, c[1]]], types=[0, 1], z=c[2] + 2.0)
        masks = placement_masks(pl, small_grid, small_room)
        masks = masks.copy()
        masks[1, :] = False  # pretend reflector 1 is undetectable
        out = visible_reflectors(c, pl, masks, small_grid)
        assert [r.index for r, _ in out] == [0]

    def test_not_a_grid_center_raises(self, small_room, small_grid):
        pl = _ring_placement(small_room)
        masks = placement_masks(pl, small_grid, small_room)
        with pytest.raises(ValueError):
            visible_reflectors(np.array([1.234, 1.234, small_room.z_r]), pl, masks, small_grid)

    def test_permutation_gives_same_distance_multiset(self, small_room, small_grid):
        rng = np.random.default_rng(2)
        pl = _ring_placement(small_room)
        perm = rng.permutation(pl.m)
        pl2 = Placement(xy=pl.xy[perm], types=pl.types[perm], z=pl.z)
        masks = placement_masks(pl, small_grid, small_room)
        masks2 = placement_masks(pl2, small_grid, small_room)
        c = small_grid.centers[17]
        d1 = sorted(d for _, d in visible_reflectors(c, pl, masks, small_grid))
        d2 = sorted(d for _, d in visible_reflectors(c, pl2, masks2, small_grid))
        assert np.allclose(d1, d2)

    def test_sorted_by_distance_then_index(self, small_room, small_grid):
        c = small_grid.centers[5]
        # two reflectors at identical distance from c, plus one farther away
        pl = Placement(
            xy=[[c[0] + 1.0, c[1]], [c[0] - 1.0, c[1]], [c[0], c[1] + 2.0]],
            types=[0, 1, 0],
            z=c[2] + 2.0,
        )
        masks = placement_masks(pl, small_grid, small_room)
        out = visible_reflectors(c, pl, masks, small_grid)
        assert [r.index for r, _ in out] == [0, 1, 2]
