import dataclasses

import numpy as np
import pytest

from reflectopt import repair as repair_module
from reflectopt.geom import RoomModel, build_grid
from reflectopt.mopso import PsoConfig
from reflectopt.objectives import EvalConfig
from reflectopt.placement import (Placement, check_constraints, close_pairs, placement_masks,
                                  type_assignment)
from reflectopt.repair import (
    _coverage_holes,
    _rescue_jump,
    deficit_gravitation_step,
    magnet_step,
    random_feasible,
    repair,
    sample_in_margin,
)
from conftest import L_ROOM_PLACEMENT_XY, comb_room_poly, spy_build_grid


def _pl(xy, z=3.0):
    xy = np.asarray(xy, float)
    return Placement(xy=xy, types=np.zeros(len(xy), int), z=z)


class TestMagnetStep:
    def test_symmetric_push(self):
        pl = _pl([[0.0, 0.0], [0.3, 0.0]])
        out = magnet_step(pl, d_min=0.5)
        sep = np.linalg.norm(out.xy[1] - out.xy[0])
        assert sep == pytest.approx(0.525)
        assert np.allclose(out.xy.mean(axis=0), pl.xy.mean(axis=0))

    def test_identity_when_spaced(self):
        pl = _pl([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = magnet_step(pl, d_min=0.5)
        assert np.array_equal(out.xy, pl.xy)

    def test_equilateral_triangle_expands_about_centroid(self):
        # vector-sum oracle: symmetric accumulation keeps the centroid
        side = 0.3
        pts = np.array([
            [0.0, 0.0],
            [side, 0.0],
            [side / 2, side * np.sqrt(3) / 2],
        ])
        pl = _pl(pts)
        out = magnet_step(pl, d_min=0.5)
        assert np.allclose(out.xy.mean(axis=0), pts.mean(axis=0), atol=1e-12)
        d01 = np.linalg.norm(out.xy[0] - out.xy[1])
        d02 = np.linalg.norm(out.xy[0] - out.xy[2])
        d12 = np.linalg.norm(out.xy[1] - out.xy[2])
        assert d01 == pytest.approx(d02) == pytest.approx(d12)
        assert d01 > side

    def test_uninvolved_reflector_stays(self):
        pl = _pl([[0.0, 0.0], [0.3, 0.0], [5.0, 5.0]])
        out = magnet_step(pl, d_min=0.5)
        assert np.array_equal(out.xy[2], pl.xy[2])

    def test_coincident_pair_needs_rng(self):
        pl = _pl([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            magnet_step(pl, d_min=0.5)
        out = magnet_step(pl, d_min=0.5, rng=np.random.default_rng(0))
        assert np.linalg.norm(out.xy[1] - out.xy[0]) == pytest.approx(0.525)


def loop_magnet_step(pl, d_min, rng=None):
    """Reference magnet step: the pair-by-pair loop that magnet_step replaced."""
    xy = pl.xy
    m = pl.m
    if m < 2:
        return pl
    diff = xy[:, None, :] - xy[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    moves = np.zeros_like(xy)
    target = d_min * (1.0 + repair_module._PUSH_DELTA)
    moved = False
    for i in range(m):
        for j in range(i + 1, m):
            d = dist[i, j]
            if d >= d_min:
                continue
            moved = True
            if d < 1e-12:
                if rng is None:
                    raise ValueError("coincident reflectors need an rng to separate")
                angle = rng.uniform(0.0, 2.0 * np.pi)
                direction = np.array([np.cos(angle), np.sin(angle)])
            else:
                direction = (xy[i] - xy[j]) / d
            push = 0.5 * (target - d)
            moves[i] += push * direction
            moves[j] -= push * direction
    if not moved:
        return pl
    return pl.with_xy(xy + moves)


def _assert_magnet_matches_loop(pl, d_min, seed):
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = loop_magnet_step(pl, d_min, want_rng)
    got = magnet_step(pl, d_min, got_rng)
    assert (got is pl) == (want is pl)
    assert got.xy.tobytes() == want.xy.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("room_name", ["small_room", "readme_l_room", "u_room"])
def test_magnet_step_matches_pair_loop_bitwise(request, room_name):
    # dense random placements whose close pairs chain through shared
    # reflectors; every third one has exact duplicates (coincident pairs,
    # triples among them) that draw their directions from the seeded rng
    room = request.getfixturevalue(room_name)
    xmin, ymin, xmax, ymax = room.boundary.bounds
    rng = np.random.default_rng(21)
    n_chained = 0
    for trial in range(60):
        xy = rng.uniform([xmin, ymin], [xmax, ymax], size=(int(rng.integers(2, 40)), 2))
        if trial % 3 == 0:
            twins = rng.integers(0, len(xy), size=int(rng.integers(1, 4)))
            xy = np.concatenate([xy, xy[twins], xy[twins[:1]]])
        pl = Placement(xy=xy, types=type_assignment(len(xy), 2), z=room.z_l)
        d_min = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        i, j, _ = close_pairs(pl.xy, d_min)
        n_chained += int(np.bincount(np.concatenate([i, j]), minlength=pl.m).max(initial=0) >= 2)
        _assert_magnet_matches_loop(pl, d_min, seed=trial)
    assert n_chained >= 30


@pytest.mark.parametrize("xy", [
    np.empty((0, 2)),
    [[1.0, 1.0]],
    [[1.0, 1.0], [1.5, 1.0]],  # exactly d_min apart: not pushed
    [[1.0, 1.0], [1.25, 1.0]],
    [[1.0, 1.0], [1.0, 1.0]],
    [[1.0, 1.0], [1.5, 1.0], [1.0, 1.0], [1.2, 1.3], [1.0, 1.0]],
], ids=["m0", "m1", "m2_at_d_min", "m2_close", "m2_coincident", "m5_mixed"])
def test_magnet_step_small_cases_match_pair_loop(xy):
    _assert_magnet_matches_loop(_pl(xy), 0.5, seed=4)


class TestCoverageCentroids:
    """Under-covered regions of _coverage_holes and their attractor elements."""

    def test_full_coverage_empty(self, small_room, small_grid):
        masks = np.ones((4, len(small_grid)), dtype=bool)
        regions, slack = _coverage_holes(small_grid, masks, masks.sum(axis=0), k_min=4)
        assert regions == []
        assert np.array_equal(slack, np.zeros(4))

    def test_square_block_centroid(self, small_room, small_grid):
        masks = np.ones((4, len(small_grid)), dtype=bool)
        block = (
            (small_grid.xy[:, 0] > 1.0) & (small_grid.xy[:, 0] < 2.0)
            & (small_grid.xy[:, 1] > 1.0) & (small_grid.xy[:, 1] < 2.0)
        )
        masks[0, block] = False  # block sees only 3 reflectors
        regions, _ = _coverage_holes(small_grid, masks, masks.sum(axis=0), k_min=4)
        assert len(regions) == 1
        members, att = regions[0]
        assert np.array_equal(members, np.flatnonzero(block))
        centroid = small_grid.xy[block].mean(axis=0)
        assert np.allclose(centroid, [1.5, 1.5], atol=0.01)
        dist = np.linalg.norm(small_grid.xy - centroid, axis=1)
        assert att in members
        assert dist[att] == dist[block].min()

    def test_two_components_match_flood_fill(self, small_room, small_grid):
        masks = np.ones((4, len(small_grid)), dtype=bool)
        blob_a = np.linalg.norm(small_grid.xy - [0.6, 0.6], axis=1) < 0.4
        blob_b = np.linalg.norm(small_grid.xy - [3.2, 3.2], axis=1) < 0.5
        masks[0, blob_a | blob_b] = False
        regions, _ = _coverage_holes(small_grid, masks, masks.sum(axis=0), k_min=4)
        assert len(regions) == 2
        got = sorted(tuple(members.tolist()) for members, _ in regions)
        expect = sorted([tuple(np.flatnonzero(blob_a).tolist()),
                         tuple(np.flatnonzero(blob_b).tolist())])
        assert got == expect
        for members, att in regions:
            assert att in members
            centroid = small_grid.xy[members].mean(axis=0)
            dist = np.linalg.norm(small_grid.xy[members] - centroid, axis=1)
            assert np.linalg.norm(small_grid.xy[att] - centroid) == dist.min()


def ndimage_coverage_regions(grid, masks, k_min):
    """Reference regions: scipy.ndimage.label over the rasterized under-covered elements."""
    from scipy import ndimage

    violated = masks.sum(axis=0) < k_min
    labels, n_regions = ndimage.label(grid.rasterize(violated.astype(np.int8), fill=0))
    element_labels = labels[tuple(np.argwhere(grid.cell_index >= 0).T)]
    regions = []
    for region in range(1, n_regions + 1):
        members = np.flatnonzero(element_labels == region)
        centroid = grid.xy[members].mean(axis=0)
        att = members[np.argmin(np.linalg.norm(grid.xy[members] - centroid, axis=1))]
        regions.append((members, int(att)))
    return regions


@pytest.mark.parametrize("room_name", ["readme_l_room", "u_room"])
def test_coverage_regions_match_ndimage_label(request, room_name):
    # scattered holes (independent masks) and blob-shaped holes (disk masks
    # around random reflector positions), from tiny to room-spanning
    room = request.getfixturevalue(room_name)
    grid = build_grid(room)
    rng = np.random.default_rng(12)
    for trial in range(40):
        if trial % 2:
            masks = rng.random((4, len(grid))) < rng.uniform(0.6, 1.0)
        else:
            centers = rng.uniform(0.0, 10.0, size=(int(rng.integers(6, 20)), 2))
            radius = rng.uniform(2.0, 4.5)
            masks = np.linalg.norm(grid.xy[None] - centers[:, None], axis=2) < radius
        got, _ = _coverage_holes(grid, masks, masks.sum(axis=0), k_min=4)
        want = ndimage_coverage_regions(grid, masks, k_min=4)
        assert len(got) == len(want)
        for (members, att), (want_members, want_att) in zip(got, want):
            assert np.array_equal(members, want_members)
            assert att == want_att


class TestDeficitGravitation:
    def test_no_violation_identity(self, small_room, small_grid):
        pl = _pl([[x, y] for x in (1.0, 2.0, 3.0) for y in (1.0, 2.0, 3.0)],
                 z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        out = deficit_gravitation_step(pl, small_grid, masks, masks.sum(axis=0), k_min=4)
        assert np.array_equal(out.xy, pl.xy)

    def test_recruits_exactly_the_deficit(self, small_room, small_grid):
        # synthetic masks: one region sees only 2 reflectors -> deficit 2
        pl = _pl([[1.0, 1.0], [1.5, 1.0], [3.0, 3.0], [3.0, 2.5], [2.5, 3.0]],
                 z=small_room.z_l)
        masks = np.ones((5, len(small_grid)), dtype=bool)
        hole = np.linalg.norm(small_grid.xy - [3.2, 0.8], axis=1) < 0.6
        masks[0, hole] = False
        masks[1, hole] = False
        masks[2, hole] = False
        out = deficit_gravitation_step(pl, small_grid, masks, masks.sum(axis=0), k_min=4)
        moved = [i for i in range(5) if not np.allclose(out.xy[i], pl.xy[i])]
        assert len(moved) == 2
        # recruited reflectors move toward the hole, not away
        c = small_grid.xy[hole].mean(axis=0)
        for i in moved:
            assert np.linalg.norm(out.xy[i] - c) < np.linalg.norm(pl.xy[i] - c)

    def test_rescue_moves_most_redundant_onto_hole(self, small_room, small_grid):
        pl = _pl([[1.0, 1.0], [1.5, 1.0], [3.0, 3.0], [3.0, 2.5], [2.5, 3.0]],
                 z=small_room.z_l)
        masks = np.ones((5, len(small_grid)), dtype=bool)
        hole = np.linalg.norm(small_grid.xy - [3.2, 0.8], axis=1) < 0.6
        masks[:3, hole] = False
        out = _rescue_jump(pl, small_grid, masks, masks.sum(axis=0), k_min=4)
        moved = [i for i in range(5) if not np.allclose(out.xy[i], pl.xy[i])]
        assert len(moved) == 1
        assert hole[small_grid.nearest_element([out.xy[moved[0]]])[0]]


class TestRepair:
    def test_feasible_input_unchanged(self, small_room):
        base = np.array([[x, y] for x in (1.0, 2.0, 3.0) for y in (1.0, 2.0, 3.0)])
        pl = _pl(base, z=small_room.z_l)
        out, feasible, iters = repair(pl, small_room, rng=np.random.default_rng(0))
        assert feasible and iters == 0
        assert np.array_equal(out.xy, pl.xy)

    def test_clustered_start_reaches_feasibility(self, small_room, small_grid):
        rng = np.random.default_rng(1)
        xy = rng.uniform(1.8, 2.2, size=(8, 2))
        pl = _pl(xy, z=small_room.z_l)
        out, feasible, iters = repair(pl, small_room, rng=rng)
        assert feasible
        masks = placement_masks(out, small_grid, small_room)
        rep = check_constraints(out, small_room, small_grid, masks, m_max=8, k_min=4, d_min=0.5)
        assert rep.feasible

    def test_impossible_coverage_flagged(self, small_room, monkeypatch):
        monkeypatch.setattr(repair_module, "_MAX_ITER", 20)
        pl = _pl([[2.0, 2.0]], z=small_room.z_l)  # one reflector, K_min=4
        out, feasible, iters = repair(pl, small_room, rng=np.random.default_rng(0))
        assert not feasible
        assert iters == 20

    def test_deterministic_given_seed(self, small_room):
        xy = np.full((6, 2), 2.0) + np.linspace(0, 0.01, 12).reshape(6, 2)
        pl = _pl(xy, z=small_room.z_l)
        out1, _, _ = repair(pl, small_room, rng=np.random.default_rng(7))
        out2, _, _ = repair(pl, small_room, rng=np.random.default_rng(7))
        assert np.array_equal(out1.xy, out2.xy)

    def test_seeded_l_room_result_is_unchanged(self, readme_l_room):
        # Recorded before repair kept its masks across iterations: a clustered
        # start in the lower-right arm of the L room, 35 iterations including
        # a rescue jump. Every float must come out the same.
        rng = np.random.default_rng(3)
        xy = rng.uniform([6.0, 0.6], [9.4, 2.5], size=(12, 2))
        pl = Placement(xy=xy, types=type_assignment(12, 2), z=readme_l_room.z_l)
        out, feasible, iters = repair(pl, readme_l_room, PsoConfig().eval_config(), rng)
        assert (feasible, iters) == (True, 35)
        assert out.xy.tolist() == [
            [5.5, 7.4999995], [7.909191484749368, 4.007656931328147],
            [3.6873504797761645, 1.3116600094347597], [3.7723085651553894, 1.8297402384810881],
            [5.783025934947873, 1.1767700135646277], [3.2332631880185696, 1.659314805441054],
            [7.689610672896887, 5.263034162015549], [7.2080621411471615, 5.053902596799572],
            [7.588238974078328, 3.592187936222669], [8.256962927509846, 3.5883512356455642],
            [5.5000005, 4.034218660768971], [3.2773048045400035, 2.182464244907617],
        ]

    def test_reflector_beyond_a_corner_repairs(self, readme_l_room):
        # Reflector 0 of a feasible placement moved out past the corner (0, 0).
        # Its projection used to stop 4.8e-7 m short of the margin, so every
        # one of the 200 iterations failed the constraint check.
        xy = np.array(L_ROOM_PLACEMENT_XY)
        xy[0] = (-0.0017, -0.8566)
        pl = Placement(xy=xy, types=type_assignment(len(xy), 2), z=readme_l_room.z_l)
        out, feasible, iters = repair(pl, readme_l_room, rng=np.random.default_rng(0))
        assert (feasible, iters) == (True, 1)
        assert np.array_equal(out.xy[1:], xy[1:])

    @pytest.mark.parametrize("room_name, m, seed", [
        ("readme_l_room", 14, 6), ("u_room", 14, 2), ("comb", 30, 1)])
    def test_verdict_matches_check_constraints_at_every_budget(self, request, monkeypatch,
                                                                room_name, m, seed):
        # A start drawn over the bounding box widened by 0.5 m, so some
        # reflectors begin outside the room or inside the wall margin; the
        # U start passes through a rescue jump. Cutting repair after K
        # iterations, for every K up to the one where it succeeds, the verdict
        # it returns must be the constraint check's verdict on what it returns,
        # and the masks it returns must be the masks of what it returns. Every
        # step reads the kept masks and per-element counts; they must be the
        # masks of the placement it moves and their column sums.
        if room_name == "comb":
            room = RoomModel(boundary=comb_room_poly(), grid_size=0.4, z_r=0.5, z_l=5.0,
                             r_res=0.075, cone_half_angle=np.deg2rad(60.0), wall_margin=0.5)
        else:
            room = request.getfixturevalue(room_name)
        grid = build_grid(room)
        config = EvalConfig()
        xmin, ymin, xmax, ymax = room.boundary.bounds
        xy = np.random.default_rng(seed).uniform([xmin - 0.5, ymin - 0.5],
                                                 [xmax + 0.5, ymax + 0.5], size=(m, 2))
        pl = Placement(xy=xy, types=type_assignment(m, 2), z=room.z_l)
        steps = []

        def checked(step):
            def wrapper(current, grid, masks, counts, k_min):
                assert np.array_equal(masks, placement_masks(current, grid, room, strict=False))
                assert np.array_equal(counts, masks.sum(axis=0))
                steps.append(step.__name__)
                return step(current, grid, masks, counts, k_min)
            return wrapper

        for name in ("deficit_gravitation_step", "_rescue_jump"):
            monkeypatch.setattr(repair_module, name, checked(getattr(repair_module, name)))
        for k in range(41):
            monkeypatch.setattr(repair_module, "_MAX_ITER", k)
            out, feasible, iters, kept = repair_module._repair(pl, room, config,
                                                               np.random.default_rng(seed))
            masks = placement_masks(out, grid, room, strict=False)
            assert np.array_equal(kept, masks)
            report = check_constraints(out, room, grid, masks, config.m_max,
                                       k_min=config.k_min, d_min=config.d_min)
            assert feasible == report.feasible
            assert iters == k or (feasible and iters < k)
            if feasible:
                break
        assert feasible and 0 < iters
        assert "deficit_gravitation_step" in steps

    def test_margin_only_violation_repairs_in_one_iteration(self, readme_l_room):
        # Reflector 2 of a feasible placement moved 0.2 m into the wall
        # margin of the bottom wall; coverage and spacing still hold.
        grid = build_grid(readme_l_room)
        xy = np.array(L_ROOM_PLACEMENT_XY)
        xy[2, 1] = 0.3
        pl = Placement(xy=xy, types=type_assignment(len(xy), 2), z=readme_l_room.z_l)
        report = check_constraints(pl, readme_l_room, grid,
                                   placement_masks(pl, grid, readme_l_room), m_max=32,
                                   k_min=4, d_min=0.5)
        assert report.margin_violations.tolist() == [2]
        assert report.m_ok and report.coverage_ok and report.spacing_ok
        out, feasible, iters = repair(pl, readme_l_room, rng=np.random.default_rng(0))
        assert (feasible, iters) == (True, 1)
        assert np.array_equal(np.delete(out.xy, 2, axis=0), np.delete(xy, 2, axis=0))

    @pytest.mark.parametrize("m", [0, 8])
    def test_count_outside_range_computes_no_masks(self, small_room, monkeypatch, m):
        def no_masks(*args, **kwargs):
            raise AssertionError("placement_masks called")

        monkeypatch.setattr(repair_module, "placement_masks", no_masks)
        xy = np.random.default_rng(1).uniform(1.8, 2.2, size=(m, 2))
        pl = Placement(xy=xy, types=np.zeros(m, int), z=small_room.z_l)
        out, feasible, iters = repair(pl, small_room, EvalConfig(m_max=7),
                                      np.random.default_rng(0))
        assert (out, feasible, iters) == (pl, False, 0)
        out, feasible, iters, masks = repair_module._repair(
            pl, small_room, EvalConfig(m_max=7), np.random.default_rng(0))
        assert (out, feasible, iters, masks) == (pl, False, 0, None)

    def test_recomputes_only_moved_rows(self, small_room, monkeypatch):
        import reflectopt.repair as repair_module

        rows = []
        original = repair_module.placement_masks

        def counting(pl, *args, **kwargs):
            rows.append(pl.m)
            return original(pl, *args, **kwargs)

        monkeypatch.setattr(repair_module, "placement_masks", counting)
        # Eight reflectors cover the room; the ninth sits 0.2 m from the
        # eighth, so only that magnet pair moves.
        base = [[x, y] for x in (1.0, 2.0, 3.0) for y in (1.0, 3.0)] + [[2.0, 2.0], [1.0, 2.0]]
        pl = _pl(base + [[1.2, 2.0]], z=small_room.z_l)
        out, feasible, iters = repair(pl, small_room, rng=np.random.default_rng(0))
        assert feasible and iters == 1
        assert rows == [9, 2]


class TestSampleInMargin:
    def test_all_samples_respect_margin(self, small_room):
        rng = np.random.default_rng(2)
        pts = sample_in_margin(small_room, 200, rng)
        assert np.all(small_room.boundary.contains_points(pts))
        assert np.all(small_room.boundary.edge_distances(pts) >= small_room.wall_margin - 1e-12)

    def test_too_small_region_raises(self, unit_square):
        room = RoomModel(boundary=unit_square, grid_size=0.25, wall_margin=0.6)
        with pytest.raises(ValueError):
            sample_in_margin(room, 5, np.random.default_rng(0))


class TestRandomFeasible:
    def test_deterministic_under_seed(self, small_room):
        a = random_feasible(small_room, 8, 2, np.random.default_rng(42))
        b = random_feasible(small_room, 8, 2, np.random.default_rng(42))
        assert a == b

    def test_fresh_room_builds_one_grid(self, small_room, monkeypatch):
        # drawing and repairing take the room alone: both read the one grid
        # that the room builds on first use
        room = dataclasses.replace(small_room)
        builds = spy_build_grid(monkeypatch)
        pl = random_feasible(room, 8, 2, np.random.default_rng(42))
        xy = pl.xy.copy()
        xy[0] = (0.1, 0.1)  # inside the wall margin
        out, feasible, iters = repair(pl.with_xy(xy), room, rng=np.random.default_rng(0))
        assert feasible and iters >= 1
        assert len(builds) == 1 and builds[0] is room

    def test_impossible_m_fails(self, small_room, monkeypatch):
        # m = 4 meets the coverage floor of the 4 x 4 room, but no 4 points of
        # its 3 x 3 m margin square lie pairwise 3.5 m apart: every repair
        # runs out of iterations and every restart fails
        monkeypatch.setattr(repair_module, "_MAX_ITER", 15)
        monkeypatch.setattr(repair_module, "_RESTARTS", 2)
        outcomes = []
        original = repair_module.repair

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            outcomes.append(result[1:])
            return result

        monkeypatch.setattr(repair_module, "repair", counted)
        with pytest.raises(RuntimeError, match="after 2 restarts"):
            random_feasible(small_room, 4, 2, np.random.default_rng(0), EvalConfig(d_min=3.5))
        assert outcomes == [(False, 15), (False, 15)]

    def test_m_below_k_min_fails_before_any_draw(self, small_room):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(RuntimeError, match="k_min=4"):
            random_feasible(small_room, 3, 2, rng)
        assert rng.bit_generator.state == state

    def test_m_below_coverage_floor_fails_before_any_draw_or_repair(self, readme_l_room,
                                                                     monkeypatch):
        # Three README L-room elements lie pairwise more than 2 cone radii
        # apart, so k_min=4 needs m >= 12.
        grid = build_grid(readme_l_room)

        def no_repair(*args, **kwargs):
            raise AssertionError("repair called for a size below the coverage floor")

        with monkeypatch.context() as patch:
            patch.setattr("reflectopt.repair.repair", no_repair)
            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            with pytest.raises(RuntimeError, match="need at least 12 reflectors"):
                random_feasible(readme_l_room, 11, 2, rng)
            assert rng.bit_generator.state == state
        pl = random_feasible(readme_l_room, 12, 2, np.random.default_rng(0))
        masks = placement_masks(pl, grid, readme_l_room)
        assert pl.m == 12
        assert check_constraints(pl, readme_l_room, grid, masks, m_max=12, k_min=4,
                                 d_min=0.5).feasible

    def test_m_above_m_max_fails_before_any_draw_or_repair(self, small_room, monkeypatch):
        def no_repair(*args, **kwargs):
            raise AssertionError("repair called for a size above m_max")

        monkeypatch.setattr(repair_module, "repair", no_repair)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(RuntimeError, match="9 reflectors: m_max=8"):
            random_feasible(small_room, 9, 2, rng, EvalConfig(m_max=8))
        assert rng.bit_generator.state == state

    def test_empty_margin_interior_fails_before_any_draw(self, small_room):
        # no point of the 4 x 4 room lies 3 m from every wall
        room = dataclasses.replace(small_room, wall_margin=3.0)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="wall_margin = 3 leaves too small a region"):
            random_feasible(room, 9, 2, rng)
        assert rng.bit_generator.state == state

    def test_margin_just_past_the_room_centre_fails_before_any_draw(self, unit_square,
                                                                     monkeypatch):
        # no point of the unit square lies 0.52 m from every wall, though the
        # deepest grid centre (0.375 m) plus half a cell diagonal reaches 0.552 m
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled an empty margin region")

        monkeypatch.setattr(repair_module, "sample_in_margin", no_sampling)
        room = RoomModel(boundary=unit_square, grid_size=0.25, wall_margin=0.52)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="wall_margin = 0.52 leaves too small a region"):
            random_feasible(room, 4, 2, rng)
        assert rng.bit_generator.state == state

    def test_thin_margin_interior_is_left_to_sampling(self, small_room, monkeypatch):
        # a 0.1 m square lies 1.95 m from every wall: the region is not
        # empty, so the pre-check leaves it to sampling and repair
        monkeypatch.setattr(repair_module, "_MAX_ITER", 1)
        monkeypatch.setattr(repair_module, "_RESTARTS", 1)
        room = dataclasses.replace(small_room, wall_margin=1.95)
        with pytest.raises(RuntimeError, match="after 1 restarts"):
            random_feasible(room, 4, 2, np.random.default_rng(0))

    def test_restarts_run_out(self, small_room, monkeypatch):
        # d_min beyond the room diagonal: no placement of 4 can be spaced out.
        monkeypatch.setattr(repair_module, "_MAX_ITER", 5)
        monkeypatch.setattr(repair_module, "_RESTARTS", 2)
        with pytest.raises(RuntimeError, match="after 2 restarts"):
            random_feasible(small_room, 4, 2, np.random.default_rng(0), EvalConfig(d_min=10.0))

    def test_types_follow_equal_split(self, small_room):
        pl = random_feasible(small_room, 7, 2, np.random.default_rng(5))
        assert (pl.types == 0).sum() == 4
        assert (pl.types == 1).sum() == 3
