import math

import numpy as np
import pytest

from reflectopt import harness
from reflectopt.amcl import AmclConfig, FingerprintModel, OdometryInput, Pose, _cell_likelihoods
from reflectopt.geom import build_grid
from reflectopt.harness import (
    NoiseConfig,
    gen_path,
    median,
    percentile,
    rmse,
    run_experiment,
    simulate_measurement,
    simulate_odometry,
)
from reflectopt.objectives import CoverageError, distance_bins, fingerprint
from reflectopt.placement import Placement, placement_masks, type_assignment
from reflectopt.repair import random_feasible, sample_in_margin
from conftest import L_ROOM_PLACEMENT_XY


class TestGenPath:
    def test_straight_line(self, small_room):
        start, steps = gen_path([(0.0, 0.0), (1.0, 0.0)], step=0.2, room=small_room)
        assert start == Pose(0.0, 0.0, 0.0)
        assert len(steps) == 5
        for pose, odo in steps:
            assert odo.distance == pytest.approx(0.2)
            assert odo.rotation == pytest.approx(0.0)
        assert steps[-1][0].x == pytest.approx(1.0)

    def test_right_angle_turn(self, small_room):
        _, steps = gen_path([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], step=0.2, room=small_room)
        rotations = [odo.rotation for _, odo in steps]
        turns = [r for r in rotations if abs(r) > 1e-9]
        assert len(turns) == 1
        assert turns[0] == pytest.approx(math.pi / 2)

    def test_total_length_recovered(self, small_room):
        wp = [(0.0, 0.0), (2.3, 0.0), (2.3, 1.7), (0.5, 1.7)]
        step = 0.2
        _, steps = gen_path(wp, step, small_room)
        polyline = sum(
            math.dist(a, b) for a, b in zip(wp[:-1], wp[1:])
        )
        assert abs(len(steps) * step - polyline) < step

    def test_segment_outside_room_rejected(self, small_room):
        # both endpoints inside, but the segment cuts across the exterior?
        # in a convex room that cannot happen; use an outside waypoint
        with pytest.raises(ValueError):
            gen_path([(2.0, 2.0), (5.0, 2.0)], 0.2, room=small_room)

    def test_l_room_cutting_corner_rejected(self, l_room_poly):
        from reflectopt.geom import RoomModel
        room = RoomModel(boundary=l_room_poly, grid_size=0.2, z_r=0.5, z_l=3.5)
        # (2,2) -> (7,6) crosses the removed block
        with pytest.raises(ValueError):
            gen_path([(2.0, 2.0), (7.0, 6.0)], 0.2, room=room)

    def test_l_room_reflex_corner_cut_rejected(self, readme_l_room):
        # both waypoints inside, but the segment crosses the exterior beside
        # the reflex corner (5, 4) for about 5 cm
        with pytest.raises(ValueError, match="path segment leaves the room"):
            gen_path([(4.9, 3.98), (5.2, 4.1)], 0.02, room=readme_l_room)

    def test_u_room_wall_line_across_notch_rejected(self, u_room):
        # along the top wall line y = 8 across the slot: the segment only
        # touches the corners (3, 8) and (7, 8), so it crosses no wall
        with pytest.raises(ValueError, match="path segment leaves the room"):
            gen_path([(1.0, 8.0), (9.0, 8.0)], 0.2, room=u_room)
        _, steps = gen_path([(1.0, 8.0), (3.0, 8.0), (3.0, 3.0), (7.0, 3.0)], 0.2, room=u_room)
        assert len(steps) == 55  # along the walls: inside


@pytest.fixture(scope="module")
def sim_setup(small_room, small_grid):
    rng = np.random.default_rng(99)
    pl = random_feasible(small_room, 9, 2, rng)
    masks = placement_masks(pl, small_grid, small_room)
    return pl, masks


class TestSimulateMeasurement:
    def test_zero_noise_equals_fingerprint(self, small_room, small_grid, sim_setup):
        pl, masks = sim_setup
        c = small_grid.centers[30]
        meas = simulate_measurement(
            30, pl, masks, small_grid, small_room, np.random.default_rng(0), n=4, sigma=0.0,
        )
        fp = fingerprint(c, pl, masks, small_grid, 4, small_room.r_res)
        assert meas.entries == fp.entries

    def test_noise_can_change_selection(self, small_room, small_grid, sim_setup):
        pl, masks = sim_setup
        c = small_grid.centers[30]
        # replay-noise oracle: same rng draw sequence, manual computation
        seed = 1234
        meas = simulate_measurement(
            30, pl, masks, small_grid, small_room, np.random.default_rng(seed),
            n=4, sigma=small_room.r_res,
        )
        rng = np.random.default_rng(seed)
        vis = np.flatnonzero(masks[:, 30])
        d = np.linalg.norm(pl.positions3d[vis] - c, axis=1)
        noisy = d + rng.normal(0.0, small_room.r_res, size=len(d))
        order = np.argsort(noisy, kind="stable")[:4]
        bins = distance_bins(noisy[order], small_room.r_res)
        types = pl.types[vis[order]]
        expect = tuple(sorted((int(b), int(t)) for b, t in zip(bins, types)))
        assert meas.entries == expect

    def test_bin_distribution_centered(self, small_room, small_grid, sim_setup):
        pl, masks = sim_setup
        c = small_grid.centers[30]
        rng = np.random.default_rng(5)
        vis = np.flatnonzero(masks[:, 30])
        d = np.linalg.norm(pl.positions3d[vis] - c, axis=1)
        nearest_bin = int(distance_bins(np.array([d.min()]), small_room.r_res)[0])
        lowest = []
        for _ in range(10_000):
            meas = simulate_measurement(
                30, pl, masks, small_grid, small_room, rng, n=4, sigma=small_room.r_res,
            )
            lowest.append(meas.entries[0][0])
        lowest = np.array(lowest)
        # noise sigma equals one bin width: first bin scatters about the truth
        assert abs(np.median(lowest) - nearest_bin) <= 1
        assert 0.5 <= np.std(lowest) <= 2.0

    def test_coverage_hole_raises(self, small_room, small_grid):
        from reflectopt.placement import Placement
        pl = Placement(xy=[[2.0, 2.0]], types=[0], z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        cell = int(small_grid.nearest_element([(2.0, 2.0)])[0])
        with pytest.raises(ValueError):
            simulate_measurement(cell, pl, masks, small_grid, small_room,
                                 np.random.default_rng(0), n=4)


class TestSensorFilterAgreement:
    def test_zero_noise_measurement_is_the_filter_fingerprint(self, oracle_room):
        # the simulated radar, the scalar oracle and the filter's model agree
        # at every grid centre; knocked-out mask entries leave coverage holes
        room, m, n = oracle_room, 10, 4
        grid = build_grid(room)
        rng = np.random.default_rng(43)
        xy = sample_in_margin(room, m, rng)
        pl = Placement(xy=xy, types=xy[:, 0] > np.median(xy[:, 0]), z=room.z_l)
        masks = placement_masks(pl, grid, room) & (rng.random((m, len(grid))) < 0.7)
        model = FingerprintModel(pl, masks, grid, room, n)
        assert 0 < model.valid.sum() < len(grid)
        for cell, c in enumerate(grid.centers):
            if not model.valid[cell]:
                with pytest.raises(CoverageError):
                    simulate_measurement(cell, pl, masks, grid, room, rng, n=n, sigma=0.0)
                with pytest.raises(CoverageError):
                    fingerprint(c, pl, masks, grid, n, room.r_res)
                continue
            meas = simulate_measurement(cell, pl, masks, grid, room, rng, n=n, sigma=0.0)
            assert meas == fingerprint(c, pl, masks, grid, n, room.r_res)
            assert _cell_likelihoods(np.array([cell]), meas, model)[0] == 1.0


class TestSimulateOdometry:
    def test_zero_sigma_identity(self):
        odo = OdometryInput(0.2, 0.1)
        out = simulate_odometry(odo, np.random.default_rng(0), sigma_d=0.0, sigma_theta=0.0)
        assert out == odo

    def test_mean_recovers_truth(self):
        rng = np.random.default_rng(1)
        samples = [
            simulate_odometry(OdometryInput(0.2, 0.0), rng, sigma_d=0.02).distance
            for _ in range(10_000)
        ]
        assert np.mean(samples) == pytest.approx(0.2, abs=3 * 0.02 / 100)

    def test_rotation_sigma(self):
        rng = np.random.default_rng(2)
        rots = [
            simulate_odometry(OdometryInput(0.2, 0.0), rng,
                              sigma_theta=math.radians(5.0)).rotation
            for _ in range(10_000)
        ]
        assert np.std(rots) == pytest.approx(math.radians(5.0), rel=0.05)


class TestRmse:
    def test_zero_for_equal(self):
        poses = [Pose(1.0, 2.0, 0.0), Pose(3.0, 4.0, 0.0)]
        assert rmse(poses, poses) == 0.0

    def test_constant_offset(self):
        truth = [Pose(float(i), 0.0, 0.0) for i in range(10)]
        est = [Pose(float(i) + 0.1, 0.0, 0.0) for i in range(10)]
        assert rmse(truth, est) == pytest.approx(0.1)

    def test_two_step_case(self):
        truth = [Pose(0.0, 0.0, 0.0), Pose(0.0, 0.0, 0.0)]
        est = [Pose(0.3, 0.0, 0.0), Pose(0.0, 0.4, 0.0)]
        assert rmse(truth, est) == pytest.approx(math.sqrt((0.09 + 0.16) / 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([Pose(0, 0, 0)], [])


class TestReportStatistics:
    @pytest.mark.parametrize("n", range(1, 40))
    def test_match_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        draws = [rng.normal(size=n), rng.exponential(size=n), rng.integers(0, 3, size=n) * 0.1]
        for values in draws:
            assert median(values.tolist()) == float(np.median(values))
            for q in (25, 75, 0, 100, 10.0 * rng.uniform(0, 10)):
                assert percentile(values.tolist(), q) == float(np.percentile(values, q))


class TestRunExperiment:
    def _path(self, room):
        return gen_path([(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0), (1.0, 1.0)], 0.2, room)

    def test_deterministic(self, small_room, small_grid, sim_setup):
        pl, masks = sim_setup
        cfg = AmclConfig(n_particles=300)
        r1 = run_experiment(small_room, pl, self._path(small_room), NoiseConfig(), [7],
                            amcl_config=cfg, grid=small_grid, masks=masks)
        r2 = run_experiment(small_room, pl, self._path(small_room), NoiseConfig(), [7],
                            amcl_config=cfg, grid=small_grid, masks=masks)
        assert r1.traces[0].estimates == r2.traces[0].estimates
        assert r1.traces[0].rmse_after_burn_in == r2.traces[0].rmse_after_burn_in

    def test_zero_noise_converges(self, small_room, small_grid, sim_setup):
        # noiseless sensors; the filter keeps its own small process noise,
        # which maintains particle diversity
        pl, masks = sim_setup
        cfg = AmclConfig(n_particles=800)
        noise = NoiseConfig(sigma_meas=0.0, sigma_d=0.0, sigma_theta=0.0)
        report = run_experiment(small_room, pl, self._path(small_room), noise, [3],
                                amcl_config=cfg, grid=small_grid, masks=masks, burn_in=20)
        diag = math.sqrt(2) * small_room.grid_size
        assert report.traces[0].rmse_after_burn_in <= diag

    def test_one_model_serves_every_seed(self, small_room, small_grid, sim_setup, monkeypatch):
        # the seeds share one fingerprint model, and no seed's track leaks into the next
        pl, masks = sim_setup
        cfg = AmclConfig(n_particles=300)
        built = []
        init = FingerprintModel.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FingerprintModel, "__init__", counted)
        both = run_experiment(small_room, pl, self._path(small_room), NoiseConfig(), [3, 7],
                              amcl_config=cfg, grid=small_grid, masks=masks)
        assert len(built) == 1
        for trace in both.traces:
            alone = run_experiment(small_room, pl, self._path(small_room), NoiseConfig(), [trace.seed],
                                   amcl_config=cfg, grid=small_grid, masks=masks).traces[0]
            assert trace.estimates == alone.estimates
            assert (trace.rmse_full, trace.rmse_after_burn_in) == (alone.rmse_full,
                                                                   alone.rmse_after_burn_in)
        assert [t.seed for t in both.traces] == [3, 7]
        assert len(built) == 3

    def test_matched_seeds_share_odometry(self, small_room, small_grid, sim_setup):
        # the odometry noise stream must not depend on the placement
        pl, _ = sim_setup
        rng_a = np.random.default_rng([42, 1])
        rng_b = np.random.default_rng([42, 1])
        a = [simulate_odometry(OdometryInput(0.2, 0.0), rng_a) for _ in range(50)]
        b = [simulate_odometry(OdometryInput(0.2, 0.0), rng_b) for _ in range(50)]
        assert a == b

    def test_batched_cells_equal_single_point_cells(self, readme_l_room, monkeypatch):
        # every README-path pose lies on a cell edge or corner, where the tie
        # rule picks the cell; the one lookup of the whole path picks the same
        room, grid = readme_l_room, readme_l_room.grid
        pl = Placement(xy=L_ROOM_PLACEMENT_XY, types=type_assignment(22, 2), z=room.z_l)
        masks = placement_masks(pl, grid, room)
        path = gen_path([(1.0, 1.0), (9.0, 1.0), (9.0, 7.0)], 0.2, room)
        measured = []

        def spy(cell, *args):
            measured.append(cell)
            return simulate_measurement(cell, *args)

        monkeypatch.setattr(harness, "simulate_measurement", spy)
        report = run_experiment(room, pl, path, NoiseConfig(), [0],
                                amcl_config=AmclConfig(n_particles=50), grid=grid, masks=masks)
        truth = report.traces[0].truth
        assert len(truth) == 71
        assert measured == [int(grid.nearest_element(np.array([[p.x, p.y]]))[0])
                            for p in truth]
