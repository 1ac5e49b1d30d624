import math

import numpy as np
import pytest

from reflectopt.amcl import (
    AmclConfig,
    FingerprintModel,
    OdometryInput,
    ParticleSet,
    _MISMATCH_FACTOR,
    _WEIGHT_FLOOR,
    _cell_likelihoods,
    _match_cost_sq,
    _weight_update,
    estimate,
    init_particles,
    motion_update,
    resample,
    track,
    wrap_angle,
)
from reflectopt.geom import build_grid
from reflectopt.objectives import CoverageError, Fingerprint, fingerprint
from reflectopt.placement import Placement, placement_masks, type_assignment
from reflectopt.repair import random_feasible, sample_in_margin


class TestWrapAngle:
    def test_range(self):
        for theta in np.linspace(-10, 10, 101):
            w = wrap_angle(theta)
            assert -math.pi < w <= math.pi
            assert math.cos(w) == pytest.approx(math.cos(theta), abs=1e-12)
            assert math.sin(w) == pytest.approx(math.sin(theta), abs=1e-12)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_bits_equal_one_mod_over_every_value(self):
        def reference(theta):
            return -(np.mod(-np.asarray(theta) + math.pi, 2.0 * math.pi) - math.pi)

        def bits(x):
            return np.asarray(x, dtype=np.float64).view(np.int64)

        # the ends of [0, 2 pi) that np.mod meets lie at odd multiples of pi
        k_pi = np.arange(-9, 10) * math.pi
        edges = np.concatenate([k_pi, np.nextafter(k_pi, np.inf), np.nextafter(k_pi, -np.inf)])
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e17, -1e17, 1e300, -1e300,
                            math.nan, -math.nan, math.inf, -math.inf])
        rng = np.random.default_rng(5)
        arrays = [edges, special, rng.uniform(-10.0, 10.0, 2000),
                  rng.uniform(-math.pi, math.pi, 2000), rng.normal(0.0, 1e4, 500)]
        with np.errstate(invalid="ignore"):  # np.mod of an infinity
            for theta in arrays:
                before = theta.copy()
                assert np.array_equal(bits(wrap_angle(theta)), bits(reference(theta)))
                assert np.array_equal(bits(theta), bits(before))  # input left as it was
            for theta in [*edges.tolist(), *special.tolist(), np.array(7.5), np.array(-math.pi)]:
                got, want = wrap_angle(theta), reference(theta)
                assert type(got) is type(want) is np.float64
                assert bits(got) == bits(want)


class TestInitParticles:
    def test_single_particle(self, small_room):
        ps = init_particles(small_room, 1, np.random.default_rng(0))
        assert len(ps) == 1
        assert ps.weights[0] == 1.0

    def test_all_inside_room(self, small_room):
        ps = init_particles(small_room, 500, np.random.default_rng(1))
        assert np.all(small_room.boundary.contains_points(ps.positions))

    def test_uniformity_chi_squared(self, small_room):
        # 10-cell partition of the square room; chi^2 well under the 0.001
        # critical value (27.88 for 9 dof) for a uniform sample
        ps = init_particles(small_room, 100_000, np.random.default_rng(2))
        xs = ps.positions[:, 0]
        counts, _ = np.histogram(xs, bins=10, range=(0, 4))
        expected = len(ps) / 10
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 27.88


class TestMotionUpdate:
    def test_identity_motion(self, small_room):
        ps = init_particles(small_room, 50, np.random.default_rng(3))
        out = motion_update(ps, OdometryInput(0.0, 0.0), (0.0, 0.0),
                            np.random.default_rng(0), small_room.boundary)
        assert np.allclose(out.positions, ps.positions)
        assert np.allclose(out.headings, ps.headings)

    def test_straight_step(self, small_room):
        ps = ParticleSet(
            positions=np.array([[2.0, 2.0]]),
            headings=np.array([0.0]),
            weights=np.array([1.0]),
        )
        out = motion_update(ps, OdometryInput(0.2, 0.0), (0.0, 0.0),
                            np.random.default_rng(0), small_room.boundary)
        assert np.allclose(out.positions, [[2.2, 2.0]])

    def test_estimate_reads_the_moved_headings(self, small_room, small_grid, tracking_setup):
        # motion_update computes the heading vectors, weighting keeps them
        # and estimate reads them: the same bits as a set rebuilt from its arrays
        pl, masks = tracking_setup
        model = FingerprintModel(pl, masks, small_grid, small_room, 4)
        fp = fingerprint(small_grid.centers[30], pl, masks, small_grid, 4, small_room.r_res)
        rng = np.random.default_rng(8)
        ps = init_particles(small_room, 300, rng)
        estimate(ps)  # the vectors of the initial headings
        for odo in [OdometryInput(0.2, 0.4), OdometryInput(0.2, -1.3), OdometryInput(0.0, 2.0)]:
            moved = motion_update(ps, odo, (0.02, 0.1), rng, small_room.boundary)
            ps = _weight_update(moved, fp, model)
            assert ps is moved  # weighting changes the weights only
            rebuilt = ParticleSet(ps.positions.copy(), ps.headings.copy(), ps.weights.copy())
            assert (np.array(estimate(ps)).view(np.int64).tolist()
                    == np.array(estimate(rebuilt)).view(np.int64).tolist())

    def test_noise_spread_matches_sigma(self, small_room):
        n = 10_000
        ps = ParticleSet(
            positions=np.tile([2.0, 2.0], (n, 1)),
            headings=np.zeros(n),
            weights=np.full(n, 1.0 / n),
        )
        sigma_d, sigma_t = 0.02, math.radians(5.0)
        out = motion_update(ps, OdometryInput(0.2, 0.0), (sigma_d, sigma_t),
                            np.random.default_rng(4), small_room.boundary)
        assert np.std(out.headings) == pytest.approx(sigma_t, rel=0.05)
        dist = np.linalg.norm(out.positions - [2.0, 2.0], axis=1)
        assert np.std(dist) == pytest.approx(sigma_d, rel=0.06)

    def test_out_of_room_projected_and_discounted(self, small_room):
        ps = ParticleSet(
            positions=np.array([[3.95, 2.0]]),
            headings=np.array([0.0]),
            weights=np.array([1.0]),
        )
        out = motion_update(ps, OdometryInput(0.5, 0.0), (0.0, 0.0),
                            np.random.default_rng(0), small_room.boundary)
        assert small_room.boundary.contains_points(out.positions)[0]
        assert np.allclose(out.positions, [[4.0, 2.0]])
        assert out.weights[0] == pytest.approx(0.1)

    def test_l_room_notch_crossings_projected_back(self, readme_l_room):
        # The L room lacks the block x < 5, y > 4. Three particles step into
        # it (the third across the notch corner) and come back onto its
        # nearest wall; one stays inside and one ends on a wall, which counts
        # as inside.
        start = np.array([[4.0, 3.9], [5.1, 5.0], [5.3, 3.8], [7.0, 2.0], [5.5, 6.0]])
        ps = ParticleSet(positions=start,
                         headings=np.array([math.pi / 2, math.pi, 3 * math.pi / 4, 0.0, math.pi]),
                         weights=np.full(5, 0.2))
        out = motion_update(ps, OdometryInput(0.5, 0.0), (0.0, 0.0),
                            np.random.default_rng(0), readme_l_room.boundary)
        diagonal = 0.5 * math.sqrt(0.5)
        assert np.allclose(out.positions, [[4.0, 4.0], [5.0, 5.0], [5.0, 3.8 + diagonal],
                                           [7.5, 2.0], [5.0, 6.0]])
        assert np.allclose(out.weights, [0.02, 0.02, 0.02, 0.2, 0.2])
        assert np.all(readme_l_room.boundary.contains_points(out.positions))


class TestMatchCost:
    def test_equal_tuples_zero(self):
        assert _match_cost_sq((3, 5, 9), (3, 5, 9)) == (0.0, 0)

    def test_single_offset(self):
        sq, unmatched = _match_cost_sq((4,), (5,))
        assert sq == 1.0 and unmatched == 0

    def test_unequal_sizes(self):
        sq, unmatched = _match_cost_sq((5,), (1, 5, 9))
        assert sq == 0.0 and unmatched == 2

    def test_monotone_is_optimal_vs_brute_force(self):
        import itertools
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = int(rng.integers(1, 5))
            q = int(rng.integers(p, 5))
            a = tuple(sorted(rng.integers(0, 12, p).tolist()))
            b = tuple(sorted(rng.integers(0, 12, q).tolist()))
            got_sq, got_un = _match_cost_sq(a, b)
            best = min(
                (sum(abs(x - y) for x, y in zip(a, comb)),
                 sum((x - y) ** 2 for x, y in zip(a, comb)))
                for comb in itertools.permutations(b, p)
            )
            assert got_un == q - p
            # the |.|-optimal monotone alignment also attains the brute-force
            # minimum; among those the squared total matches the best choice
            assert got_sq == best[1]


@pytest.fixture(scope="module")
def tracking_setup(small_room, small_grid):
    rng = np.random.default_rng(1234)
    pl = random_feasible(small_room, 9, 2, rng)
    masks = placement_masks(pl, small_grid, small_room)
    return pl, masks


class TestMeasurementLikelihood:
    def test_exact_match_weight_one(self, small_room, small_grid, tracking_setup):
        pl, masks = tracking_setup
        model = FingerprintModel(pl, masks, small_grid, small_room, 4)
        cell = len(small_grid) // 2
        fp = fingerprint(small_grid.centers[cell], pl, masks, small_grid, 4, small_room.r_res)
        w = _cell_likelihoods(np.array([cell]), fp, model)[0]
        assert w == pytest.approx(1.0)

    def test_one_bin_off(self, small_room, small_grid, tracking_setup):
        pl, masks = tracking_setup
        # sigma_r defaults to r_res
        model = FingerprintModel(pl, masks, small_grid, small_room, 4)
        cell = len(small_grid) // 2
        fp = fingerprint(small_grid.centers[cell], pl, masks, small_grid, 4, small_room.r_res)
        entries = list(fp.entries)
        entries[0] = (entries[0][0] + 1, entries[0][1])
        meas = Fingerprint(entries=tuple(sorted(entries)))
        w = _cell_likelihoods(np.array([cell]), meas, model)[0]
        assert w == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_true_pose_attains_max_weight(self, small_room, small_grid, tracking_setup):
        pl, masks = tracking_setup
        model = FingerprintModel(pl, masks, small_grid, small_room, 4)
        cell = 37
        fp = fingerprint(small_grid.centers[cell], pl, masks, small_grid, 4, small_room.r_res)
        weights = _cell_likelihoods(np.arange(len(small_grid)), fp, model)
        assert weights[cell] == pytest.approx(max(weights))

    def test_coverage_hole_floor(self, small_room, small_grid):
        pl = Placement(xy=[[2.0, 2.0]], types=[0], z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        model = FingerprintModel(pl, masks, small_grid, small_room, 4)
        meas = Fingerprint(entries=((10, 0), (11, 0), (12, 0), (13, 0)))
        cell = small_grid.nearest_element(np.array([[2.0, 2.0]]))
        w = _cell_likelihoods(cell, meas, model)[0]
        assert w == _WEIGHT_FLOOR


def _pairwise_likelihood(meas, expected, scale):
    """Weight of a measurement against one cell's expected entries (None: coverage hole)."""
    if expected is None:
        return _WEIGHT_FLOOR
    sq_sum, unmatched = 0.0, 0
    for t in (0, 1):
        s, u = _match_cost_sq(tuple(sorted(b for b, ty in meas.entries if ty == t)),
                              tuple(sorted(b for b, ty in expected if ty == t)))
        sq_sum += s
        unmatched += u
    return max(math.exp(-0.5 * scale * sq_sum) * _MISMATCH_FACTOR**unmatched, _WEIGHT_FLOOR)


class TestCellLikelihoods:
    @pytest.mark.parametrize("sigma_factor", [1.0, 1.7])
    def test_matches_pairwise_matching(self, oracle_room, sigma_factor):
        room = oracle_room
        grid = build_grid(room)
        rng = np.random.default_rng(43)
        m, n = 10, 4
        xy = sample_in_margin(room, m, rng)
        # type 0 on the left, type 1 on the right: cells near the side walls
        # expect one type only
        pl = Placement(xy=xy, types=xy[:, 0] > np.median(xy[:, 0]), z=room.z_l)
        # knocked-out mask entries leave coverage holes in every room
        masks = placement_masks(pl, grid, room) & (rng.random((m, len(grid))) < 0.7)
        sigma_r = sigma_factor * room.r_res
        model = FingerprintModel(pl, masks, grid, room, n, sigma_r)
        expected = []
        for c in grid.centers:
            try:
                expected.append(fingerprint(c, pl, masks, grid, n, room.r_res).entries)
            except CoverageError:
                expected.append(None)
        assert np.array_equal(model.valid, [e is not None for e in expected])
        assert 0 < model.valid.sum() < len(grid)
        assert {0, n} <= set(model.n_type0[model.valid].tolist())  # empty type groups
        cells = np.arange(len(grid))
        valid_cells = np.flatnonzero(model.valid)
        seen, identity_rows = set(), set()
        for trial in range(8):
            size = [n, n, n, n, 2, 3, 5, 1][trial]
            base = expected[int(rng.choice(valid_cells))]
            bins = [b for b, _ in base] * 2
            bins = np.array(bins[:size]) + rng.integers(-2, 3, size)
            types = [rng.integers(0, 2, size), np.zeros(size, int), np.ones(size, int)][trial % 3]
            meas = Fingerprint(entries=tuple(sorted(zip(bins.tolist(), types.tolist()))))
            got = _cell_likelihoods(cells, meas, model)
            want = [_pairwise_likelihood(meas, e, (1.0 / sigma_factor) ** 2) for e in expected]
            assert got.tolist() == want
            seen.update(want)
            # the closed form scores the rows whose type groups match the
            # measurement's in size, the matching recursion all the others
            same_split = model.n_type0[valid_cells] == size - types.sum()
            identity_rows.update((same_split & (size == n)).tolist())
        assert len(seen) > 20
        assert identity_rows == {True, False}


class TestFingerprintModel:
    def test_placement_smaller_than_fingerprint_has_no_valid_cell(self, small_room, small_grid):
        pl = Placement(xy=[[1.0, 1.0], [3.0, 1.0], [2.0, 3.0]], types=[0, 1, 0],
                       z=small_room.z_l)
        masks = placement_masks(pl, small_grid, small_room)
        assert masks.all()  # every cell sees all 3 reflectors
        model = FingerprintModel(pl, masks, small_grid, small_room, 4)
        assert not model.valid.any()


class TestResample:
    def test_equal_weights_identity_multiset(self):
        rng = np.random.default_rng(7)
        n = 64
        ps = ParticleSet(
            positions=rng.uniform(0, 4, (n, 2)),
            headings=rng.uniform(-3, 3, n),
            weights=np.full(n, 1.0 / n),
        )
        out = resample(ps, np.random.default_rng(0))
        assert out is ps  # ESS == n: no resampling triggered

    def test_degenerate_weight_takes_over(self):
        n = 32
        ps = ParticleSet(
            positions=np.arange(2 * n, dtype=float).reshape(n, 2),
            headings=np.zeros(n),
            weights=np.zeros(n),
        )
        ps.weights[5] = 1.0
        out = resample(ps, np.random.default_rng(1))
        assert np.all(out.positions == ps.positions[5])
        assert np.allclose(out.weights, 1.0 / n)

    def test_duplication_counts_bounded(self):
        rng = np.random.default_rng(9)
        n = 200
        w = rng.uniform(0, 1, n) ** 3
        w /= w.sum()
        ps = ParticleSet(
            positions=np.column_stack([np.arange(n, dtype=float), np.zeros(n)]),
            headings=np.zeros(n),
            weights=w.copy(),
        )
        out = resample(ps, np.random.default_rng(2))
        if out is ps:
            pytest.skip("ESS above threshold for this draw")
        ids = out.positions[:, 0].astype(int)
        counts = np.bincount(ids, minlength=n)
        for i in range(n):
            assert math.floor(n * w[i]) <= counts[i] <= math.ceil(n * w[i]) + 1

    def test_all_zero_weights_reset(self):
        n = 10
        ps = ParticleSet(
            positions=np.zeros((n, 2)),
            headings=np.zeros(n),
            weights=np.zeros(n),
        )
        with pytest.warns(UserWarning):
            out = resample(ps, np.random.default_rng(0))
        assert np.allclose(out.weights, 1.0 / n)


class TestEstimate:
    def test_single_particle(self):
        ps = ParticleSet(
            positions=np.array([[1.5, 2.5]]),
            headings=np.array([0.7]),
            weights=np.array([1.0]),
        )
        pose = estimate(ps)
        assert (pose.x, pose.y, pose.heading) == pytest.approx((1.5, 2.5, 0.7))

    def test_midpoint(self):
        ps = ParticleSet(
            positions=np.array([[0.0, 0.0], [2.0, 0.0]]),
            headings=np.array([0.0, 0.0]),
            weights=np.array([0.5, 0.5]),
        )
        pose = estimate(ps)
        assert (pose.x, pose.y) == pytest.approx((1.0, 0.0))

    def test_circular_mean_across_pi(self):
        ps = ParticleSet(
            positions=np.zeros((2, 2)),
            headings=np.array([math.radians(170), math.radians(-170)]),
            weights=np.array([0.5, 0.5]),
        )
        pose = estimate(ps)
        assert abs(pose.heading) == pytest.approx(math.pi, abs=1e-9)


class TestTrack:
    def test_empty_scenario_single_estimate(self, small_room, small_grid, tracking_setup):
        pl, masks = tracking_setup
        cfg = AmclConfig(n_particles=100)
        model = FingerprintModel(pl, masks, small_grid, small_room, cfg.n)
        fp = fingerprint(small_grid.centers[40], pl, masks, small_grid, 4, small_room.r_res)
        est = track([], small_room, model, cfg, np.random.default_rng(0), fp)
        assert len(est) == 1

    def test_weights_normalized_and_inside(self, small_room, small_grid, tracking_setup):
        from reflectopt.amcl import FingerprintModel, _weight_update, init_particles
        pl, masks = tracking_setup
        cfg = AmclConfig(n_particles=300)
        model = FingerprintModel(pl, masks, small_grid, small_room, cfg.n)
        rng = np.random.default_rng(3)
        ps = init_particles(small_room, 300, rng)
        from reflectopt.objectives import fingerprint as fp_of
        fp = fp_of(small_grid.centers[10], pl, masks, small_grid, 4, small_room.r_res)
        ps = _weight_update(ps, fp, model)
        assert ps.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(small_room.boundary.contains_points(ps.positions))

    def test_deterministic_under_seed(self, small_room, small_grid, tracking_setup):
        pl, masks = tracking_setup
        cfg = AmclConfig(n_particles=200)
        fp = fingerprint(small_grid.centers[40], pl, masks, small_grid, 4, small_room.r_res)
        scenario = [(OdometryInput(0.2, 0.0), fp) for _ in range(5)]
        model = FingerprintModel(pl, masks, small_grid, small_room, cfg.n)
        e1 = track(scenario, small_room, model, cfg, np.random.default_rng(11), fp)
        e2 = track(scenario, small_room, model, cfg, np.random.default_rng(11), fp)
        assert e1 == e2

    def test_noiseless_stationary_convergence(self, small_room, small_grid, tracking_setup):
        # a robot parked on a uniquely-fingerprinted cell, noiseless readings:
        # the estimate settles onto that cell within a few steps
        pl, masks = tracking_setup
        from reflectopt.objectives import fingerprint_table
        table = fingerprint_table(pl, masks, small_grid, 4, small_room.r_res)
        _, inv, counts = np.unique(table, axis=0, return_inverse=True, return_counts=True)
        unique_cells = np.flatnonzero(counts[inv.ravel()] == 1)
        assert unique_cells.size > 0
        cell = int(unique_cells[unique_cells.size // 2])
        c = small_grid.centers[cell]
        meas = fingerprint(c, pl, masks, small_grid, 4, small_room.r_res)
        cfg = AmclConfig(n_particles=1500, sigma_d=0.005, sigma_theta=math.radians(1.0))
        scenario = [(OdometryInput(0.0, 0.0), meas) for _ in range(10)]
        model = FingerprintModel(pl, masks, small_grid, small_room, cfg.n)
        est = track(scenario, small_room, model, cfg, np.random.default_rng(21), meas)
        final = est[-1]
        err = math.hypot(final.x - c[0], final.y - c[1])
        assert err <= small_room.grid_size
