import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectopt import mopso
from reflectopt.geom import build_grid, in_margin
from reflectopt.mopso import (
    ParetoArchive,
    _crowding_distances,
    PsoConfig,
    SwarmParticle,
    dominates,
    downmutate,
    position_update,
    run,
    upmutate,
    velocity_update,
)
from reflectopt.objectives import evaluate
from reflectopt.placement import Placement, placement_masks, type_assignment
from reflectopt.repair import random_feasible, sample_in_margin
from conftest import spy_build_grid


class TestDominates:
    def test_strictly_better_both(self):
        assert dominates((1, 2), (2, 3))

    def test_equal_does_not_dominate(self):
        assert not dominates((1, 2), (1, 2))

    def test_trade_off_pair(self):
        assert not dominates((1, 3), (2, 1))
        assert not dominates((2, 1), (1, 3))

    def test_better_in_one_equal_other(self):
        assert dominates((1, 2), (1, 3))


class TestArchive:
    def test_domination_eviction(self):
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        arc = ParetoArchive(capacity=10)
        arc.update(pl, 2, 2)
        arc.update(pl, 1, 1)
        assert [(e.f1, e.f2) for e in arc.entries] == [(1, 1)]

    def test_mutual_nondomination_retained(self):
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        arc = ParetoArchive(capacity=10)
        arc.update(pl, 2, 1)
        arc.update(pl, 1, 2)
        assert len(arc) == 2

    def test_dominated_candidate_rejected(self):
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        arc = ParetoArchive(capacity=10)
        arc.update(pl, 1, 1)
        assert not arc.update(pl, 2, 2)
        assert len(arc) == 1

    def test_pairwise_nondomination_after_random_inserts(self):
        rng = np.random.default_rng(5)
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        arc = ParetoArchive(capacity=25)
        for _ in range(300):
            arc.update(pl, int(rng.integers(0, 50)), float(rng.uniform(0, 50)))
        objs = [e.objectives for e in arc.entries]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not dominates(a, b)
        assert len(arc) <= 25

    def test_truncation_preserves_extremes(self):
        rng = np.random.default_rng(6)
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        arc = ParetoArchive(capacity=5)
        best_f1, best_f2 = np.inf, np.inf
        for _ in range(200):
            f1 = int(rng.integers(0, 1000))
            f2 = float(1000 - f1 + rng.uniform(0, 1))  # rough trade-off line
            arc.update(pl, f1, f2)
            best_f1 = min(best_f1, min(e.f1 for e in arc.entries))
            best_f2 = min(best_f2, min(e.f2 for e in arc.entries))
            assert min(e.f1 for e in arc.entries) <= best_f1
            assert min(e.f2 for e in arc.entries) <= best_f2

    def test_truncation_drops_most_crowded(self):
        # crowding: the ends inf, (4, 6) and (6, 4) 1.0, (5, 5) 0.4
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        arc = ParetoArchive(capacity=4)
        for f1, f2 in [(0, 10), (4, 6), (5, 5), (6, 4), (10, 0)]:
            arc.update(pl, f1, f2)
        assert [e.objectives for e in arc.entries] == [(0, 10), (4, 6), (6, 4), (10, 0)]

    def test_select_leader_singleton(self):
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        arc = ParetoArchive(capacity=5)
        arc.update(pl, 1, 1)
        assert arc.select_leader(np.random.default_rng(0)) is pl

    def test_select_leader_prefers_crowding(self):
        pls = [Placement(xy=[[float(i), 1.0]], types=[0], z=3.0) for i in range(5)]
        arc = ParetoArchive(capacity=10)
        # non-dominated set with one crowded interior cluster
        pts = [(0, 100), (25, 75), (26, 74), (27, 73), (100, 0)]
        for pl, (f1, f2) in zip(pls, pts):
            arc.update(pl, f1, f2)
        rng = np.random.default_rng(1)
        counts = {i: 0 for i in range(5)}
        id_of = {id(e.placement): i for i, e in enumerate(arc.entries)}
        for _ in range(10_000):
            counts[id_of[id(arc.select_leader(rng))]] += 1
        # boundary entries carry infinite crowding: picked far more often
        assert counts[0] + counts[4] > counts[1] + counts[2] + counts[3]

    def test_empty_archive_leader_error(self):
        arc = ParetoArchive(capacity=4)
        with pytest.raises(ValueError):
            arc.select_leader(np.random.default_rng(0))

    # few distinct values, so tied objectives and duplicate points are common
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12),
           st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12).map(lambda k: k / 4)),
                    max_size=60))
    def test_random_insert_streams(self, capacity, stream):
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        arc = ParetoArchive(capacity=capacity)
        for k, (f1, f2) in enumerate(stream):
            arc.update(pl, f1, f2)
            objs = [e.objectives for e in arc.entries]
            assert len(objs) <= capacity
            assert not any(dominates(a, b) for a in objs for b in objs)
            assert min(a for a, _ in objs) == min(a for a, _ in stream[:k + 1])
            assert min(b for _, b in objs) == min(b for _, b in stream[:k + 1])


def _crowding_reference(objectives):
    """Crowding distances by the per-point loop, skipping points already at inf."""
    n = len(objectives)
    if n <= 2:
        return [math.inf] * n
    crowd = [0.0] * n
    for k in range(len(objectives[0])):
        order = sorted(range(n), key=lambda i: objectives[i][k])  # stable
        vals = [float(objectives[i][k]) for i in order]
        span = vals[-1] - vals[0]
        crowd[order[0]] = crowd[order[-1]] = math.inf
        if span > 0:
            for pos in range(1, n - 1):
                if math.isfinite(crowd[order[pos]]):
                    crowd[order[pos]] += (vals[pos + 1] - vals[pos - 1]) / span
    return crowd


class TestCrowdingDistances:
    @pytest.mark.parametrize("objectives", [
        [], [(1.0, 2.0)], [(1.0, 2.0), (3.0, 0.5)],
        [(2.0, 2.0)] * 4,  # zero span in both objectives
        [(1.0, 5.0), (2.0, 5.0), (3.0, 5.0), (4.0, 5.0)],  # zero span in f2
        [(0.0, 4.0), (1.0, 3.0), (1.0, 3.0), (1.0, 3.0), (4.0, 0.0)],  # duplicates
        [(0.0, 100.0), (25.0, 75.0), (26.0, 74.0), (27.0, 73.0), (100.0, 0.0)],
    ], ids=["n0", "n1", "n2", "zero_spans", "zero_f2_span", "duplicates", "crowded"])
    def test_matches_reference_cases(self, objectives):
        assert _crowding_distances(objectives).tolist() == _crowding_reference(objectives)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6).map(lambda k: k * 0.3)),
                    max_size=14))
    def test_matches_reference(self, objectives):
        assert _crowding_distances(objectives).tolist() == _crowding_reference(objectives)


def _particle(small_room, small_grid, seed=0, m=8):
    rng = np.random.default_rng(seed)
    pl = random_feasible(small_room, m, 2, rng)
    return SwarmParticle(
        placement=pl,
        velocity=np.zeros((pl.m, 2)),
        masks=placement_masks(pl, small_grid, small_room, strict=False),
        pbest=pl,
        pbest_objectives=(1.0, 1.0),
    )


def _desk_config(**over):
    base = dict(
        swarm_size=8, iterations=3, m_max=12, m_init_range=(8, 10),
        n_types=2, seed=3, snapshot_every=0,
    )
    base.update(over)
    return PsoConfig(**base)


class TestVelocityUpdate:
    def test_fixed_point(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        cfg = _desk_config()
        v = velocity_update(p, p.placement, cfg, np.random.default_rng(0), v_max=5.0)
        assert np.allclose(v, 0.0)

    def test_inertia_only(self, small_room, small_grid, monkeypatch):
        p = _particle(small_room, small_grid)
        p.velocity = np.full((p.placement.m, 2), 0.25)
        monkeypatch.setattr(mopso, "_W_RANGE", (1.0, 1.0))
        monkeypatch.setattr(mopso, "_C1_RANGE", (0.0, 0.0))
        monkeypatch.setattr(mopso, "_C2_RANGE", (0.0, 0.0))
        cfg = _desk_config()
        v = velocity_update(p, p.placement, cfg, np.random.default_rng(0), v_max=5.0)
        assert np.allclose(v, 0.25)

    def test_hand_computed_single_reflector(self, monkeypatch):
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        pbest = Placement(xy=[[2.0, 1.0]], types=[0], z=3.0)
        gbest = Placement(xy=[[1.0, 3.0]], types=[0], z=3.0)
        p = SwarmParticle(placement=pl, velocity=np.zeros((1, 2)),
                          masks=np.zeros((1, 0), dtype=bool),  # velocity_update reads none
                          pbest=pbest, pbest_objectives=(0, 0))
        # W=0.5, C1=C2=1, r1=r2=1 -> v = (pbest - x) + (gbest - x) = (1, 2)
        monkeypatch.setattr(mopso, "_W_RANGE", (0.5, 0.5))
        monkeypatch.setattr(mopso, "_C1_RANGE", (1.0, 1.0))
        monkeypatch.setattr(mopso, "_C2_RANGE", (1.0, 1.0))
        cfg = _desk_config()

        class OneRng:
            def uniform(self, lo=0.0, hi=1.0, size=None):
                return lo + (hi - lo) * 1.0 if size is None else np.full(size, hi)

            def random(self):
                return 1.0

        v = velocity_update(p, gbest, cfg, OneRng(), v_max=10.0)
        assert np.allclose(v, [[1.0, 2.0]])

    def test_v_max_clamp(self, small_room, small_grid, monkeypatch):
        p = _particle(small_room, small_grid)
        far = Placement(xy=p.placement.xy + 100.0, types=p.placement.types, z=p.placement.z)
        monkeypatch.setattr(mopso, "_C2_RANGE", (2.0, 2.0))
        cfg = _desk_config()
        v = velocity_update(p, far, cfg, np.random.default_rng(2), v_max=0.75)
        assert np.max(np.abs(v)) <= 0.75 + 1e-12


class TestPositionUpdate:
    def test_zero_velocity_feasible_unchanged(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        cfg = _desk_config()
        out, masks = position_update(p, small_room, cfg.eval_config(), np.random.default_rng(0))
        assert np.allclose(out.xy, p.placement.xy)
        assert np.array_equal(masks, placement_masks(out, small_grid, small_room, strict=False))

    def test_margin_restored(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        p.velocity = np.zeros((p.placement.m, 2))
        p.velocity[0] = [-10.0, 0.0]  # shove reflector 0 out of the room
        cfg = _desk_config()
        out, masks = position_update(p, small_room, cfg.eval_config(), np.random.default_rng(0))
        assert np.all(in_margin(out.xy, small_room))
        assert np.array_equal(masks, placement_masks(out, small_grid, small_room, strict=False))

    def test_spacing_restored(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        p.velocity = np.zeros((p.placement.m, 2))
        p.velocity[0] = p.placement.xy[1] - p.placement.xy[0]  # collapse onto #1
        cfg = _desk_config()
        out, masks = position_update(p, small_room, cfg.eval_config(), np.random.default_rng(0))
        assert np.array_equal(masks, placement_masks(out, small_grid, small_room, strict=False))
        diff = out.xy[:, None, :] - out.xy[None, :, :]
        dist = np.sqrt((diff ** 2).sum(-1))
        iu = np.triu_indices(out.m, 1)
        assert dist[iu].min() >= cfg.d_min - 1e-9


class TestMutations:
    def test_upmutate_at_cap_is_noop(self, small_room, small_grid):
        p = _particle(small_room, small_grid, m=8)
        cfg = _desk_config(m_max=8, m_init_range=(8, 8))
        out = upmutate(p, small_room, cfg, np.random.default_rng(0), v_max=1.0)
        assert out.placement.m == 8
        assert out is p

    def test_upmutate_restores_equal_split(self, small_room, small_grid):
        p = _particle(small_room, small_grid, m=8)  # types 4 + 4
        cfg = _desk_config(m_max=12)
        out = upmutate(p, small_room, cfg, np.random.default_rng(0), v_max=1.0)
        assert out.placement.m == 9
        assert (out.placement.types == 0).sum() == 5
        assert (out.placement.types == 1).sum() == 4
        assert len(out.velocity) == 9
        assert np.max(np.abs(out.velocity[-1])) <= 1.0
        assert np.array_equal(out.masks, placement_masks(out.placement, small_grid, small_room,
                                                         strict=False))

    def test_downmutate_restores_equal_split(self, small_room, small_grid):
        p = _particle(small_room, small_grid, m=9)  # types 5 + 4
        cfg = _desk_config(m_max=12)
        out = downmutate(p, small_room, cfg, np.random.default_rng(0))
        if out.placement.m == 9:
            pytest.skip("repair failed after removal; mutation reverted")
        assert out.placement.m == 8
        assert (out.placement.types == 0).sum() == 4
        assert (out.placement.types == 1).sum() == 4
        assert len(out.velocity) == 8
        assert np.array_equal(out.masks, placement_masks(out.placement, small_grid, small_room,
                                                         strict=False))

    def test_downmutate_at_minimum_is_noop(self, small_room, small_grid):
        p = _particle(small_room, small_grid, m=4)
        cfg = _desk_config(m_max=12)
        out = downmutate(p, small_room, cfg, np.random.default_rng(0))
        assert out is p

    def test_downmutate_never_repairs_below_coverage_floor(self, readme_l_room, monkeypatch):
        # README L room: coverage floor 12, so 12 -> 11 is skipped without a
        # repair, while 13 -> 12 still repairs
        grid = build_grid(readme_l_room)
        repaired_sizes = []

        def failing_repair(pl, *args, **kwargs):
            repaired_sizes.append(pl.m)
            return pl, False, 0, None

        monkeypatch.setattr(mopso, "_repair", failing_repair)
        cfg = PsoConfig(m_max=16, m_init_range=(12, 14))
        rng = np.random.default_rng(0)
        for m in (12, 13):
            pl = Placement(xy=sample_in_margin(readme_l_room, m, rng),
                           types=type_assignment(m, 2), z=readme_l_room.z_l)
            p = SwarmParticle(placement=pl, velocity=np.zeros((m, 2)),
                              masks=placement_masks(pl, grid, readme_l_room, strict=False),
                              pbest=pl, pbest_objectives=(1.0, 1.0))
            assert downmutate(p, readme_l_room, cfg, rng) is p
        assert repaired_sizes == [12]

    def test_downmutate_uniform_visibility_targets_grid_centroid(self, small_room, small_grid):
        # wide cone: every reflector sees every element, the max-count
        # component is the whole grid, so removal is nearest the grid centroid
        p = _particle(small_room, small_grid, m=9)
        cfg = _desk_config(m_max=12, n_types=1)
        pl = Placement(xy=p.placement.xy, types=type_assignment(9, 1), z=p.placement.z)
        p.placement = pl
        masks = placement_masks(pl, small_grid, small_room)
        assert masks.all()
        centroid = small_grid.xy.mean(axis=0)
        expect = int(np.argmin(np.linalg.norm(pl.xy - centroid, axis=1)))
        out = downmutate(p, small_room, cfg, np.random.default_rng(0))
        if out.placement.m == 9:
            pytest.skip("repair failed after removal; mutation reverted")
        kept = {tuple(r) for r in np.round(out.placement.xy, 12)}
        assert tuple(np.round(pl.xy[expect], 12)) not in kept

    @pytest.mark.parametrize("types, removed", [
        ([0, 0, 0, 0, 0, 0], 0),  # one type: the reflector nearest the lower block
        ([1, 0, 1, 0, 0, 1], 3),  # 3 + 3: a type-0 reflector goes, the nearest is (2.0, 1.0)
    ], ids=["size_tie", "type_tie"])
    def test_downmutate_ties(self, small_room, small_grid, monkeypatch, types, removed):
        # two 2 x 2 blocks share the top count 2; the one with the lowest
        # element index (lower left, centroid (0.25, 0.25)) counts as the largest
        xy = np.array([[0.6, 0.6], [3.4, 3.4], [2.0, 2.5], [2.0, 1.0], [1.2, 2.2], [3.0, 2.0]])
        row, col = np.argwhere(small_grid.cell_index >= 0).T
        masks = np.zeros((6, len(small_grid)), dtype=bool)
        masks[0] = True
        masks[1] = ((row < 2) & (col < 2)) | ((row >= 14) & (col >= 14))
        reduced = []

        def failing_repair(pl, *args, **kwargs):
            reduced.append(pl)
            return pl, False, 0, None

        monkeypatch.setattr(mopso, "_repair", failing_repair)
        pl = Placement(xy=xy, types=types, z=small_room.z_l)
        p = SwarmParticle(placement=pl, velocity=np.zeros((6, 2)), masks=masks,
                          pbest=pl, pbest_objectives=(1.0, 1.0))
        cfg = _desk_config(m_max=12, n_types=1 + max(types))
        assert downmutate(p, small_room, cfg, np.random.default_rng(0)) is p
        assert np.array_equal(reduced[0].xy, np.delete(xy, removed, axis=0))


class TestCheckDimensions:
    @pytest.mark.parametrize("field", ["velocity", "masks"])
    def test_length_differs_from_placement_size(self, small_room, small_grid, field):
        p = _particle(small_room, small_grid)
        p.check_dimensions()
        setattr(p, field, getattr(p, field)[:-1])
        with pytest.raises(AssertionError, match="diverged from placement size"):
            p.check_dimensions()


class TestRun:
    def test_zero_iterations_archive_is_initial_front(self, small_room):
        cfg = _desk_config(iterations=0)
        archive, log = run(small_room, cfg)
        assert len(log) == 1
        assert len(archive) >= 1
        objs = [e.objectives for e in archive.entries]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not dominates(a, b)

    def test_seed_determinism(self, small_room):
        cfg = _desk_config()
        a1, log1 = run(small_room, cfg)
        a2, log2 = run(small_room, cfg)
        assert [(e.f1, e.f2) for e in a1.entries] == [(e.f1, e.f2) for e in a2.entries]
        assert log1 == log2
        for e1, e2 in zip(a1.entries, a2.entries):
            assert e1.placement == e2.placement

    def test_best_trajectories_non_increasing(self, small_room):
        cfg = _desk_config(iterations=6)
        _, log = run(small_room, cfg)
        f1s = [rec.best_f1 for rec in log]
        f2s = [rec.best_f2 for rec in log]
        assert all(a >= b for a, b in zip(f1s, f1s[1:]))
        assert all(a >= b for a, b in zip(f2s, f2s[1:]))

    def test_room_with_built_grid_builds_none(self, small_room, monkeypatch):
        room = dataclasses.replace(small_room)
        grid = room.grid
        builds = spy_build_grid(monkeypatch)
        archive, _ = run(room, _desk_config(iterations=1))
        assert builds == [] and room.grid is grid and len(archive) >= 1

    def test_velocity_length_tracks_placement(self, small_room, small_grid, monkeypatch):
        monkeypatch.setattr(mopso, "_P_UP", 0.4)
        monkeypatch.setattr(mopso, "_P_DOWN", 0.4)
        cfg = _desk_config(iterations=4)
        archive, _ = run(small_room, cfg)  # check_dimensions asserts inside
        assert len(archive) >= 1

    def test_permutation_invariant_objectives(self, small_room, small_grid, monkeypatch):
        rng = np.random.default_rng(77)
        placements = [random_feasible(small_room, 8, 2, rng) for _ in range(6)]
        shuffled = []
        shuffle_rng = np.random.default_rng(88)
        for pl in placements:
            perm = shuffle_rng.permutation(pl.m)
            shuffled.append(Placement(xy=pl.xy[perm], types=pl.types[perm], z=pl.z))
        cfg = _desk_config(swarm_size=6, iterations=3)

        def run_from(initial):
            # the swarm's initial placements, in order; both runs draw the same sizes
            draws = iter(initial)
            monkeypatch.setattr(mopso, "random_feasible", lambda *args: next(draws))
            return run(small_room, cfg)

        a1, _ = run_from(placements)
        a2, _ = run_from(shuffled)
        assert sorted((e.f1, round(e.f2, 9)) for e in a1.entries) == sorted(
            (e.f1, round(e.f2, 9)) for e in a2.entries
        )

    def test_seeded_l_room_run_is_unchanged(self, readme_l_room, monkeypatch):
        # A concave room (coverage floor 12), with up- and down-mutations.
        monkeypatch.setattr(mopso, "_P_UP", 0.2)
        monkeypatch.setattr(mopso, "_P_DOWN", 0.2)
        cfg = PsoConfig(swarm_size=4, iterations=3, m_max=16, m_init_range=(12, 14), seed=3)
        archive, log = run(readme_l_room, cfg)
        assert [(r.iteration, r.best_f1, r.best_f2, r.archive_size, r.evaluations)
                for r in log] == [
            (0, 252, 87.228023947478, 3, 4), (1, 252, 80.3541912576645, 5, 8),
            (2, 252, 63.997182958411706, 7, 12), (3, 252, 56.885706907010615, 7, 16),
        ]
        assert [(e.placement.m, e.f1, e.f2) for e in archive.entries] == [
            (14, 432, 87.228023947478), (12, 252, 142.10581784166786),
            (15, 452, 80.3541912576645), (15, 515, 63.997182958411706),
            (15, 509, 68.13960963696196), (16, 523, 56.885706907010615),
            (13, 329, 94.33170751431813),
        ]
        xy_bytes = b"".join(e.placement.xy.tobytes() for e in archive.entries)
        assert hashlib.sha256(xy_bytes).hexdigest() == (
            "8c4abf11a2f803a701c1be8db442f63f7caecf8be80193c2d3c9c6fa99ade75a")

    # seed 6 with mutations: 2 reflectors added and 3 removed
    @pytest.mark.parametrize("p_mutate, seed", [(0.0, 3), (0.2, 6)],
                             ids=["no_mutations", "mutations"])
    def test_masks_built_once_per_placement(self, readme_l_room, monkeypatch, p_mutate, seed):
        # A particle carries its placement's masks: repair hands them on after
        # a move and after a removal, and an added reflector appends its own
        # row. So only the initial placements have all their masks built, and
        # every other build is the single row of an up-mutation.
        monkeypatch.setattr(mopso, "_P_UP", p_mutate)
        monkeypatch.setattr(mopso, "_P_DOWN", p_mutate)
        built = []
        original = mopso.placement_masks

        def counting(pl, *args, **kwargs):
            built.append(pl.m)
            return original(pl, *args, **kwargs)

        changed = {"upmutate": 0, "downmutate": 0}

        def spy(name):
            mutate = getattr(mopso, name)

            def spied(p, *args, **kwargs):
                out = mutate(p, *args, **kwargs)
                changed[name] += out.placement is not p.placement
                return out

            monkeypatch.setattr(mopso, name, spied)

        def scored(pl, room, grid, masks, cfg):
            assert np.array_equal(masks, placement_masks(pl, grid, room, strict=False))
            return evaluate(pl, room, grid, masks, cfg)

        monkeypatch.setattr(mopso, "placement_masks", counting)
        spy("upmutate")
        spy("downmutate")
        monkeypatch.setattr(mopso, "evaluate", scored)
        cfg = PsoConfig(swarm_size=4, iterations=3, m_max=16, m_init_range=(12, 14), seed=seed)
        _, log = run(readme_l_room, cfg)
        assert log[-1].evaluations == 16
        assert len([m for m in built if m > 1]) == cfg.swarm_size
        assert built[cfg.swarm_size:] == [1] * changed["upmutate"]
        if p_mutate:
            assert changed["upmutate"] and changed["downmutate"]

    def test_snapshot_callback_invoked(self, small_room):
        seen = []
        cfg = _desk_config(iterations=4, snapshot_every=2)
        run(small_room, cfg, snapshot_cb=lambda it, arc: seen.append((it, len(arc))))
        assert [it for it, _ in seen] == [2, 4]
