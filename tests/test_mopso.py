import hashlib

import numpy as np
import pytest

from reflectopt import mopso
from reflectopt.geom import build_grid, in_margin
from reflectopt.mopso import (
    ParetoArchive,
    PsoConfig,
    SwarmParticle,
    dominates,
    downmutate,
    position_update,
    run,
    upmutate,
    velocity_update,
)
from reflectopt.placement import Placement, placement_masks, type_assignment
from reflectopt.repair import random_feasible, sample_in_margin


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
        arc.refresh_crowding()
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


def _particle(small_room, small_grid, seed=0, m=8):
    rng = np.random.default_rng(seed)
    pl = random_feasible(small_room, m, 2, rng, small_grid)
    return SwarmParticle(
        placement=pl,
        velocity=np.zeros((pl.m, 2)),
        objectives=(1.0, 1.0),
        pbest=pl,
        pbest_objectives=(1.0, 1.0),
    )


def _desk_config(**over):
    base = dict(
        swarm_size=8, iterations=3, m_max=12, m_init_range=(8, 10),
        n_types=2, seed=3, archive_capacity=20, snapshot_every=0,
    )
    base.update(over)
    return PsoConfig(**base)


class TestVelocityUpdate:
    def test_fixed_point(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        cfg = _desk_config()
        v = velocity_update(p, p.placement, cfg, np.random.default_rng(0), v_max=5.0)
        assert np.allclose(v, 0.0)

    def test_inertia_only(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        p.velocity = np.full((p.placement.m, 2), 0.25)
        cfg = _desk_config(w_range=(1.0, 1.0), c1_range=(0.0, 0.0), c2_range=(0.0, 0.0))
        v = velocity_update(p, p.placement, cfg, np.random.default_rng(0), v_max=5.0)
        assert np.allclose(v, 0.25)

    def test_hand_computed_single_reflector(self):
        pl = Placement(xy=[[1.0, 1.0]], types=[0], z=3.0)
        pbest = Placement(xy=[[2.0, 1.0]], types=[0], z=3.0)
        gbest = Placement(xy=[[1.0, 3.0]], types=[0], z=3.0)
        p = SwarmParticle(placement=pl, velocity=np.zeros((1, 2)),
                          objectives=(0, 0), pbest=pbest, pbest_objectives=(0, 0))
        # W=0.5, C1=C2=1, r1=r2=1 -> v = (pbest - x) + (gbest - x) = (1, 2)
        cfg = _desk_config(w_range=(0.5, 0.5), c1_range=(1.0, 1.0), c2_range=(1.0, 1.0))

        class OneRng:
            def uniform(self, lo=0.0, hi=1.0, size=None):
                return lo + (hi - lo) * 1.0 if size is None else np.full(size, hi)

            def random(self):
                return 1.0

        v = velocity_update(p, gbest, cfg, OneRng(), v_max=10.0)
        assert np.allclose(v, [[1.0, 2.0]])

    def test_v_max_clamp(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        far = Placement(xy=p.placement.xy + 100.0, types=p.placement.types, z=p.placement.z)
        cfg = _desk_config(c2_range=(2.0, 2.0))
        v = velocity_update(p, far, cfg, np.random.default_rng(2), v_max=0.75)
        assert np.max(np.abs(v)) <= 0.75 + 1e-12


class TestPositionUpdate:
    def test_zero_velocity_feasible_unchanged(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        cfg = _desk_config()
        out = position_update(p, small_room, small_grid, cfg.repair_config(),
                              np.random.default_rng(0), cfg.m_max)
        assert np.allclose(out.xy, p.placement.xy)

    def test_margin_restored(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        p.velocity = np.zeros((p.placement.m, 2))
        p.velocity[0] = [-10.0, 0.0]  # shove reflector 0 out of the room
        cfg = _desk_config()
        out = position_update(p, small_room, small_grid, cfg.repair_config(),
                              np.random.default_rng(0), cfg.m_max)
        assert np.all(in_margin(out.xy, small_room))

    def test_spacing_restored(self, small_room, small_grid):
        p = _particle(small_room, small_grid)
        p.velocity = np.zeros((p.placement.m, 2))
        p.velocity[0] = p.placement.xy[1] - p.placement.xy[0]  # collapse onto #1
        cfg = _desk_config()
        out = position_update(p, small_room, small_grid, cfg.repair_config(),
                              np.random.default_rng(0), cfg.m_max)
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

    def test_downmutate_restores_equal_split(self, small_room, small_grid):
        p = _particle(small_room, small_grid, m=9)  # types 5 + 4
        cfg = _desk_config(m_max=12)
        out = downmutate(p, small_room, small_grid, cfg, np.random.default_rng(0))
        if out.placement.m == 9:
            pytest.skip("repair failed after removal; mutation reverted")
        assert out.placement.m == 8
        assert (out.placement.types == 0).sum() == 4
        assert (out.placement.types == 1).sum() == 4
        assert len(out.velocity) == 8

    def test_downmutate_at_minimum_is_noop(self, small_room, small_grid):
        p = _particle(small_room, small_grid, m=4)
        cfg = _desk_config(m_max=12)
        out = downmutate(p, small_room, small_grid, cfg, np.random.default_rng(0))
        assert out is p

    def test_downmutate_never_repairs_below_coverage_floor(self, readme_l_room, monkeypatch):
        # README L room: coverage floor 12, so 12 -> 11 is skipped without a
        # repair, while 13 -> 12 still repairs
        grid = build_grid(readme_l_room)
        repaired_sizes = []

        def failing_repair(pl, *args, **kwargs):
            repaired_sizes.append(pl.m)
            return pl, False, 0

        monkeypatch.setattr(mopso, "repair", failing_repair)
        cfg = PsoConfig(m_max=16, m_init_range=(12, 14))
        rng = np.random.default_rng(0)
        for m in (12, 13):
            pl = Placement(xy=sample_in_margin(readme_l_room, m, rng),
                           types=type_assignment(m, 2), z=readme_l_room.z_l)
            p = SwarmParticle(placement=pl, velocity=np.zeros((m, 2)), objectives=(1.0, 1.0),
                              pbest=pl, pbest_objectives=(1.0, 1.0))
            assert downmutate(p, readme_l_room, grid, cfg, rng) is p
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
        out = downmutate(p, small_room, small_grid, cfg, np.random.default_rng(0))
        if out.placement.m == 9:
            pytest.skip("repair failed after removal; mutation reverted")
        kept = {tuple(r) for r in np.round(out.placement.xy, 12)}
        assert tuple(np.round(pl.xy[expect], 12)) not in kept


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

    def test_velocity_length_tracks_placement(self, small_room, small_grid):
        cfg = _desk_config(iterations=4, p_up=0.4, p_down=0.4)
        archive, _ = run(small_room, cfg)  # check_dimensions asserts inside
        assert len(archive) >= 1

    def test_permutation_invariant_objectives(self, small_room, small_grid):
        rng = np.random.default_rng(77)
        placements = [random_feasible(small_room, 8, 2, rng, small_grid) for _ in range(6)]
        shuffled = []
        shuffle_rng = np.random.default_rng(88)
        for pl in placements:
            perm = shuffle_rng.permutation(pl.m)
            shuffled.append(Placement(xy=pl.xy[perm], types=pl.types[perm], z=pl.z))
        cfg = _desk_config(swarm_size=6, iterations=3)
        a1, _ = run(small_room, cfg, initial_placements=placements)
        a2, _ = run(small_room, cfg, initial_placements=shuffled)
        assert sorted((e.f1, round(e.f2, 9)) for e in a1.entries) == sorted(
            (e.f1, round(e.f2, 9)) for e in a2.entries
        )

    def test_seeded_l_room_run_is_unchanged(self, readme_l_room):
        # A concave room (coverage floor 12), with up- and down-mutations.
        cfg = PsoConfig(swarm_size=4, iterations=3, m_max=16, m_init_range=(12, 14),
                        p_up=0.2, p_down=0.2, seed=3)
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
            "c0b5391419d4a32f877e2a4246d084c986efbc17925b41a29928f43779fe5abc")

    def test_snapshot_callback_invoked(self, small_room):
        seen = []
        cfg = _desk_config(iterations=4, snapshot_every=2)
        run(small_room, cfg, snapshot_cb=lambda it, arc: seen.append((it, len(arc))))
        assert [it for it, _ in seen] == [2, 4]
