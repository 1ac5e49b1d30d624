import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reflectopt
from reflectopt.assign import align_leader, hungarian
from reflectopt.placement import Placement


def brute_force_min_cost(cost):
    """Exhaustive oracle over all column permutations."""
    cost = np.asarray(cost, float)
    n, m = cost.shape
    best = np.inf
    for perm in itertools.permutations(range(m), n):
        total = sum(cost[i, perm[i]] for i in range(n))
        best = min(best, total)
    return best


class TestHungarian:
    def test_diagonal_optimal(self):
        assert hungarian([[1, 2], [2, 1]]).tolist() == [0, 1]

    def test_swap_optimal(self):
        # enumerating both permutations: identity costs 7, swap costs 3
        assert hungarian([[4, 1], [2, 3]]).tolist() == [1, 0]

    def test_random_6x6_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            cost = rng.integers(0, 50, size=(6, 6)).astype(float)
            cols = hungarian(cost)
            total = cost[np.arange(6), cols].sum()
            assert total == brute_force_min_cost(cost)

    def test_rectangular(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, m = rng.integers(1, 5), rng.integers(5, 7)
            cost = rng.uniform(0, 10, size=(n, m))
            cols = hungarian(cost)
            assert len(set(cols.tolist())) == n  # injective
            total = cost[np.arange(n), cols].sum()
            assert total == pytest.approx(brute_force_min_cost(cost), rel=1e-12)

    def test_tie_break_prefers_unassigned_column_in_reverse_scan(self):
        # Among columns at equal distance, the scan from the last column to
        # the first keeps the last unassigned one it meets. With all costs
        # equal, each row in turn takes the lowest free column.
        assert hungarian(np.ones((3, 3))).tolist() == [0, 1, 2]
        assert hungarian(np.ones((2, 2))).tolist() == [0, 1]
        # Not the lexicographically smallest optimum, which is [1, 2, 0]:
        # row 0 takes its zero in column 2 first, and the later rows keep it.
        cost = [[1, 1, 0], [1, 1, 0], [0, 1, 1]]
        assert brute_force_min_cost(cost) == 1
        assert hungarian(cost).tolist() == [2, 1, 0]

    def test_optimality_never_worse_than_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            cost = rng.uniform(0, 5, size=(5, 5))
            cols = hungarian(cost)
            assert cost[np.arange(5), cols].sum() <= np.trace(cost) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.empty((0, 0)))

    def test_more_rows_than_cols_rejected(self):
        with pytest.raises(ValueError):
            hungarian(np.ones((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        cost = np.ones((3, 4))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            hungarian(cost)

    def test_one_dimensional_rejected(self):
        with pytest.raises(ValueError, match="2D"):
            hungarian(np.ones(4))

    @pytest.mark.parametrize("seed, kind",
                             enumerate(["small_int", "uniform", "squared_distance"]))
    def test_same_columns_as_scipy(self, seed, kind):
        # scipy runs the same method with the same scan order and tie rule,
        # so every column, not only the total cost, must agree
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(seed)
        for _ in range(1000):
            n = int(rng.integers(1, 25))
            m = n + int(rng.integers(0, 5))
            if kind == "small_int":  # many tied optima
                cost = rng.integers(0, 4, size=(n, m)).astype(float)
            elif kind == "uniform":
                cost = rng.uniform(0.0, 1.0, size=(n, m))
            else:  # what align_leader sends
                diff = rng.uniform(0, 10, size=(n, 1, 2)) - rng.uniform(0, 10, size=(1, m, 2))
                cost = np.einsum("ijk,ijk->ij", diff, diff)
            assert hungarian(cost).tolist() == linear_sum_assignment(cost)[1].tolist()


def _pl(xy, types=None, z=3.0):
    xy = np.asarray(xy, float)
    if types is None:
        types = np.zeros(len(xy), int)
    return Placement(xy=xy, types=np.asarray(types), z=z)


class TestAlignLeader:
    def test_reversed_leader_recovered(self):
        xy = np.array([[0.0, 0.0], [2.0, 1.0], [5.0, 4.0]])
        particle = _pl(xy)
        leader = _pl(xy[::-1])
        aligned = align_leader(particle, leader, type_constrained=False)
        assert np.allclose(aligned, xy)

    def test_swap_beats_identity(self):
        particle = _pl([[0.0, 0.0], [5.0, 5.0]])
        leader = _pl([[5.1, 5.1], [0.1, 0.1]])
        aligned = align_leader(particle, leader, type_constrained=False)
        assert np.allclose(aligned, [[0.1, 0.1], [5.1, 5.1]])
        summed = np.linalg.norm(aligned - particle.xy, axis=1).sum()
        assert summed == pytest.approx(2 * np.hypot(0.1, 0.1))

    def test_type_constraint_forbids_cross_match(self):
        particle = _pl([[0.0, 0.0], [1.0, 0.0]], types=[0, 1])
        # leader: type 0 far away, type 1 very close to particle's type-0 slot
        leader = _pl([[10.0, 0.0], [0.1, 0.0]], types=[0, 1])
        aligned = align_leader(particle, leader, type_constrained=True)
        assert np.allclose(aligned[0], [10.0, 0.0])  # same-type match only
        assert np.allclose(aligned[1], [0.1, 0.0])
        free = align_leader(particle, leader, type_constrained=False)
        assert np.allclose(free[0], [0.1, 0.0])  # unconstrained may cross

    def test_surplus_leader_reflectors_dropped(self):
        particle = _pl([[0.0, 0.0]])
        leader = _pl([[3.0, 0.0], [0.2, 0.0]])
        aligned = align_leader(particle, leader, type_constrained=False)
        assert np.allclose(aligned, [[0.2, 0.0]])

    def test_missing_leader_reflectors_self_anchor(self):
        particle = _pl([[0.0, 0.0], [4.0, 4.0], [8.0, 0.0]])
        leader = _pl([[4.1, 4.1]])
        aligned = align_leader(particle, leader, type_constrained=False)
        assert np.allclose(aligned[1], [4.1, 4.1])
        assert np.allclose(aligned[0], particle.xy[0])
        assert np.allclose(aligned[2], particle.xy[2])

    def test_leader_permutation_invariant_cost(self):
        rng = np.random.default_rng(3)
        xy_p = rng.uniform(0, 10, size=(6, 2))
        xy_l = rng.uniform(0, 10, size=(6, 2))
        types = np.array([0, 1] * 3)
        particle = _pl(xy_p, types)
        base = align_leader(particle, _pl(xy_l, types), type_constrained=True)
        base_cost = np.linalg.norm(base - xy_p, axis=1).sum()
        for _ in range(10):
            perm = rng.permutation(6)
            leader = _pl(xy_l[perm], types[perm])
            aligned = align_leader(particle, leader, type_constrained=True)
            cost = np.linalg.norm(aligned - xy_p, axis=1).sum()
            assert cost == pytest.approx(base_cost, rel=1e-12)

    def test_equal_groups_match_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            xy_p = rng.uniform(0, 5, size=(k, 2))
            xy_l = rng.uniform(0, 5, size=(k, 2))
            particle = _pl(xy_p)
            leader = _pl(xy_l)
            aligned = align_leader(particle, leader, type_constrained=False)
            got = np.einsum("ij,ij->", aligned - xy_p, aligned - xy_p)
            best = min(
                sum(np.sum((xy_p[i] - xy_l[p[i]]) ** 2) for i in range(k))
                for p in itertools.permutations(range(k))
            )
            assert got == pytest.approx(best, rel=1e-12)

    def test_loads_no_numpy_ma(self):
        # np.unique loads numpy.ma on first use, about 1.2 MB resident in optimize
        probe = ("import sys; import numpy as np; from reflectopt.assign import align_leader; "
                 "from reflectopt.placement import Placement; "
                 "pl = Placement(xy=[[0.0, 0.0], [1.0, 0.0]], types=[0, 1], z=3.0); "
                 "align_leader(pl, pl, type_constrained=True); print('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(reflectopt.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.stdout.split() == ["False"]
