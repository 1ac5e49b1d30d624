import ast
import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import reflectopt
from reflectopt import files, mopso
from reflectopt.amcl import AmclConfig
from reflectopt.cli import main
from reflectopt.geom import Polygon, RoomModel, build_grid
from reflectopt.harness import BURN_IN, NoiseConfig, PathConfig
from reflectopt.mopso import PsoConfig
from reflectopt.objectives import EvalConfig, evaluate
from reflectopt.placement import Placement, placement_masks, type_assignment
from reflectopt.repair import random_feasible
from conftest import L_ROOM_PLACEMENT_B_XY, L_ROOM_PLACEMENT_XY

ROOM_SECTION = """\
[room]
grid_size = 0.25
z_r = 0.5
z_l = 4.5
r_res = 0.075
cone_half_angle_deg = 60.0
wall_margin = 0.5

[vertices]
0.0 0.0
4.0 0.0
4.0 4.0
0.0 4.0
"""

L_ROOM_SECTION = """\
[room]
grid_size = 0.2
z_r = 0.5
z_l = 5.0
r_res = 0.075
cone_half_angle_deg = 45.0
wall_margin = 0.5

[vertices]
0.0 0.0
10.0 0.0
10.0 8.0
5.0 8.0
5.0 4.0
0.0 4.0
"""

PSO_SECTION = """\
[pso]
swarm_size = 5
iterations = 2
m_max = 10
m_init_min = 8
m_init_max = 9
n_types = 2
seed = 12
snapshot_every = 1
"""

SIM_SECTION = """\
[sim]
n_particles = 250
sigma_d = 0.02
sigma_theta_deg = 5.0
step = 0.2
seeds = 1 2
burn_in = 10

[path]
1.0 1.0
3.0 1.0
3.0 3.0
1.0 3.0
1.0 1.0
"""


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    path = d / "room.cfg"
    path.write_text(ROOM_SECTION + "\n" + PSO_SECTION + "\n" + SIM_SECTION)
    return path


@pytest.fixture(scope="module")
def feasible_placement_file(tmp_path_factory, cfg_file):
    sections = files.load_config(cfg_file)
    room = files.room_from_config(sections)
    grid = build_grid(room)
    pl = random_feasible(room, 9, 2, np.random.default_rng(7), grid)
    d = tmp_path_factory.mktemp("pl")
    path = d / "placement.txt"
    files.write_placement(path, pl, 2)
    return path


class TestConfigParsing:
    def test_sections_and_rows(self):
        sections = files.parse_sections(ROOM_SECTION)
        assert sections["room"]["grid_size"] == "0.25"
        assert len(sections["vertices"]["rows"]) == 4

    def test_comments_ignored(self):
        sections = files.parse_sections("[a]\nx = 1 # trailing\n# full line\n")
        assert sections["a"]["x"] == "1"

    def test_content_before_section_rejected(self):
        with pytest.raises(files.ConfigError):
            files.parse_sections("x = 1\n[a]\n")

    def test_room_round_trip(self, cfg_file):
        sections = files.load_config(cfg_file)
        room = files.room_from_config(sections)
        assert room.grid_size == 0.25
        assert room.boundary.area == pytest.approx(16.0)

    def test_clockwise_vertices_normalized(self):
        text = ROOM_SECTION.replace(
            "0.0 0.0\n4.0 0.0\n4.0 4.0\n0.0 4.0",
            "0.0 0.0\n0.0 4.0\n4.0 4.0\n4.0 0.0",
        )
        room = files.room_from_config(files.parse_sections(text))
        assert room.boundary.area == pytest.approx(16.0)


def _readme_config_block() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


class TestReadmeConfig:
    def test_documented_values_land_in_the_dataclasses(self, tmp_path):
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(_readme_config_block())
        sections = files.load_config(cfg)  # every documented key is known
        room = files.room_from_config(sections)
        assert room == RoomModel(boundary=room.boundary, grid_size=0.2, z_r=0.5, z_l=5.0,
                                 r_res=0.075, cone_half_angle=math.radians(45.0),
                                 wall_margin=0.5)
        assert room.boundary.area == pytest.approx(60.0)
        assert files.pso_config_from_config(sections) == PsoConfig(
            swarm_size=60, iterations=60, m_max=16, m_init_range=(11, 14), n_types=2, seed=0)
        assert files.eval_config_from_config(sections) == EvalConfig(m_max=16)
        path, noise, amcl, seeds, burn_in = files.sim_configs_from_config(sections, room)
        assert path == PathConfig(waypoints=((1.0, 1.0), (9.0, 1.0), (9.0, 7.0)), step=0.2)
        assert noise == NoiseConfig(sigma_d=0.02, sigma_theta=math.radians(5.0))
        assert amcl == AmclConfig(n_particles=2000, sigma_d=0.02,
                                  sigma_theta=math.radians(5.0))
        assert (seeds, burn_in) == ([0, 1, 2, 3], 20)

    def test_absent_keys_take_the_dataclass_defaults(self):
        # the README block with every key but the required grid_size removed
        kept = [line for line in _readme_config_block().splitlines()
                if "=" not in line or line.startswith("grid_size")]
        sections = files.parse_sections("\n".join(kept))
        assert set(sections["pso"]) == set(sections["sim"]) == {"rows"}
        room = files.room_from_config(sections)
        assert room == RoomModel(boundary=room.boundary, grid_size=0.2)
        assert files.pso_config_from_config(sections) == PsoConfig()
        assert files.eval_config_from_config(sections) == EvalConfig()
        path, noise, amcl, seeds, burn_in = files.sim_configs_from_config(sections, room)
        assert path == PathConfig(waypoints=((1.0, 1.0), (9.0, 1.0), (9.0, 7.0)))
        assert (noise, amcl, seeds, burn_in) == (NoiseConfig(), AmclConfig(), [0], BURN_IN)


class TestPlacementFile:
    def test_round_trip_byte_identical(self, tmp_path, small_room, small_grid):
        pl = random_feasible(small_room, 8, 2, np.random.default_rng(3), small_grid)
        p1 = tmp_path / "a.txt"
        files.write_placement(p1, pl, 2)
        loaded, n_types = files.load_placement(p1)
        assert n_types == 2
        p2 = tmp_path / "b.txt"
        files.write_placement(p2, loaded, n_types)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded == pl

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("m = 2\nz_l = 3.0\n0 1.0 1.0 0\n1 2.0 2.0 1\n")
        with pytest.raises(files.ConfigError):
            files.load_placement(f)

    def test_row_count_mismatch_rejected(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("m = 3\nn_types = 1\nz_l = 3.0\n0 1.0 1.0 0\n")
        with pytest.raises(files.ConfigError):
            files.load_placement(f)


def per_element_map_csv(grid, values, header="x,y,value"):
    """The map CSV built one element at a time: the reference text of ``write_map_csv``."""

    def num(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        f = float(x)
        return str(int(f)) if f.is_integer() else repr(f)

    lines = [header]
    vals = np.asarray(values)
    for i in range(len(grid)):
        lines.append(f"{float(grid.xy[i, 0])!r},{float(grid.xy[i, 1])!r},{num(vals[i])}")
    return "\n".join(lines) + "\n"


class TestMapCsv:
    def test_matches_per_element_reference(self, tmp_path, small_grid, readme_l_room):
        l_grid = build_grid(readme_l_room)
        rng = np.random.default_rng(5)
        cases = []
        for grid in (small_grid, l_grid):
            n = len(grid)
            special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 3.0, -2.0, 1e300, 5e-324])
            floats = rng.uniform(-2.0, 50.0, n)
            floats[rng.choice(n, len(special), replace=False)] = special
            cases += [
                (grid, rng.integers(0, 3, n).astype(np.int8), "x,y,class"),
                (grid, floats, "x,y,value"),
                (grid, np.round(rng.uniform(0.0, 20.0, n)), "x,y,value"),
                (grid, rng.uniform(0.0, 1.0, n) < 0.5, "x,y,value"),
            ]
        # alternate grids, so a column text formatted for one grid is never reused for another
        for grid, values, header in cases + cases[::-1]:
            path = tmp_path / "map.csv"
            files.write_map_csv(path, grid, values, header=header)
            assert path.read_text() == per_element_map_csv(grid, values, header)

    def test_length_mismatch_rejected(self, tmp_path, small_grid):
        n = len(small_grid)
        for values in (np.zeros(n - 1), np.zeros(n + 1, dtype=np.int8), [0.5] * (n - 1),
                       np.zeros((n, 1))):
            with pytest.raises(ValueError):
                files.write_map_csv(tmp_path / "map.csv", small_grid, values)

    def test_negative_origin_grids(self, tmp_path):
        # 0.3 and the origin are not binary fractions, so the grid coordinates
        # are rounded sums that a recomputed lattice need not reproduce; the
        # 2 m grid has whole coordinates, which keep their ".0"
        rooms = [RoomModel(boundary=Polygon([(-3.7, -2.9), (2.2, -2.9), (2.2, 0.4), (-0.8, 0.4),
                                             (-0.8, 1.9), (-3.7, 1.9)]), grid_size=0.3),
                 RoomModel(boundary=Polygon([(-5.0, -4.0), (5.0, -4.0), (5.0, 4.0),
                                             (-5.0, 4.0)]), grid_size=2.0)]
        rng = np.random.default_rng(8)
        for room in rooms:
            grid = build_grid(room)
            assert grid.xy.min() < 0 < grid.xy.max()
            for values in (rng.uniform(-1.0, 1.0, len(grid)), rng.integers(-3, 3, len(grid))):
                path = tmp_path / "map.csv"
                files.write_map_csv(path, grid, values)
                assert path.read_text() == per_element_map_csv(grid, values)
        assert "\n-4.0,-3.0," in path.read_text()

    def test_float32_and_list_values(self, tmp_path, small_grid):
        rng = np.random.default_rng(9)
        n = len(small_grid)
        floats = rng.uniform(-5.0, 5.0, n)
        floats[:4] = [1.0, -0.0, 0.1, np.nan]
        for values in (floats.astype(np.float32), floats.tolist(),
                       rng.integers(-9, 9, n).tolist(), (floats > 0).tolist(),
                       [1] * (n // 2) + [2.5] * (n - n // 2)):
            path = tmp_path / "map.csv"
            files.write_map_csv(path, small_grid, values)
            assert path.read_text() == per_element_map_csv(small_grid, values)

    def test_whole_floats_in_exponent_form(self, tmp_path, small_grid):
        n = len(small_grid)
        special = [1e16, -1e16, 2.0**60, -2.0**60, -0.0, 1e22, 123456789012345678.0, 1e16 + 2]
        values = np.resize(np.array(special), n)
        path = tmp_path / "map.csv"
        files.write_map_csv(path, small_grid, values)
        text = path.read_text()
        assert text == per_element_map_csv(small_grid, values)
        assert "e+" not in text and "-0.0" not in text
        assert f",{2**60}\n" in text and ",10000000000000000\n" in text


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize("row, message", [
    ("0 nan 1.13 0", "placement x and y must be finite"),
    ("0 abc 1.13 0", "bad placement row: could not convert string to float: 'abc'"),
], ids=["nan", "not_a_number"])
def test_bad_placement_coordinate_exit_2(tmp_path, capsys, command, row, message):
    pfile = tmp_path / "bad.txt"
    files.write_placement(pfile, Placement(xy=L_ROOM_PLACEMENT_XY,
                                           types=type_assignment(22, 2), z=5.0), 2)
    first = f"0 {L_ROOM_PLACEMENT_XY[0][0]!r} {L_ROOM_PLACEMENT_XY[0][1]!r} 0\n"
    assert pfile.read_text().count(first) == 1
    pfile.write_text(pfile.read_text().replace(first, row + "\n"))
    cfg = tmp_path / "l_room.cfg"
    cfg.write_text(L_ROOM_SECTION + "\n" + SIM_SECTION)
    code = main([command, "--config", str(cfg), "--placement", str(pfile),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {pfile}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flags, old, new, message", [
    ("optimize", ["--particles", "0"], None, None, "swarm_size must be at least 1"),
    ("optimize", ["--particles", "-1"], None, None, "swarm_size must be at least 1"),
    ("optimize", [], "swarm_size = 5", "swarm_size = 0", "swarm_size must be at least 1"),
    ("optimize", ["--iterations", "-1"], None, None, "iterations must be non-negative"),
    ("optimize", [], "iterations = 2", "iterations = -1", "iterations must be non-negative"),
    ("optimize", ["--seed", "-1"], None, None, "seed must be non-negative"),
    ("optimize", [], "seed = 12", "seed = -1", "seed must be non-negative"),
    ("simulate", ["--seed", "-1"], None, None, "seeds must be non-negative"),
    ("simulate", [], "seeds = 1 2", "seeds = 1 -2", "seeds must be non-negative"),
    ("simulate", ["--seed", "3"], "seeds = 1 2", "n_seeds = 0", "n_seeds must be at least 1"),
    ("simulate", [], "seeds = 1 2", "seeds = 3 3", "seeds must be distinct"),
    ("optimize", [], "seed = 12", "seed = 12\narchive_capacity = 1",
     "archive_capacity must be at least 2"),
    ("optimize", [], "snapshot_every = 1", "snapshot_every = -3",
     "snapshot_every must be non-negative"),
    ("simulate", [], "n_particles = 250", "n_particles = 0", "n_particles must be at least 1"),
    ("simulate", [], "n_particles = 250", "n_particles = 250\nfingerprint_size = 0",
     "fingerprint size n must be at least 1"),
    ("simulate", [], "n_particles = 250", "n_particles = 250\nsigma_r = 0",
     "sigma_r must be finite and positive"),
    ("simulate", [], "sigma_d = 0.02", "sigma_d = -1", "sigma_d must be finite and non-negative"),
    ("simulate", [], "sigma_theta_deg = 5.0", "sigma_theta_deg = inf",
     "sigma_theta must be finite and non-negative"),
    ("simulate", [], "sigma_d = 0.02", "sigma_d = 0.02\nsigma_meas = -0.1",
     "sigma_meas must be finite and non-negative"),
    ("simulate", [], "burn_in = 10", "burn_in = -3",
     "burn_in must lie in [0, 40], the path's step count"),
    ("simulate", [], "burn_in = 10", "burn_in = 1000",
     "burn_in must lie in [0, 40], the path's step count"),
], ids=["particles_zero", "particles_negative", "swarm_size_key", "iterations_negative",
        "iterations_key", "optimize_seed_negative", "optimize_seed_key",
        "simulate_seed_negative", "simulate_seeds_key", "simulate_n_seeds_zero",
        "simulate_seeds_repeated",
        "archive_capacity_one", "snapshot_every_negative", "sim_particles_zero", "sim_fingerprint_size_zero",
        "sigma_r_zero", "sigma_d_negative", "sigma_theta_infinite", "sigma_meas_negative",
        "burn_in_negative", "burn_in_beyond_path"])
def test_bad_size_or_seed_exit_2(feasible_placement_file, tmp_path, capsys, command, flags,
                                  old, new, message):
    section = PSO_SECTION if command == "optimize" else SIM_SECTION
    if old is not None:
        assert section.count(old + "\n") == 1
        section = section.replace(old + "\n", new + "\n")
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(ROOM_SECTION + "\n" + section)
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")] + flags
    if command == "simulate":
        argv += ["--placement", str(feasible_placement_file)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["optimize", "evaluate", "simulate"])
@pytest.mark.parametrize("old, new, message", [
    ("swarm_size = 5", "swarm_sise = 5", "unknown key in [pso]: swarm_sise"),
    ("swarm_size = 5", "swarm_sise = 5\npaticles = 3",
     "unknown keys in [pso]: paticles, swarm_sise"),
    ("z_l = 4.5", "z_l = 4.5\nm_max = 10", "unknown key in [room]: m_max"),
    ("n_particles = 250", "n_particles = 250\nseed = 3", "unknown key in [sim]: seed"),
    ("[path]", "[path]\nstep = 0.2", "unknown key in [path]: step"),
    ("[sim]", "[simulation]", "unknown section [simulation]"),
    ("[vertices]", "[vertices]\nrows = 4", "line 10: unknown key 'rows'"),
    # a numeric row outside [vertices] and [path], such as a value whose key was lost
    ("swarm_size = 5", "60\nswarm_size = 5",
     "line 16: [pso] takes key = value lines, not rows"),
    ("z_l = 4.5", "z_l = 4.5\n4.5", "line 5: [room] takes key = value lines, not rows"),
    ("n_particles = 250", "250\nn_particles = 250",
     "line 26: [sim] takes key = value lines, not rows"),
], ids=["pso_key", "two_pso_keys", "room_key", "sim_key", "path_key", "section", "rows_key",
        "pso_row", "room_row", "sim_row"])
def test_unknown_section_or_key_exit_2(feasible_placement_file, tmp_path, capsys, command,
                                       old, new, message):
    text = ROOM_SECTION + "\n" + PSO_SECTION + "\n" + SIM_SECTION
    assert text.count(old + "\n") == 1
    cfg = tmp_path / "cfg.cfg"
    cfg.write_text(text.replace(old + "\n", new + "\n"))
    argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
    if command != "optimize":
        argv += ["--placement", str(feasible_placement_file)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


class TestOptimizeCommand:
    def test_smoke_run_produces_front(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        code = main(["optimize", "--config", str(cfg_file), "--out-dir", str(out)])
        assert code == 0
        front = (out / "front.csv").read_text().splitlines()
        assert front[0] == "placement_id,m,f1,f2"
        assert len(front) >= 2
        assert (out / "log.csv").exists()
        assert (out / "placement_000.txt").exists()
        assert (out / "front_iter_00001.csv").exists()

    def test_seeded_determinism_and_threads(self, cfg_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "optimize", "--config", str(cfg_file), "--out-dir", str(out), "--seed", "5",
            ])
            assert code == 0
            outs.append(out)
        ref = sorted(p.name for p in outs[0].iterdir())
        assert sorted(p.name for p in outs[1].iterdir()) == ref
        for name in ref:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        # optimize has no --threads option: argparse exits with code 2
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", str(cfg_file), "--out-dir", str(tmp_path / "c"),
                  "--threads", "2"])
        assert exc.value.code == 2

    def test_front_rows_mutually_non_dominated(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(cfg_file), "--out-dir", str(out)]) == 0
        rows = [r.split(",") for r in (out / "front.csv").read_text().splitlines()[1:]]
        objs = [(float(f1), float(f2)) for _, _, f1, f2 in rows]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not (a[0] <= b[0] and a[1] <= b[1] and a != b)

    def test_invalid_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[room]\ngrid_size = nope\n[vertices]\n0 0\n1 0\n1 1\n")
        assert main(["optimize", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["optimize", "--config", str(tmp_path / "nope.cfg"),
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_fingerprint_larger_than_k_min_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.cfg"
        cfg.write_text(ROOM_SECTION + "\n" + PSO_SECTION + "fingerprint_size = 5\nk_min = 4\n")
        assert main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, keys, message", [
        ("optimize", "k_min = 3\nfingerprint_size = 3\n", "k_min must be at least 4"),
        ("evaluate", "k_min = 3\nfingerprint_size = 3\n", "k_min must be at least 4"),
        # a NaN or negative d_min would switch the spacing check off; a NaN
        # v_max would reach the margin projection
        ("optimize", "d_min = nan\n", "d_min must be finite and non-negative"),
        ("evaluate", "d_min = nan\n", "d_min must be finite and non-negative"),
        ("optimize", "d_min = -1.0\n", "d_min must be finite and non-negative"),
        ("optimize", "v_max = nan\n", "v_max must be finite and positive"),
        # a negative v_max would clip every velocity coordinate to v_max itself
        ("optimize", "v_max = -1.0\n", "v_max must be finite and positive"),
    ], ids=["optimize", "evaluate", "d_min_nan-optimize", "d_min_nan-evaluate",
            "d_min_negative-optimize", "v_max_nan-optimize", "v_max_negative-optimize"])
    def test_k_min_below_four_exit_2(self, feasible_placement_file, tmp_path, capsys, command,
                                     keys, message):
        # the GDOP needs 4 visible reflectors at every element
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION + "\n" + PSO_SECTION.replace(
            "m_max = 10", "m_max = 12").replace("m_init_max = 9", "m_init_max = 12") + keys)
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        if command == "optimize":
            argv += ["--particles", "4", "--iterations", "1"]
        else:
            argv += ["--placement", str(feasible_placement_file)]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_init_failure_exit_3(self, tmp_path):
        # coverage impossible: m_init below k_min in a large room
        cfg = tmp_path / "cfg.cfg"
        cfg.write_text(ROOM_SECTION + "\n" + PSO_SECTION.replace(
            "m_init_min = 8", "m_init_min = 2").replace("m_init_max = 9", "m_init_max = 2"))
        assert main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3

    def test_m_init_below_coverage_floor_exit_3_at_once(self, tmp_path, capsys):
        # README L room: three elements lie pairwise more than 2 cone radii
        # (9 m) apart, so k_min=4 needs at least 12 reflectors; every draw
        # of m in 8..11 fails before any repair.
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION + "\n" + PSO_SECTION.replace(
            "m_max = 10", "m_max = 16").replace("m_init_max = 9", "m_init_max = 11"))
        start = time.perf_counter()
        code = main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        elapsed = time.perf_counter() - start
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert ("need at least 12 reflectors: 3 grid elements lie pairwise more than "
                "2 cone radii apart") in err
        assert elapsed < 1.0

    @pytest.mark.parametrize("margin", ["3.0", "1.999"])
    def test_wall_margin_without_room_exit_3(self, tmp_path, capsys, monkeypatch, margin):
        # no point of the 4 x 4 room lies 3 m from every wall, and only a
        # 2 mm square lies 1.999 m from them: sampling fails, whatever m is
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return random_feasible(*args, **kwargs)

        monkeypatch.setattr(mopso, "random_feasible", counted)
        cfg = tmp_path / "cfg.cfg"
        cfg.write_text(ROOM_SECTION.replace("wall_margin = 0.5", f"wall_margin = {margin}")
                       + "\n" + PSO_SECTION)
        start = time.perf_counter()
        code = main(["optimize", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        elapsed = time.perf_counter() - start
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: swarm initialization failed: wall_margin = ")
        assert len(calls) == 1  # m is not redrawn
        assert elapsed < 5.0


class TestEvaluateCommand:
    def test_feasible_metrics(self, cfg_file, feasible_placement_file, tmp_path):
        out = tmp_path / "out"
        code = main(["evaluate", "--config", str(cfg_file),
                     "--placement", str(feasible_placement_file),
                     "--out-dir", str(out)])
        assert code == 0
        text = (out / "metrics.txt").read_text()
        assert "feasible = true" in text
        assert (out / "ambiguity_map.csv").exists()
        assert (out / "ambiguity_map.pgm").exists()
        assert (out / "gdop_map.csv").exists()
        assert (out / "gdop_map.pgm").exists()
        pgm = (out / "gdop_map.pgm").read_bytes()
        assert pgm.startswith(b"P5\n16 16\n255\n")
        assert len(pgm) == len(b"P5\n16 16\n255\n") + 16 * 16

    @pytest.mark.parametrize("old, new", [
        ("grid_size = 0.25", "grid_size = nan"),
        ("wall_margin = 0.5", "wall_margin = nan"),
        ("4.0 4.0", "4.0 nan"),
    ], ids=["grid_size", "wall_margin", "vertex"])
    def test_nan_room_value_exit_2(self, feasible_placement_file, tmp_path, capsys, old, new):
        assert ROOM_SECTION.count(old) == 1
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(ROOM_SECTION.replace(old, new))
        code = main(["evaluate", "--config", str(cfg),
                     "--placement", str(feasible_placement_file),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_placement_height_differs_from_room_exit_2(self, tmp_path, capsys):
        # the README L room mounts reflectors at 5.0 m; the file says 3.0 m
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION)
        pfile = tmp_path / "low.txt"
        files.write_placement(pfile, Placement(xy=L_ROOM_PLACEMENT_XY,
                                               types=type_assignment(22, 2), z=3.0), 2)
        code = main(["evaluate", "--config", str(cfg), "--placement", str(pfile),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "placement z_l = 3.0 differs from the room's z_l = 5.0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_spacing_violation_reported(self, cfg_file, tmp_path, small_room, small_grid):
        pl = random_feasible(small_room, 8, 2, np.random.default_rng(11), small_grid)
        xy = pl.xy.copy()
        xy[1] = xy[0] + [0.3, 0.0]
        bad = Placement(xy=xy, types=pl.types, z=pl.z)
        pfile = tmp_path / "bad.txt"
        files.write_placement(pfile, bad, 2)
        out = tmp_path / "out"
        code = main(["evaluate", "--config", str(cfg_file),
                     "--placement", str(pfile), "--out-dir", str(out)])
        assert code == 0
        text = (out / "metrics.txt").read_text()
        assert "feasible = false" in text
        assert "(0, 1)" in text

    def test_round_trip_reproduces_archived_objectives(self, cfg_file, tmp_path):
        out = tmp_path / "opt"
        assert main(["optimize", "--config", str(cfg_file), "--out-dir", str(out)]) == 0
        rows = (out / "front.csv").read_text().splitlines()[1:]
        sections = files.load_config(cfg_file)
        room = files.room_from_config(sections)
        grid = build_grid(room)
        for row in rows[:3]:
            pid, m, f1, f2 = row.split(",")
            pl, _ = files.load_placement(out / f"placement_{int(pid):03d}.txt")
            masks = placement_masks(pl, grid, room, strict=False)
            got_f1, got_f2 = evaluate(pl, room, grid, masks, EvalConfig())
            assert float(got_f1) == float(f1)
            assert got_f2 == pytest.approx(float(f2), rel=1e-12)

    def test_evaluate_rescores_front_with_pso_constraints(self, tmp_path):
        # fingerprint_size and d_min away from the library defaults: evaluate
        # must score with the same [pso] settings that optimize used
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION + "\n" + PSO_SECTION.replace(
            "m_max = 10", "m_max = 16").replace("m_init_min = 8", "m_init_min = 12").replace(
            "m_init_max = 9", "m_init_max = 14") + "fingerprint_size = 3\nd_min = 1.5\n")
        out = tmp_path / "opt"
        assert main(["optimize", "--config", str(cfg), "--out-dir", str(out),
                     "--particles", "4", "--iterations", "2", "--seed", "0"]) == 0
        rows = [r.split(",") for r in (out / "front.csv").read_text().splitlines()[1:]]
        assert rows
        for pid, m, f1, f2 in rows:
            ev = tmp_path / f"ev{pid}"
            assert main(["evaluate", "--config", str(cfg), "--out-dir", str(ev),
                         "--placement", str(out / f"placement_{int(pid):03d}.txt")]) == 0
            metrics = dict(line.split(" = ", 1) for line in
                           (ev / "metrics.txt").read_text().splitlines())
            assert (metrics["m"], metrics["feasible"]) == (m, "true")
            assert (float(metrics["f1"]), float(metrics["f2"])) == (float(f1), float(f2))

    def test_l_room_evaluate_is_unchanged(self, tmp_path):
        # README L room: the walls between the bays split fingerprint groups
        # into several regions, so the map holds local and global elements
        pfile = tmp_path / "a.txt"
        files.write_placement(pfile, Placement(xy=L_ROOM_PLACEMENT_XY,
                                               types=type_assignment(22, 2), z=5.0), 2)
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION)
        out = tmp_path / "out"
        assert main(["evaluate", "--config", str(cfg), "--placement", str(pfile),
                     "--out-dir", str(out)]) == 0
        assert (out / "metrics.txt").read_text().replace(str(tmp_path), "<dir>") == (
            "placement = <dir>/a.txt\nm = 22\nn_types = 2\nfeasible = true\nm_ok = true\n"
            "coverage_ok = true (0 grid elements short)\n"
            "spacing_ok = true (violating pairs: [])\n"
            "margin_ok = true (violating reflectors: [])\n"
            "f1 = 941\nf2 = 43.05428539602018\n"
            "ambiguous_local = 127\nambiguous_global = 814\nunique = 559\n")
        digest = hashlib.sha256()
        for name in ("ambiguity_map.csv", "ambiguity_map.pgm", "gdop_map.csv", "gdop_map.pgm"):
            digest.update(name.encode() + b"\0" + (out / name).read_bytes())
        assert digest.hexdigest() == (
            "a68eaee1e7810abff724df83c08422b47274e5eea90be48b6656dcd99f993519")


# Imports the CLI, runs the arguments through it, and reports the scipy
# modules loaded after the import and after the command.
_SCIPY_PROBE = """
import sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import reflectopt.cli
after_import = scipy_modules()
code = reflectopt.cli.main(sys.argv[1:])
print(repr((after_import, code, scipy_modules())), file=sys.stderr)
"""


def run_scipy_probe(argv: list[str]) -> tuple[list[str], int, list[str]]:
    """(scipy modules after the import, exit code, scipy modules after the command).

    Runs in a fresh process, so that no other test has loaded scipy already.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(reflectopt.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return ast.literal_eval(proc.stderr.splitlines()[-1])


def test_import_and_evaluate_load_no_scipy(tmp_path):
    pfile = tmp_path / "a.txt"
    files.write_placement(pfile, Placement(xy=L_ROOM_PLACEMENT_XY,
                                           types=type_assignment(22, 2), z=5.0), 2)
    cfg = tmp_path / "l_room.cfg"
    cfg.write_text(L_ROOM_SECTION)
    out = tmp_path / "out"
    assert run_scipy_probe(["evaluate", "--config", str(cfg), "--placement", str(pfile),
                            "--out-dir", str(out)]) == ([], 0, [])
    assert "feasible = true" in (out / "metrics.txt").read_text()
    assert (out / "ambiguity_map.pgm").exists()


def test_optimize_loads_no_ndimage(tmp_path):
    # region labels in repair and mutation come from Grid.components
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(_readme_config_block())
    out = tmp_path / "out"
    after_import, code, after = run_scipy_probe(
        ["optimize", "--config", str(cfg), "--out-dir", str(out), "--particles", "2",
         "--iterations", "1"])
    assert (after_import, code) == ([], 0)
    assert "scipy.optimize" in after
    assert not [m for m in after if m.startswith("scipy.ndimage")]
    assert (out / "front.csv").exists()


class TestSimulateCommand:
    def test_smoke_and_determinism(self, cfg_file, feasible_placement_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["simulate", "--config", str(cfg_file),
                         "--placement", str(feasible_placement_file),
                         "--out-dir", str(out)])
            assert code == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert "report.txt" in names
        assert any(n.startswith("trace_placement_seed") for n in names)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_infeasible_placement_exit_4(self, cfg_file, tmp_path):
        pfile = tmp_path / "bad.txt"
        pl = Placement(xy=[[1.0, 1.0], [1.2, 1.0], [2.0, 2.0], [3.0, 3.0]],
                       types=[0, 1, 0, 1], z=4.5)
        files.write_placement(pfile, pl, 2)
        code = main(["simulate", "--config", str(cfg_file),
                     "--placement", str(pfile), "--out-dir", str(tmp_path / "o")])
        assert code == 4

    def test_missing_placement_exit_2(self, cfg_file, tmp_path):
        code = main(["simulate", "--config", str(cfg_file),
                     "--placement", str(tmp_path / "nope.txt"),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_seed_list_exit_2(self, cfg_file, feasible_placement_file, tmp_path,
                                        capsys):
        cfg = tmp_path / "seeds.cfg"
        cfg.write_text(cfg_file.read_text().replace("seeds = 1 2", "seeds = 0 x"))
        code = main(["simulate", "--config", str(cfg),
                     "--placement", str(feasible_placement_file),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "error: bad value for 'seeds'" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["3.0 3.0 1.0", "3.0 nan"])
    def test_malformed_path_row_exit_2(self, cfg_file, feasible_placement_file, tmp_path,
                                       capsys, row):
        cfg = tmp_path / "path.cfg"
        cfg.write_text(cfg_file.read_text().replace("3.0 3.0\n", f"{row}\n"))
        code = main(["simulate", "--config", str(cfg),
                     "--placement", str(feasible_placement_file),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "error: [path] rows must hold finite x y pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("3.0 3.0\n", "3.0 7.0\n", "waypoint outside the room"),
        # both waypoints inside, but the segment cuts the reflex corner (5, 4)
        ("[path]\n1.0 1.0\n3.0 1.0\n3.0 3.0\n1.0 3.0\n1.0 1.0\n", "[path]\n4.9 3.98\n5.2 4.1\n",
         "path segment leaves the room"),
        ("step = 0.2", "step = 50.0", "path too short for the step size"),
        ("step = 0.2", "step = 0.0", "path step must be positive"),
    ], ids=["outside", "corner_cut", "too_short", "zero_step"])
    def test_bad_path_exit_2(self, tmp_path, capsys, old, new, message):
        # A feasible placement in the README L room, so only the path is wrong.
        pfile = tmp_path / "l_room.txt"
        files.write_placement(pfile, Placement(xy=L_ROOM_PLACEMENT_XY,
                                               types=type_assignment(22, 2), z=5.0), 2)
        cfg = tmp_path / "path.cfg"
        cfg.write_text(L_ROOM_SECTION + "\n" + SIM_SECTION.replace(old, new))
        code = main(["simulate", "--config", str(cfg), "--placement", str(pfile),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("keys", ["m_max = 40\n", "d_min = 0.3\n"],
                             ids=["m_max", "d_min"])
    def test_looser_pso_constraints_accepted(self, tmp_path, readme_l_room, keys):
        # m = 34 lies above the default m_max of 32; reflectors 0 and 6, 0.4 m
        # apart, lie closer than the default d_min of 0.5 m
        if keys.startswith("m_max"):
            pl = random_feasible(readme_l_room, 34, 2, np.random.default_rng(0),
                                 build_grid(readme_l_room), EvalConfig(m_max=40))
        else:
            xy = np.array(L_ROOM_PLACEMENT_XY)
            xy[0] = xy[6] + [0.4, 0.0]
            pl = Placement(xy=xy, types=type_assignment(22, 2), z=5.0)
        pfile = tmp_path / "pl.txt"
        files.write_placement(pfile, pl, 2)
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION + "\n[pso]\n" + keys + "\n" + SIM_SECTION)
        assert main(["evaluate", "--config", str(cfg), "--placement", str(pfile),
                     "--out-dir", str(tmp_path / "ev")]) == 0
        assert "feasible = true" in (tmp_path / "ev" / "metrics.txt").read_text()
        assert main(["simulate", "--config", str(cfg), "--placement", str(pfile),
                     "--out-dir", str(tmp_path / "sim")]) == 0

    @pytest.mark.parametrize("low", ["placement", "compare"])
    def test_placement_height_differs_from_room_exit_2(self, tmp_path, capsys, low):
        # the README L room mounts reflectors at 5.0 m; one file says 3.0 m
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION + "\n" + SIM_SECTION)
        paths = {}
        for label in ("placement", "compare"):
            paths[label] = tmp_path / f"{label}.txt"
            files.write_placement(paths[label], Placement(
                xy=L_ROOM_PLACEMENT_XY, types=type_assignment(22, 2),
                z=3.0 if label == low else 5.0), 2)
        code = main(["simulate", "--config", str(cfg), "--placement", str(paths["placement"]),
                     "--compare", str(paths["compare"]), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[low]}: placement z_l = 3.0 differs from the "
                              "room's z_l = 5.0")
        assert not (tmp_path / "o").exists()

    def test_fingerprint_size_beyond_k_min(self, cfg_file, feasible_placement_file, tmp_path):
        # simulate checks feasibility with the [pso] constraints; the tracker's
        # fingerprint size is its own setting and may exceed k_min
        cfg = tmp_path / "n5.cfg"
        cfg.write_text(cfg_file.read_text().replace("[sim]\n", "[sim]\nfingerprint_size = 5\n"))
        code = main(["simulate", "--config", str(cfg),
                     "--placement", str(feasible_placement_file),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 0

    def test_fingerprint_size_beyond_visible_exit_2(self, cfg_file, feasible_placement_file,
                                                    tmp_path, capsys):
        # every element of the 4x4 room sees all 9 reflectors
        cfg = tmp_path / "n10.cfg"
        cfg.write_text(cfg_file.read_text().replace("[sim]\n", "[sim]\nfingerprint_size = 10\n"))
        code = main(["simulate", "--config", str(cfg),
                     "--placement", str(feasible_placement_file),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {feasible_placement_file}: [sim] fingerprint_size = 10 exceeds what the "
            "path sees: only 9 reflectors visible, fingerprint needs 10\n")

    def test_fingerprint_size_beyond_visible_l_room_exit_2(self, tmp_path, capsys):
        # README L room, placement and path: the start pose sees 6 reflectors
        pfile = tmp_path / "l_room.txt"
        files.write_placement(pfile, Placement(xy=L_ROOM_PLACEMENT_XY,
                                               types=type_assignment(22, 2), z=5.0), 2)
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION + "\n[sim]\nfingerprint_size = 8\n\n[path]\n"
                       "1.0 1.0\n9.0 1.0\n9.0 7.0\n")
        code = main(["simulate", "--config", str(cfg), "--placement", str(pfile),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pfile}: [sim] fingerprint_size = 8 exceeds")
        assert "only 6 reflectors visible, fingerprint needs 8" in err

    @pytest.mark.parametrize("burn_in", [0, 40])
    def test_burn_in_may_span_the_path(self, cfg_file, feasible_placement_file, tmp_path,
                                       burn_in):
        # the 8 m path at 0.2 m steps has 40 steps; 41 estimates with the start
        cfg = tmp_path / "burn_in.cfg"
        cfg.write_text(cfg_file.read_text().replace("burn_in = 10", f"burn_in = {burn_in}"))
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(cfg),
                     "--placement", str(feasible_placement_file), "--out-dir", str(out)])
        assert code == 0
        report = (out / "report.txt").read_text()
        assert f"burn_in_steps = {burn_in}\nsteps_per_run = 41\n" in report

    def test_default_burn_in_beyond_short_path_names_the_default(
            self, feasible_placement_file, tmp_path, capsys):
        # (1, 1) -> (3, 1) at 0.2 m steps has 10 steps, fewer than the default 20
        cfg = tmp_path / "short.cfg"
        cfg.write_text(ROOM_SECTION + "\n[sim]\nn_particles = 250\n\n[path]\n1.0 1.0\n3.0 1.0\n")
        out = tmp_path / "o"
        code = main(["simulate", "--config", str(cfg),
                     "--placement", str(feasible_placement_file), "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the default burn_in of 20 exceeds the path's 10 steps; "
            "set [sim] burn_in to a value in [0, 10]\n")
        assert not out.exists()

    def test_seeded_l_room_compare_is_unchanged(self, tmp_path):
        # README L room and path, default 2000 particles, one noise seed; the
        # compare track diverges, so the filter also weighs widely spread particles
        for label, xy in (("a", L_ROOM_PLACEMENT_XY), ("b", L_ROOM_PLACEMENT_B_XY)):
            files.write_placement(tmp_path / f"{label}.txt", Placement(
                xy=xy, types=type_assignment(len(xy), 2), z=5.0), 2)
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION + "\n[sim]\nseeds = 7\n\n[path]\n"
                       "1.0 1.0\n9.0 1.0\n9.0 7.0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--placement", str(tmp_path / "a.txt"),
                     "--compare", str(tmp_path / "b.txt"), "--out-dir", str(out)]) == 0
        report = (out / "report.txt").read_text().replace(str(tmp_path), "<dir>")
        runs = ("runs = 1\nburn_in_steps = 20\nsteps_per_run = 71\n\n"
                "seed rmse_full rmse_after_burn_in\n")
        assert report == (
            "tracking report: placement (<dir>/a.txt)\n" + runs
            + "7 1.4351688004328471 1.6734227358641998\n\n"
            "median_rmse = 1.6734227358641998\np25_rmse = 1.6734227358641998\n"
            "p75_rmse = 1.6734227358641998\n\n"
            "tracking report: compare (<dir>/b.txt)\n" + runs
            + "7 5.116569848813102 5.056723129277624\n\n"
            "median_rmse = 5.056723129277624\np25_rmse = 5.056723129277624\n"
            "p75_rmse = 5.056723129277624\n\n"
            "paired comparison (matched seeds)\n"
            "median_rmse_placement = 1.6734227358641998\n"
            "median_rmse_compare = 5.056723129277624\nwinner = placement\n")
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            if path.name != "report.txt":  # traces and histograms
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == (
            "46b9f342bc8f0d9dca36de8736d3e680038dcaa709294e726d1e18d657502100")

    def test_compare_mode(self, cfg_file, feasible_placement_file, tmp_path, small_room, small_grid):
        pl2 = random_feasible(small_room, 8, 2, np.random.default_rng(23), small_grid)
        second = tmp_path / "second.txt"
        files.write_placement(second, pl2, 2)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg_file),
                     "--placement", str(feasible_placement_file),
                     "--compare", str(second), "--out-dir", str(out)])
        assert code == 0
        text = (out / "report.txt").read_text()
        assert "paired comparison (matched seeds)" in text
        assert (out / "error_histogram_compare.csv").exists()
