import math
import time
from pathlib import Path

import numpy as np
import pytest

from reflectopt import files
from reflectopt.amcl import AmclConfig
from reflectopt.cli import main
from reflectopt.geom import RoomModel, build_grid
from reflectopt.harness import BURN_IN, NoiseConfig, PathConfig
from reflectopt.mopso import PsoConfig
from reflectopt.objectives import EvalConfig, evaluate
from reflectopt.placement import Placement, placement_masks, type_assignment
from reflectopt.repair import random_feasible
from conftest import L_ROOM_PLACEMENT_XY

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
    def test_documented_values_land_in_the_dataclasses(self):
        sections = files.parse_sections(_readme_config_block())
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

    @pytest.mark.parametrize("command", ["optimize", "evaluate"])
    def test_k_min_below_four_exit_2(self, feasible_placement_file, tmp_path, capsys, command):
        # the GDOP needs 4 visible reflectors at every element
        cfg = tmp_path / "l_room.cfg"
        cfg.write_text(L_ROOM_SECTION + "\n" + PSO_SECTION.replace(
            "m_max = 10", "m_max = 12").replace("m_init_max = 9", "m_init_max = 12")
            + "k_min = 3\nfingerprint_size = 3\n")
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        if command == "optimize":
            argv += ["--particles", "4", "--iterations", "1"]
        else:
            argv += ["--placement", str(feasible_placement_file)]
        assert main(argv) == 2
        assert "error: k_min must be at least 4" in capsys.readouterr().err
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
        ("step = 0.2", "step = 50.0", "path too short for the step size"),
        ("step = 0.2", "step = 0.0", "path step must be positive"),
    ], ids=["outside", "too_short", "zero_step"])
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

    def test_fingerprint_size_beyond_k_min(self, cfg_file, feasible_placement_file, tmp_path):
        # simulate checks feasibility with the default constraints; the tracker's
        # fingerprint size is its own setting and may exceed k_min
        cfg = tmp_path / "n5.cfg"
        cfg.write_text(cfg_file.read_text().replace("[sim]\n", "[sim]\nfingerprint_size = 5\n"))
        code = main(["simulate", "--config", str(cfg),
                     "--placement", str(feasible_placement_file),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 0

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
