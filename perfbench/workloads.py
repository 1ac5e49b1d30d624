"""The three benchmark workloads: inputs, commands and correctness checks.

Each workload runs in-process ``reflectopt`` CLI commands (``cli.main``) on
inputs written under its run directory. ``setup`` is the program's own
set-up (config and placement parsing, grid construction) and runs both in
the benchmark process and in the set-up probes that measure ``setup_s``.
"""

from __future__ import annotations

import hashlib
import math
import platform
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from hypervolume import hypervolume_2d


class Checks:
    """Correctness checks made after the timed section; each one is an operation."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.count += 1
        if not ok:
            self.failures.append(message)
        return ok


@dataclass
class CommandResult:
    index: int
    argv: list[str]
    code: int | None  # None when the command raised
    seconds: float  # wall time, without the kernel runs of ``calibration``
    stdout: str
    error: str = ""
    calibration: list[float] = field(default_factory=list)  # speed-kernel times around it


def same_as_recorded(path: Path, data: bytes) -> bool | None:
    """Compare ``data`` with what an earlier run recorded at ``path``.

    Records ``data`` and returns None when no earlier run did.
    """
    if path.is_file():
        return path.read_bytes() == data
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)
    return None


class Workload:
    name = ""
    rate_name = ""  # details key of work per second of run_s
    pass_size = 1  # commands in one pass
    min_passes = 2  # fewest passes of an untraced run
    trace_passes = 1  # passes in each half of a traced run

    def __init__(self, run_dir: Path, seed: int, tiny: bool):
        self.run_dir = run_dir
        self.inputs = run_dir / "inputs"
        self.seed = seed
        self.tiny = tiny
        self.config = self.inputs / "room.cfg"

    def prepare(self):
        """Write the input files (benchmark work, not timed as set-up)."""
        self.inputs.mkdir(parents=True, exist_ok=True)

    def setup(self, ro):
        """The program's set-up: parse the inputs and build the grid."""
        self.room = ro.files.room_from_config(ro.files.load_config(self.config))
        self.grid = ro.geom.build_grid(self.room)

    def before(self, k: int):
        """Untimed preparation of command k."""

    def out_dir(self, k: int) -> Path:
        raise NotImplementedError

    def argv(self, k: int) -> list[str]:
        raise NotImplementedError

    def warm_up_argv(self) -> list[str]:
        """A command run untimed before the timed ones, so that the first
        timed command does not pay for first calls into the program."""
        return self.argv(0)

    def work_units(self, result: CommandResult) -> int:
        """Work done by one command, in the units of ``rate_name``."""
        raise NotImplementedError

    def check(self, results: list[CommandResult], ro, checks: Checks) -> dict:
        """Check the outputs of successful commands; returns details to report."""
        raise NotImplementedError


class OptimizeL(Workload):
    """``reflectopt optimize`` on the README L room with its config unchanged.

    The optimizer seed is fixed (0) for every benchmark seed: how often the
    swarm draws the unrepairable size m=11 depends on the optimizer seed, and
    each such draw costs most of a run, so a seed-dependent optimizer seed
    would make run-to-run spread exceed any usable bound. Seed 0 draws it once.

    One command takes 30-50 s on a shared 2-core virtual machine, most of it
    in that draw, so an untraced run makes one. Its ``front.csv`` is compared with the one recorded by the
    first run of the same sources and inputs in this checkout; a traced run
    also compares its untraced and traced commands.
    """

    name = "optimize-L"
    rate_name = "evaluations_per_s"
    min_passes = 1
    OPT_SEED = 0
    HV_REF = (1500.0, 1000.0)  # (grid elements of the L room, f2 well above any front)

    def prepare(self):
        super().prepare()
        text = inputs.config_text(
            inputs.L_VERTICES,
            {"pso": inputs.README_PSO, "sim": dict(inputs.README_SIM, seeds="0 1 2 3")},
            path=inputs.README_PATH)
        self.config.write_text(text)

    def setup(self, ro):
        super().setup(ro)
        self.pso = ro.files.pso_config_from_config(ro.files.load_config(self.config))

    def out_dir(self, k):
        return self.run_dir / f"opt_{k}"

    def before(self, k):
        shutil.rmtree(self.out_dir(k), ignore_errors=True)

    def options(self) -> list[str]:
        particles, iterations = (2, 1) if self.tiny else (6, 4)
        return ["--seed", str(self.OPT_SEED), "--particles", str(particles),
                "--iterations", str(iterations)]

    def argv(self, k):
        return ["optimize", "--config", str(self.config),
                "--out-dir", str(self.out_dir(k))] + self.options()

    def warm_up_argv(self):
        return ["optimize", "--config", str(self.config), "--out-dir", str(self.run_dir / "warm_up"),
                "--seed", str(self.OPT_SEED), "--particles", "2", "--iterations", "1"]

    def record_path(self, ro) -> Path:
        """Where this checkout records the front of these sources and inputs."""
        digest = hashlib.sha256()
        src = Path(ro.__file__).resolve().parent
        for path in sorted(src.rglob("*.py")):
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
        for part in (self.config.read_text(), " ".join(self.options()),
                     platform.python_version(), np.__version__):
            digest.update(b"\0" + part.encode())
        return self.run_dir.parent / "fronts" / f"{digest.hexdigest()[:32]}.csv"

    def work_units(self, result):
        match = re.search(r"\((\d+) evaluations\)", result.stdout)
        return int(match.group(1)) if match else 0

    def check(self, results, ro, checks):
        last = self.out_dir(results[-1].index)
        front_bytes = (last / "front.csv").read_bytes()
        for r in results[:-1]:
            checks.expect((self.out_dir(r.index) / "front.csv").read_bytes() == front_bytes,
                          f"front.csv of command {r.index} differs from command "
                          f"{results[-1].index} (same seed)")
        recorded = same_as_recorded(self.record_path(ro), front_bytes)
        if recorded is not None:
            checks.expect(recorded, "front.csv differs from the one an earlier run of the "
                                    "same sources and seed recorded in this checkout")
        rows = [line.split(",") for line in front_bytes.decode().splitlines()[1:]]
        files = sorted(last.glob("placement_*.txt"))
        checks.expect(len(files) == len(rows),
                      f"{len(files)} placement files for {len(rows)} front rows")
        eval_cfg = self.pso.eval_config()
        for path, (pid, m, f1, f2) in zip(files, rows):
            pl, _ = ro.files.load_placement(path)
            masks = ro.placement.placement_masks(pl, self.grid, self.room, strict=False)
            report = ro.placement.check_constraints(
                pl, self.room, self.grid, masks, m_max=eval_cfg.m_max,
                k_min=eval_cfg.k_min, d_min=eval_cfg.d_min)
            checks.expect(report.feasible, f"{path.name} violates the constraints")
            got = ro.objectives.evaluate(pl, self.room, self.grid, masks, eval_cfg)
            checks.expect((pl.m, float(got[0]), float(got[1])) == (int(m), float(f1), float(f2)),
                          f"{path.name} re-evaluates to {got}, front.csv row {pid} "
                          f"says ({f1}, {f2})")
        points = [(float(f1), float(f2)) for _, _, f1, f2 in rows]
        checks.expect(
            bool(points) and all(x < self.HV_REF[0] and y < self.HV_REF[1] for x, y in points),
            "front is empty or reaches beyond the hypervolume reference point")
        return {
            "front_hv": hypervolume_2d(points, self.HV_REF),
            "front_hv_ref": list(self.HV_REF),
            "front_size": len(points),
            "front_repeat": "recorded" if recorded is None else "compared",
            "optimizer_seed": self.OPT_SEED,
        }


class EvaluateRect(Workload):
    """``reflectopt evaluate`` once per placement of a batch in the 10x8 m rectangle.

    A pass scores the whole batch. The batch is 25 placements, so that a run
    makes several passes and each placement's median repeat is taken from
    several moments of the run.
    """

    name = "evaluate-rect"
    rate_name = "placements_per_s"
    ORACLE_SAMPLE = 3

    def prepare(self):
        super().prepare()
        self.config.write_text(inputs.config_text(inputs.RECT_VERTICES))
        batch = inputs.batch(self.name, self.seed)
        if self.tiny:
            batch = batch[:5]
        for i, p in enumerate(batch):
            (self.inputs / f"placement_{i:03d}.txt").write_text(
                inputs.placement_text(p["xy"], p["types"]))

    def setup(self, ro):
        super().setup(ro)
        self.placements = sorted(self.inputs.glob("placement_*.txt"))
        self.loaded = [ro.files.load_placement(p)[0] for p in self.placements]
        self.pass_size = len(self.placements)

    def out_dir(self, k):
        return self.run_dir / "eval_out"  # rewritten by every command

    def argv(self, k):
        return ["evaluate", "--config", str(self.config),
                "--placement", str(self.placements[k % self.pass_size]),
                "--out-dir", str(self.out_dir(k))]

    def work_units(self, result):
        return 1

    def check(self, results, ro, checks):
        n = self.pass_size
        objectives = {}
        for r in results:
            fields = dict(line.split(" = ", 1) for line in r.stdout.splitlines() if " = " in line)
            if not checks.expect(fields.get("feasible") == "true",
                                 f"command {r.index}: placement reported infeasible"):
                continue
            got = (int(fields["f1"]), float(fields["f2"]))
            checks.expect(objectives.setdefault(r.index % n, got) == got,
                          f"command {r.index}: objectives differ from an earlier repeat")
        checks.expect((self.out_dir(0) / "metrics.txt").read_text() == results[-1].stdout,
                      "metrics.txt differs from the printed metrics")
        seen = sorted(objectives)
        sample = sorted({seen[int(i * (len(seen) - 1) / max(1, self.ORACLE_SAMPLE - 1))]
                         for i in range(self.ORACLE_SAMPLE)}) if seen else []
        for idx in sample:
            self._oracle_check(ro, idx, objectives[idx], checks)
        return {"oracle_checked": sample}

    def _oracle_check(self, ro, idx, reported, checks):
        """Masks against the brute-force oracle; f1, f2 via the scalar oracles."""
        pl, grid, room = self.loaded[idx], self.grid, self.room
        name = self.placements[idx].name
        masks = inputs.brute_masks(inputs.RECT_VERTICES, pl.xy, grid.xy)
        checks.expect(np.array_equal(ro.placement.placement_masks(pl, grid, room), masks),
                      f"{name}: visibility masks differ from the brute-force oracle")
        fps = [ro.objectives.fingerprint(c, pl, masks, grid, 4, room.r_res) for c in grid.centers]
        counts = {}
        for fp in fps:
            counts[fp] = counts.get(fp, 0) + 1
        f1 = sum(counts[fp] >= 2 for fp in fps)
        f2 = math.fsum(ro.objectives.gdop(c, ro.placement.visible_reflectors(c, pl, masks, grid),
                                          room.r_res) for c in grid.centers)
        checks.expect(f1 == reported[0] and math.isclose(f2, reported[1], rel_tol=1e-9),
                      f"{name}: reported {reported}, scalar oracles give ({f1}, {f2})")


class SimulateL(Workload):
    """``reflectopt simulate --compare`` of two fixed placements in the L room,
    along the README path (14 m, 70 steps), so that a command takes well
    under a second and a run takes each command's median repeat from many.

    The placement pair is the stored default-seed pair for every benchmark
    seed; the seed sets the tracking noise. A pass is four commands, one per
    noise seed (``simulate --seed 4*seed+i``), the same four in every pass,
    so that repeats do identical work and must print identical reports.
    Filter cost depends on the placements and on whether a track diverges,
    because particles spread over more grid cells cost more; four tracks per
    pass keep that variation across benchmark seeds to a few percent.
    """

    name = "simulate-L"
    rate_name = "filter_steps_per_s"
    pass_size = 4
    trace_passes = 1

    def prepare(self):
        super().prepare()
        sim = dict(inputs.README_SIM, n_seeds=1)
        if self.tiny:
            sim.update(n_particles=200)
            self.pass_size = 1
        self.config.write_text(inputs.config_text(inputs.L_VERTICES, {"sim": sim},
                                                  path=inputs.README_PATH))
        pair = inputs.batch(self.name, inputs.DEFAULT_SEED)
        for label, p in zip("ab", pair):
            (self.inputs / f"placement_{label}.txt").write_text(
                inputs.placement_text(p["xy"], p["types"]))

    def setup(self, ro):
        super().setup(ro)
        ro.files.sim_configs_from_config(ro.files.load_config(self.config), self.room)
        for label in "ab":
            ro.files.load_placement(self.inputs / f"placement_{label}.txt")

    def out_dir(self, k):
        return self.run_dir / "sim_out"  # rewritten by every command

    def argv(self, k):
        return ["simulate", "--config", str(self.config),
                "--placement", str(self.inputs / "placement_a.txt"),
                "--compare", str(self.inputs / "placement_b.txt"),
                "--out-dir", str(self.out_dir(k)),
                "--seed", str(self.pass_size * self.seed + k % self.pass_size)]

    @staticmethod
    def _parse(stdout: str) -> list[dict]:
        """Per tracking report: runs, steps_per_run and the per-seed RMSE rows."""
        reports = []
        for block in stdout.split("tracking report: ")[1:]:
            fields = dict(line.split(" = ", 1) for line in block.splitlines() if " = " in line)
            header = block.index("seed rmse_full rmse_after_burn_in")
            rows = []
            for line in block[header:].splitlines()[1:]:
                if not line.strip():
                    break
                rows.append([float(x) for x in line.split()[1:]])
            reports.append({"runs": int(fields["runs"]),
                            "steps": int(fields["steps_per_run"]),
                            "median_rmse": float(fields["median_rmse"]),
                            "rmse": rows})
        return reports

    def work_units(self, result):
        # filter steps: every tracked step after the initial estimate
        try:
            return sum(r["runs"] * (r["steps"] - 1) for r in self._parse(result.stdout))
        except (KeyError, ValueError):
            return 0  # the check reports the malformed report

    def check(self, results, ro, checks):
        first = results[:self.pass_size]
        for r in results[self.pass_size:]:
            checks.expect(r.stdout == first[r.index % self.pass_size].stdout,
                          f"command {r.index}: report differs from an earlier repeat")
        checks.expect((self.out_dir(0) / "report.txt").read_text() == results[-1].stdout,
                      "report.txt differs from the printed report")
        rmse = {"a": [], "b": []}  # post-burn-in RMSE per placement
        for r in first:
            try:
                reports = self._parse(r.stdout)
            except (KeyError, ValueError) as exc:
                checks.expect(False, f"command {r.index}: report does not parse ({exc!r})")
                continue
            complete = (len(reports) == 2 and "winner = " in r.stdout
                        and all(len(rep["rmse"]) == rep["runs"] for rep in reports))
            if not checks.expect(complete, f"command {r.index}: report is incomplete"):
                continue
            values = [v for rep in reports for row in rep["rmse"] for v in row]
            checks.expect(all(math.isfinite(v) for v in values),
                          f"command {r.index}: non-finite RMSE")
            for label, rep in zip("ab", reports):
                rmse[label] += [row[1] for row in rep["rmse"]]
        return {"rmse_median_m": [float(np.median(v)) if v else None for v in rmse.values()]}


WORKLOADS = {w.name: w for w in (OptimizeL, EvaluateRect, SimulateL)}
