"""Command-line interface: optimize, evaluate, and simulate placements.

Exit codes: 0 success, 2 input/config error, 3 optimizer initialization
failure, 4 infeasible placement passed to simulate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import files
from .geom import build_grid
from .mopso import run as run_pso
from .objectives import EvalConfig, ambiguity, gdop_objective, penalty_pair
from .placement import check_constraints, placement_masks
from .harness import run_experiment

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INIT = 3
EXIT_INFEASIBLE = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflectopt",
        description="Reflector placement optimization and tracking simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run the placement optimizer")
    p_opt.add_argument("--config", required=True, help="room + [pso] config file")
    p_opt.add_argument("--out-dir", required=True)
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.add_argument("--iterations", type=int, default=None)
    p_opt.add_argument("--particles", type=int, default=None)

    p_eval = sub.add_parser("evaluate", help="score a placement file")
    p_eval.add_argument("--config", required=True, help="room config file")
    p_eval.add_argument("--placement", required=True)
    p_eval.add_argument("--out-dir", required=True)

    p_sim = sub.add_parser("simulate", help="track a robot against a placement")
    p_sim.add_argument("--config", required=True, help="room + [sim]/[path] config file")
    p_sim.add_argument("--placement", required=True)
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--compare", default=None,
                       help="second placement for a matched-seed paired report")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
    except files.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError("unreachable")


def _cmd_optimize(args) -> int:
    sections = files.load_config(args.config)
    room = files.room_from_config(sections)
    config = files.pso_config_from_config(
        sections,
        seed=args.seed,
        iterations=args.iterations,
        swarm_size=args.particles,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def snapshot(iteration, archive):
        files.write_front(out / f"front_iter_{iteration:05d}.csv", archive)

    try:
        archive, log = run_pso(room, config, snapshot_cb=snapshot)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INIT

    files.write_front(out / "front.csv", archive)
    files.write_log(out / "log.csv", log)
    for i, entry in enumerate(archive.entries):
        files.write_placement(out / f"placement_{i:03d}.txt", entry.placement, config.n_types)
    print(f"front: {len(archive)} placements, best f1={log[-1].best_f1:g} "
          f"best f2={log[-1].best_f2:g} ({log[-1].evaluations} evaluations)")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    sections = files.load_config(args.config)
    room = files.room_from_config(sections)
    cfg = files.eval_config_from_config(sections)
    pl, n_types = files.load_placement(args.placement)
    grid = build_grid(room)
    masks = placement_masks(pl, grid, room, strict=False)
    report = check_constraints(pl, room, grid, masks, m_max=cfg.m_max,
                               k_min=cfg.k_min, d_min=cfg.d_min)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = [
        f"placement = {args.placement}",
        f"m = {pl.m}",
        f"n_types = {n_types}",
        f"feasible = {str(report.feasible).lower()}",
        f"m_ok = {str(report.m_ok).lower()}",
        f"coverage_ok = {str(report.coverage_ok).lower()} "
        f"({len(report.coverage_violations)} grid elements short)",
        f"spacing_ok = {str(report.spacing_ok).lower()} "
        f"(violating pairs: {report.spacing_violations})",
        f"margin_ok = {str(report.margin_ok).lower()} "
        f"(violating reflectors: {report.margin_violations.tolist()})",
    ]
    f1, f2 = penalty_pair(grid, room.r_res)
    map_lines = ["maps skipped: coverage constraint violated"]
    if report.coverage_ok:
        f1_map, amb_map = ambiguity(pl, room, grid, masks, cfg.n, room.r_res)
        f2_map, gdop_map = gdop_objective(pl, room, grid, masks, room.r_res)
        if report.feasible:  # the pair objectives.evaluate returns, read off the maps
            f1, f2 = f1_map, f2_map
        map_lines = [
            f"ambiguous_local = {amb_map.n_local}",
            f"ambiguous_global = {amb_map.n_global}",
            f"unique = {amb_map.n_unique}",
        ]
        files.write_map_csv(out / "ambiguity_map.csv", grid, amb_map.classes,
                            header="x,y,class")
        files.write_ambiguity_pgm(out / "ambiguity_map.pgm", grid, amb_map.classes)
        files.write_map_csv(out / "gdop_map.csv", grid, gdop_map)
        files.write_value_pgm(out / "gdop_map.pgm", grid, gdop_map)
    lines += [f"f1 = {f1}", f"f2 = {f2!r}"] + map_lines

    text = "\n".join(lines) + "\n"
    (out / "metrics.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    sections = files.load_config(args.config)
    room = files.room_from_config(sections)
    pl, _ = files.load_placement(args.placement)
    grid = build_grid(room)
    path_cfg, noise_cfg, amcl_cfg, seeds, burn_in = files.sim_configs_from_config(
        sections, room, seed=args.seed
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    placements = [("placement", pl, Path(args.placement))]
    if args.compare:
        pl2, _ = files.load_placement(args.compare)
        placements.append(("compare", pl2, Path(args.compare)))

    cfg = EvalConfig()
    reports = {}
    for label, placement, src in placements:
        masks = placement_masks(placement, grid, room, strict=False)
        report = check_constraints(placement, room, grid, masks, m_max=cfg.m_max,
                                   k_min=cfg.k_min, d_min=cfg.d_min)
        if not report.feasible:
            print(f"error: {src} is infeasible; cannot simulate", file=sys.stderr)
            return EXIT_INFEASIBLE
        reports[label] = run_experiment(
            room, placement, path_cfg, noise_cfg, seeds,
            amcl_config=amcl_cfg, burn_in=burn_in, grid=grid, masks=masks,
        )

    text_parts = []
    for label, _, src in placements:
        rep = reports[label]
        text_parts.append(files.format_report(rep, f"{label} ({src})"))
        files.write_histogram(out / f"error_histogram_{label}.csv", rep)
        for trace in rep.traces:
            files.write_trace(out / f"trace_{label}_seed{trace.seed}.csv", trace)
    if args.compare:
        a = reports["placement"].median_rmse
        b = reports["compare"].median_rmse
        text_parts.append(
            "paired comparison (matched seeds)\n"
            f"median_rmse_placement = {a!r}\n"
            f"median_rmse_compare = {b!r}\n"
            f"winner = {'placement' if a < b else 'compare'}\n"
        )
    text = "\n".join(text_parts)
    (out / "report.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
