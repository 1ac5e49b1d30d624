"""Walkthrough: turning an infeasible placement feasible.

Starts from a deliberately bad placement (all reflectors clustered in one
corner of an L-shaped room), then lets the repair loop run: reflectors
repel each other like equal-polarity magnets when closer than the minimum
spacing, each under-covered grid region recruits just the reflectors it is
missing, and every reflector is projected back behind the wall margin.
Prints the violation counts before and after, and the iterations it took.

Run:  python3 demos/repair_demo.py
"""

import numpy as np

from reflectopt.geom import Polygon, RoomModel
from reflectopt.placement import Placement, check_constraints, placement_masks, type_assignment
from reflectopt.objectives import EvalConfig
from reflectopt.repair import repair

room = RoomModel(
    boundary=Polygon([(0, 0), (10, 0), (10, 8), (5, 8), (5, 4), (0, 4)]),
    grid_size=0.2,
    z_r=0.5,
    z_l=4.0,
    cone_half_angle=np.deg2rad(45.0),
    wall_margin=0.5,
)
grid = room.grid
cfg = EvalConfig()
rng = np.random.default_rng(2)

m = 16
xy = np.array([7.5, 2.0]) + rng.uniform(-0.5, 0.5, size=(m, 2))
start = Placement(xy=xy, types=type_assignment(m, 1), z=room.z_l)
print(f"{m} reflectors clustered near (7.5, 2.0); grid has {len(grid)} elements\n")


def show(label, pl):
    masks = placement_masks(pl, grid, room, strict=False)
    report = check_constraints(pl, room, grid, masks, m_max=cfg.m_max,
                               k_min=cfg.k_min, d_min=cfg.d_min)
    print(f"{label}: under-covered elements {len(report.coverage_violations):4d}, "
          f"spacing violations {len(report.spacing_violations):3d}, "
          f"margin violations {len(report.margin_violations)}")


show("before repair", start)
pl, feasible, iterations = repair(start, room, cfg, rng)
show("after repair ", pl)

if feasible:
    print(f"\nfeasible placement reached after {iterations} iterations")
else:
    print(f"\nno feasible placement within the cap of {iterations} iterations")

print("\nfinal reflector positions:")
for i, (x, y) in enumerate(pl.xy):
    print(f"  {i:2d}: ({x:6.2f}, {y:6.2f})")
