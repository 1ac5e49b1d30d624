"""Walkthrough: robot tracking with Monte Carlo localization.

Drives a simulated robot along a rectangular loop, feeding the particle
filter noisy odometry and noisy reflector-distance fingerprints, and prints
how the position error evolves. Shows the placement-quality effect:
a well-spread placement localizes noticeably better than a poor one.

Run:  python3 demos/tracking_demo.py
"""

import math

import numpy as np

from reflectopt.amcl import AmclConfig
from reflectopt.geom import Polygon, RoomModel
from reflectopt.harness import NoiseConfig, gen_path, run_experiment
from reflectopt.objectives import ambiguity
from reflectopt.placement import placement_masks
from reflectopt.repair import random_feasible

room = RoomModel(
    boundary=Polygon([(0, 0), (4, 0), (4, 4), (0, 4)]),
    grid_size=0.25,
    z_r=0.5,
    z_l=4.5,
    r_res=0.075,
    cone_half_angle=np.deg2rad(60.0),
    wall_margin=0.5,
)
grid = room.grid
path = gen_path(  # start pose and 0.2 m steps, built once for both placements
    [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0), (1.0, 1.0),
     (3.0, 1.0), (3.0, 3.0), (1.0, 3.0), (1.0, 1.0)],
    step=0.2, room=room,
)
noise = NoiseConfig()  # measurement sigma = r_res, odometry 2 cm / 5 deg
amcl = AmclConfig(n_particles=1500)

print("comparing two feasible placements of 9 reflectors (2 types):")
for label, seed in (("placement A", 3), ("placement B", 19)):
    pl = random_feasible(room, 9, 2, np.random.default_rng(seed))
    masks = placement_masks(pl, grid, room)
    f1, _ = ambiguity(pl, grid, masks, 4, room.r_res, with_map=False)
    report = run_experiment(room, pl, path, noise, seeds=[0, 1, 2],
                            amcl_config=amcl, grid=grid, masks=masks)
    print(f"  {label}: ambiguity f1 = {f1:4d} / {len(grid)}   "
          f"median RMSE after burn-in = {report.median_rmse * 100:.1f} cm")

print("\nper-step error profile of the last run (seed 2):")
trace = report.traces[-1]
for k in range(0, len(trace.errors), 12):
    bar = "#" * int(trace.errors[k] * 100)
    print(f"  step {k:3d}  {trace.errors[k] * 100:5.1f} cm  {bar}")
print(f"\nRMSE over the whole path: {trace.rmse_full * 100:.1f} cm "
      f"(radar range resolution is {room.r_res * 100:.1f} cm)")
