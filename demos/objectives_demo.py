"""Walkthrough: fingerprints, the ambiguity map, and the GDOP map.

Computes both placement objectives for one hand-made placement and explains
what the numbers mean. Exports the per-element maps as CSV and PGM.

Run:  python3 demos/objectives_demo.py
"""

import pathlib

import numpy as np

from reflectopt.files import write_ambiguity_pgm, write_map_csv, write_value_pgm
from reflectopt.geom import Polygon, RoomModel, build_grid
from reflectopt.objectives import ambiguity, fingerprint, gdop_objective
from reflectopt.placement import placement_masks, type_assignment, Placement

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

room = RoomModel(
    boundary=Polygon([(0, 0), (6, 0), (6, 5), (0, 5)]),
    grid_size=0.2,
    z_r=0.5,
    z_l=4.0,
    r_res=0.075,
    cone_half_angle=np.deg2rad(60.0),
    wall_margin=0.5,
)
grid = build_grid(room)

xy = np.array([
    [1.0, 1.0], [3.0, 0.8], [5.0, 1.2], [1.2, 4.0],
    [3.0, 4.2], [5.0, 3.9], [2.1, 2.6], [4.0, 2.4],
])
pl = Placement(xy=xy, types=type_assignment(len(xy), 2), z=room.z_l)
masks = placement_masks(pl, grid, room)
print(f"{pl.m} reflectors (types {pl.types.tolist()}), {len(grid)} grid elements")

c = grid.centers[len(grid) // 2]
fp = fingerprint(c, pl, masks, grid, n=4, r_res=room.r_res)
print(f"\nfingerprint at ({c[0]:.1f}, {c[1]:.1f}): {fp.entries}")
print("(each entry is a distance bin of width r_res plus the reflector type)")

f1, amb = ambiguity(pl, room, grid, masks, n=4, r_res=room.r_res)
print(f"\nambiguity objective f1 = {f1} of {len(grid)} elements")
print(f"  unique {amb.n_unique}, locally ambiguous {amb.n_local}, "
      f"globally ambiguous {amb.n_global}")
print("  (global = same fingerprint appears in disconnected room regions)")

f2, gdop_map = gdop_objective(pl, room, grid, masks, sigma_r=room.r_res)
print(f"\nGDOP objective f2 = {f2:.4f} (sum over elements)")
print(f"  per-element range: {gdop_map.min():.4f} .. {gdop_map.max():.4f}")
print("  (high values mean range errors blow up into position errors)")

write_map_csv(OUT / "ambiguity_map.csv", grid, amb.classes, header="x,y,class")
write_ambiguity_pgm(OUT / "ambiguity_map.pgm", grid, amb.classes)
write_map_csv(OUT / "gdop_map.csv", grid, gdop_map)
write_value_pgm(OUT / "gdop_map.pgm", grid, gdop_map)
print(f"\nwrote maps to {OUT}/")
