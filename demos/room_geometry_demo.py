"""Walkthrough: room model, grid, visibility polygons, and visibility masks.

Builds an L-shaped room, places one reflector, and shows how its detection
region (cone AND line of sight) is computed. Writes PGM rasters you can open
with any image viewer, plus a PNG overview if matplotlib is available.

Run:  python3 demos/room_geometry_demo.py
"""

import pathlib

import numpy as np

from reflectopt.geom import (
    Polygon, RoomModel, build_grid, visibility_mask, visibility_polygon,
)
from reflectopt.files import write_value_pgm

OUT = pathlib.Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

room = RoomModel(
    boundary=Polygon([(0, 0), (10, 0), (10, 8), (5, 8), (5, 4), (0, 4)]),
    grid_size=0.1,
    z_r=0.5,
    z_l=4.0,
    r_res=0.075,
    cone_half_angle=np.deg2rad(45.0),
    wall_margin=0.5,
)
grid = build_grid(room)
print(f"room area {room.boundary.area:.1f} m^2, grid of {len(grid)} elements "
      f"({room.grid_size} m pitch), cone radius {room.cone_radius:.2f} m")

reflector = np.array([2.5, 2.0, room.z_l])
vis_poly = visibility_polygon(reflector[:2], room.boundary)
print(f"visibility polygon from {reflector[:2]}: area {vis_poly.area:.2f} m^2 "
      f"of {room.boundary.area:.1f} m^2 (the notch shadows the rest)")

# The cone alone: elements within the cone radius of the reflector, the rule
# that visibility_mask applies before the line-of-sight test.
cone = np.hypot(grid.xy[:, 0] - reflector[0], grid.xy[:, 1] - reflector[1]) <= room.cone_radius
full = visibility_mask(reflector, grid, room)
print(f"cone covers {cone.sum()} elements; cone AND line-of-sight: {full.sum()}")

write_value_pgm(OUT / "cone_mask.pgm", grid, cone.astype(float))
write_value_pgm(OUT / "visibility_mask.pgm", grid, full.astype(float))
print(f"wrote {OUT / 'cone_mask.pgm'} and {OUT / 'visibility_mask.pgm'}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(11, 4))
    for ax, mask, title in ((axes[0], cone, "cone only"),
                            (axes[1], full, "cone AND line of sight")):
        ax.scatter(grid.xy[mask, 0], grid.xy[mask, 1], s=4, c="tab:red", label="detectable")
        ax.scatter(grid.xy[~mask, 0], grid.xy[~mask, 1], s=4, c="0.85")
        outline = np.vstack([room.boundary.vertices, room.boundary.vertices[:1]])
        ax.plot(outline[:, 0], outline[:, 1], "k-")
        ax.plot(*reflector[:2], "k*", markersize=14)
        ax.set_title(title)
        ax.set_aspect("equal")
    fig.tight_layout()
    fig.savefig(OUT / "visibility_demo.png", dpi=110)
    print(f"wrote {OUT / 'visibility_demo.png'}")
except ImportError:
    print("matplotlib not installed; skipped the PNG overview")
