"""Exact hypervolume of a two-objective front (both objectives minimised).

Sweep in the order of the first objective, keeping the staircase of points
that improve the second one (Zitzler & Thiele 1999, IEEE TEVC 3(4)).
"""

from __future__ import annotations


def hypervolume_2d(points, ref) -> float:
    """Area dominated by ``points`` and bounded by the reference point ``ref``.

    Points that do not strictly dominate ``ref`` contribute nothing.
    """
    rx, ry = float(ref[0]), float(ref[1])
    pts = sorted((float(x), float(y)) for x, y in points if x < rx and y < ry)
    stairs = []
    best_y = ry
    for x, y in pts:
        if y < best_y:
            stairs.append((x, y))
            best_y = y
    area = 0.0
    for (x, y), (x_next, _) in zip(stairs, stairs[1:] + [(rx, ry)]):
        area += (x_next - x) * (ry - y)
    return area
