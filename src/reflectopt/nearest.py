"""Exact nearest-element search over a grid's lattice, with numpy alone.

``geom.Grid.nearest_element`` builds one ``NearestSearch`` per grid on first
use, so ``optimize`` and ``evaluate``, which never ask for a nearest element,
neither load nor build it.
"""

from __future__ import annotations

import numpy as np

from .geom import Grid, _as_points

# Relative distance from a lattice cell edge within which a point searches a
# window of cells; the window's distance bound keeps the same relative slack.
_CELL_TOL = 1e-9
# Points per chunk of the window search, and point-element distances per
# chunk of the search over all elements.
_WINDOW_CHUNK = 2048
_FULL_CHUNK = 1 << 15


class NearestSearch:
    """``Grid.nearest_element`` of one grid, with its tables.

    The tables cover the lattice padded by two cells on each side. A point
    (x, y) lies at raster coordinates ``((x, y) - origin) * scale``, with the
    cell centers at integers; lattice column and row 0 lie at 2.
    """

    __slots__ = ("origin", "scale", "top", "strides", "cells", "inner", "window", "z",
                 "row_starts", "near")

    def __init__(self, grid: Grid):
        ny, nx = grid.cell_index.shape
        padded = np.full((ny + 6, nx + 6), -1, dtype=np.intp)
        padded[3:3 + ny, 3:3 + nx] = grid.cell_index
        window = np.stack([padded[r:r + ny + 4, c:c + nx + 4] for r in range(3) for c in range(3)],
                          axis=2).reshape(-1, 9)
        # A window's empty cells repeat its first, lowest element, which keeps
        # the first minimum; a window without elements holds element 0, which
        # lies farther than the 1.5-cell bound from every point it serves.
        first = np.where(window >= 0, window, len(grid)).min(axis=1, keepdims=True)
        first[first == len(grid)] = 0
        # (2, 1) columns, against the (2, points) raster coordinates
        self.origin = np.array([[grid.x0], [grid.y0]]) - 1.5 * grid.size
        self.scale = 1.0 / grid.size
        self.top = np.array([[nx + 2.0], [ny + 2.0]])  # points are clamped to [1, top]
        self.strides = np.array([1.0, nx + 4.0])  # raster (column, row) to flat index
        # element index per raster cell, -1 where none
        self.cells = padded[1:-1, 1:-1].ravel()
        # a point closer than this to a cell's center, in both coordinates,
        # is nearest to the cell's element
        self.inner = np.where(self.cells >= 0, 0.5 - _CELL_TOL, -1.0)
        # (cells, 9): the elements of the 3 x 3 cells around each cell, in raster order
        self.window = np.where(window >= 0, window, first)
        self.z = grid.xy[:, 0] + 1j * grid.xy[:, 1]  # element centers as complex numbers
        self.row_starts = np.arange(0, 9 * _WINDOW_CHUNK, 9)  # in a flattened chunk of windows
        # squared distance below which the window's nearest element stands
        self.near = 2.25 * grid.size * grid.size * (1.0 - 2 * _CELL_TOL)

    def nearest(self, points) -> np.ndarray:
        """``Grid.nearest_element``: the lowest index of the least ``dx * dx + dy * dy``.

        The lattice cells are the Voronoi cells of the lattice centers, and
        the grid centers are a subset of those, so a point more than a
        relative _CELL_TOL inside a cell that holds a grid element has that
        element as its unique nearest center: rounding finds it. Every other
        point (on or near a cell edge, in a cell whose center lies outside
        the room, off the lattice) goes to _window_search, in chunks.
        """
        pts = np.ascontiguousarray(_as_points(points))
        # one row per coordinate, so that the clamp broadcasts along rows
        u = np.subtract(pts.T, self.origin, out=np.empty((2, len(pts))))
        u *= self.scale
        # fmax also sends NaN to the padding, where no element is trusted
        np.minimum(np.fmax(u, 1.0, out=u), self.top, out=u)
        cell = np.rint(u)
        flat = np.dot(self.strides, cell).astype(np.intp)
        found = self.cells.take(flat)
        np.abs(np.subtract(u, cell, out=u), out=u)
        rest = (np.maximum(u[0], u[1]) >= self.inner.take(flat)).nonzero()[0]
        pts = pts.view(complex)  # each row as one complex number x + iy
        for s in range(0, len(rest), _WINDOW_CHUNK):
            part = rest[s:s + _WINDOW_CHUNK]
            found[part] = self._window_search(pts.take(part, axis=0), flat.take(part))
        return found

    def _window_search(self, pts, flat) -> np.ndarray:
        """Answers for complex points in the raster cells ``flat``.

        The candidates are the elements of the 3 x 3 cells around each
        point's cell, and the nearest of them stands if it lies closer than
        1.5 cells: every element outside the window lies at least that far
        away. The other points compare all elements.
        """
        cand = self.window.take(flat, axis=0)
        diff = self.z.take(cand)
        diff -= pts
        sq = diff.view(float)
        sq *= sq
        d2 = sq[:, ::2] + sq[:, 1::2]
        # the candidates run in raster order, so the first minimum has the lowest index
        k = d2.argmin(axis=1) + self.row_starts[:len(pts)]
        found = cand.take(k)
        # NaN distances, from NaN points, fail this test too
        settled = d2.take(k) < self.near
        if not settled.all():
            left = (~settled).nonzero()[0]
            found[left] = self._nearest_of_all(pts.take(left, axis=0))
        return found

    def _nearest_of_all(self, pts) -> np.ndarray:
        """Answers for complex points, comparing all elements in chunks."""
        if not np.isfinite(pts).all():
            raise ValueError("nearest_element needs finite points")
        step = max(1, _FULL_CHUNK // len(self.z))
        found = np.empty(len(pts), dtype=np.intp)
        for s in range(0, len(pts), step):
            diff = (self.z - pts[s:s + step]).view(float)
            diff *= diff
            found[s:s + step] = (diff[:, ::2] + diff[:, 1::2]).argmin(axis=1)
        return found
