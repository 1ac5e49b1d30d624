"""The wall-margin region of a room: its corners and its nearest points.

The region R is the set of points ``geom.in_margin`` accepts, taken at the
offset t = wall_margin + _PROJECT_TOL / 2 that ``geom.project_into_margin``
moves points to. Its boundary runs along the wall lines shifted inward by t
and the circles of radius t around the vertices: the offset curves of Held,
*On the Computational Geometry of Pocket Machining* (LNCS 500, 1991). So the
nearest point of R to a point outside it is the point's foot on a shifted
line, its nearest point on a circle, or a corner of R, where two of these
meet. Loaded by the first projection or corner query; ``evaluate`` and
``simulate`` never load it.
"""

from __future__ import annotations

import numpy as np

from .geom import _PROJECT_TOL, RoomModel, in_margin


def _cross(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0]


def _offset_lines(room: RoomModel) -> tuple[float, np.ndarray, np.ndarray]:
    """(t, point, unit direction): the offset and each wall line shifted inward by it."""
    t = room.wall_margin + 0.5 * _PROJECT_TOL
    a, b = room.boundary._edges
    u = (b - a) / np.hypot(*(b - a).T)[:, None]
    return t, a + t * np.column_stack([-u[:, 1], u[:, 0]]), u


def corners(room: RoomModel) -> np.ndarray:
    """(n, 2) points where two shifted lines or circles meet and that ``in_margin`` accepts."""
    t, o, u = _offset_lines(room)
    v = room.boundary.vertices
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel or missed: non-finite
        # lines i and j meet where line i crosses line j
        i, j = np.triu_indices(len(v), 1)
        lines = o[i] + (_cross(o[j] - o[i], u[j]) / _cross(u[i], u[j]))[:, None] * u[i]
        # line i and circle k: the foot of vertex k on line i, plus or minus half the chord
        i, k = np.divmod(np.arange(len(v) ** 2), len(v))
        ov = v[k] - o[i]
        foot = o[i] + np.einsum("ij,ij->i", ov, u[i])[:, None] * u[i]
        chord = np.sqrt(t * t - _cross(u[i], ov) ** 2)[:, None] * u[i]
        # circles j and k: the midpoint of their centres, plus or minus half the
        # common chord, normal to d
        j, k = np.triu_indices(len(v), 1)
        d = v[k] - v[j]
        mid = 0.5 * (v[j] + v[k])
        half = np.sqrt(t * t / np.einsum("ij,ij->i", d, d) - 0.25)[:, None]
        lens = half * np.column_stack([-d[:, 1], d[:, 0]])
    pts = np.concatenate([lines, foot - chord, foot + chord, mid - lens, mid + lens])
    pts = pts[np.isfinite(pts).all(axis=1)]
    return pts[in_margin(pts, room)]


def nearest_points(pts: np.ndarray, room: RoomModel) -> np.ndarray:
    """The nearest point of R to each finite point outside it; ValueError if R is empty.

    Of the candidates that ``in_margin`` accepts the nearest wins, the first
    of them on a tie, in the order feet, circle points, corners.
    """
    c = room.margin_corners
    if not len(c):
        raise ValueError(f"wall_margin = {room.wall_margin:g} leaves no room point to project onto")
    t, o, u = _offset_lines(room)
    v = room.boundary.vertices
    p = pts[:, None, :]
    feet = o + np.einsum("nij,ij->ni", p - o, u)[..., None] * u
    r = p - v
    with np.errstate(divide="ignore", invalid="ignore"):  # p on a vertex: NaN, rejected
        circle = v + t * r / np.hypot(r[..., 0], r[..., 1])[..., None]
    cand = np.concatenate([feet, circle], axis=1)
    ok = in_margin(cand.reshape(-1, 2), room).reshape(cand.shape[:2])
    cand = np.concatenate([cand, np.broadcast_to(c, (len(pts), *c.shape))], axis=1)
    ok = np.concatenate([ok, np.ones((len(pts), len(c)), dtype=bool)], axis=1)
    diff = cand - p
    dist2 = np.where(ok, diff[..., 0] * diff[..., 0] + diff[..., 1] * diff[..., 1], np.inf)
    return cand[np.arange(len(pts)), np.argmin(dist2, axis=1)]
