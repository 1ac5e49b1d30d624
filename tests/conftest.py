import numpy as np
import pytest

from reflectopt.geom import Polygon, RoomModel, build_grid


@pytest.fixture(scope="session")
def unit_square():
    return Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="session")
def l_room_poly():
    # 10 x 8 rectangle minus the 5 x 4 top-left block.
    return Polygon([(0, 0), (10, 0), (10, 8), (5, 8), (5, 4), (0, 4)])


@pytest.fixture(scope="session")
def readme_l_room(l_room_poly):
    # The README L room: 0.2 m grid (1500 elements), cone radius 4.5 m.
    return RoomModel(boundary=l_room_poly, grid_size=0.2, z_r=0.5, z_l=5.0, r_res=0.075,
                     cone_half_angle=np.deg2rad(45.0), wall_margin=0.5)


@pytest.fixture(scope="session")
def small_room():
    # 4 x 4 m test room with a wide cone: radius (4.5-0.5)*tan(60 deg) ~ 6.9 m.
    return RoomModel(
        boundary=Polygon([(0, 0), (4, 0), (4, 4), (0, 4)]),
        grid_size=0.25,
        z_r=0.5,
        z_l=4.5,
        r_res=0.075,
        cone_half_angle=np.deg2rad(60.0),
        wall_margin=0.5,
    )


@pytest.fixture(scope="session")
def small_grid(small_room):
    return build_grid(small_room)


def segment_visible(q_xy, pts, poly) -> np.ndarray:
    """Brute-force oracle: does the open segment q->p cross any wall edge?

    Strict crossings only, so touching a wall or grazing a vertex still
    counts as visible (matches the closed-set visibility convention).
    """
    q = np.asarray(q_xy, float)
    pts = np.asarray(pts, float)
    a = poly.vertices
    b = np.roll(a, -1, axis=0)
    vis = np.ones(len(pts), dtype=bool)
    for i in range(len(a)):
        p2, q2 = a[i], b[i]
        d1 = (q2[0] - p2[0]) * (q[1] - p2[1]) - (q2[1] - p2[1]) * (q[0] - p2[0])
        d2 = (q2[0] - p2[0]) * (pts[:, 1] - p2[1]) - (q2[1] - p2[1]) * (pts[:, 0] - p2[0])
        d3 = (pts[:, 0] - q[0]) * (p2[1] - q[1]) - (pts[:, 1] - q[1]) * (p2[0] - q[0])
        d4 = (pts[:, 0] - q[0]) * (q2[1] - q[1]) - (pts[:, 1] - q[1]) * (q2[0] - q[0])
        crossing = ((d1 * d2) < -1e-12) & ((d3 * d4) < -1e-12)
        vis &= ~crossing
    return vis


def mc_visibility_area(q_xy, poly, n_samples=100_000, seed=0) -> float:
    """Monte-Carlo visibility area via segment-intersection sampling."""
    rng = np.random.default_rng(seed)
    xmin, ymin, xmax, ymax = poly.bounds
    total = 0
    visible = 0
    while total < n_samples:
        batch = min(20_000, n_samples - total)
        s = rng.uniform([xmin, ymin], [xmax, ymax], size=(batch, 2))
        inside = poly.contains_points(s)
        s = s[inside]
        visible += int(segment_visible(q_xy, s, poly).sum())
        total += len(s)
    box_area = (xmax - xmin) * (ymax - ymin)
    # total counts only in-polygon samples; rescale by acceptance to box area
    return poly.area * visible / total
