import numpy as np
import pytest

from reflectopt.geom import Polygon, RoomModel, build_grid


# A feasible 22-reflector placement of the README L room at z_l = 5.0 (k_min 4,
# d_min 0.5, types alternating from 0).
L_ROOM_PLACEMENT_XY = (
    (1.6667320581479317, 1.126714132080122),
    (2.9391011208308964, 1.4143028006877758),
    (4.139353586000666, 1.0060528703560194),
    (6.354125151609401, 1.1973907531134993),
    (7.893062898538003, 1.2008025136781455),
    (8.748788766827671, 1.0638977409836203),
    (1.6039331741397334, 2.41149756615342),
    (3.12750674577835, 2.9574874243125935),
    (4.1074944504416395, 2.4709732882217845),
    (5.166386743048153, 2.5008580379897527),
    (6.325316521321116, 2.2833531306505392),
    (8.068464152209174, 2.108527889272016),
    (9.055684730369338, 2.848672174350384),
    (6.142292250714647, 4.226734730755472),
    (8.062758103147521, 3.8671247893018683),
    (9.47943025314282, 3.682568609385252),
    (6.444901419148138, 5.2870226470338215),
    (8.254865873939583, 4.6445810556362),
    (8.608962727473111, 5.410725580038778),
    (6.618937393314491, 6.140355367185201),
    (8.19200075472616, 5.855376881379405),
    (9.025024080411635, 6.550997042110559),
)


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
