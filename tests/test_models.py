from dataclasses import replace

import numpy as np
import pytest

from confgauss import grid as G
from confgauss import jets as J
from confgauss import models
from confgauss import lorentz as lz
from confgauss.lorentz import V_L, lift, lorentz_product
from confgauss.zoo import SURFACES
from conftest import cone_map, data_for, hyper, hyper_inv, stereo, stereo_inv, transfer_law


# each point map in closed form, and through the cone charts
STEREO = (stereo, lambda p: cone_map(p, "s3", "r3"))
STEREO_INV = (stereo_inv, lambda x: cone_map(x, "r3", "s3"))
HYPER = (hyper, lambda z: cone_map(z, "h3", "r3"))
HYPER_INV = (hyper_inv, lambda x: cone_map(x, "r3", "h3"))


def test_stereo_examples():
    for f in STEREO:
        assert np.allclose(f([0, 0, 0, -1]), [0, 0, 0])
        assert np.allclose(f([1, 0, 0, 0]), [1, 0, 0])


def test_stereo_inv_examples():
    x = np.array([0.6, 0.8, 0.0])
    for f in STEREO_INV:
        assert np.allclose(f([0, 0, 0]), [0, 0, 0, -1])
        assert np.allclose(f(x), np.concatenate([x, [0.0]]))  # the unit circle is fixed


def test_stereo_round_trip(rng):
    pts = rng.normal(size=(10000, 3))
    for f, f_inv in zip(STEREO, STEREO_INV):
        assert np.max(np.abs(f(f_inv(pts)) - pts)) <= 1e-12


def test_hyper_examples():
    d = 0.8
    for f in HYPER:
        assert np.allclose(f([0, 0, 0, 1]), [0, 0, 0])
        out = f([np.sinh(d), 0, 0, np.cosh(d)])
        assert out[0] == pytest.approx(np.tanh(d / 2.0), abs=1e-14)


def test_hyper_inv_examples():
    for f in HYPER_INV:
        assert np.allclose(f([0, 0, 0]), [0, 0, 0, 1])
        assert np.allclose(f([0.5, 0, 0]), [4.0 / 3.0, 0, 0, 5.0 / 3.0])


def test_hyper_round_trip(rng):
    x = rng.uniform(-0.57, 0.57, size=(10000, 3))  # inside the unit ball
    for f, f_inv in zip(HYPER, HYPER_INV):
        z = f_inv(x)
        q = z[:, 0] ** 2 + z[:, 1] ** 2 + z[:, 2] ** 2 - z[:, 3] ** 2
        assert np.max(np.abs(q + 1.0)) <= 1e-10
        assert np.max(np.abs(f(z) - x)) <= 1e-12


def test_lift_examples():
    assert np.allclose(lift(np.zeros(3), "r3"), [0, 0, 0, -0.5, 0.5])
    assert np.allclose(lift(np.array([1.0, 0.0, 0.0]), "r3"), [1, 0, 0, 0, 1])
    # V_L is the lift of infinity: the inversion swaps it with the origin's
    # lift, and a translation fixes it
    inversion = lz.generator_matrix(lz.Generator("inv"))
    translation = lz.generator_matrix(lz.Generator("tra", (1.0, 2.0, 3.0)))
    assert np.allclose(inversion @ lift(np.zeros(3), "r3"), -V_L / 2.0)
    assert np.allclose(translation @ V_L, V_L)
    x = np.array([0.3, -0.2, 0.1])
    big_x = stereo_inv(x)
    assert lorentz_product(lift(big_x, "s3"), lift(big_x, "s3")) == pytest.approx(0.0, abs=1e-12)
    assert lorentz_product(lift(x, "r3"), lift(x, "r3")) == pytest.approx(0.0, abs=1e-12)


def test_lift_colinearity(rng):
    # lifts of pi / pi-tilde related points are positively proportional
    for _ in range(100):
        x = rng.uniform(-0.6, 0.6, size=3)
        p_r3 = lift(x, "r3")
        p_s3 = lift(stereo_inv(x), "s3")
        p_h3 = lift(hyper_inv(x), "h3")
        for other in (p_s3, p_h3):
            a = p_r3 / np.linalg.norm(p_r3)
            b = other / np.linalg.norm(other)
            assert np.linalg.norm(np.cross(a[:3], b[:3])) <= 1e-10
            assert np.max(np.abs(a - b)) <= 1e-10  # positively proportional


def _assert_transfer_law(data, target, tol=1e-12):
    """``representation`` obeys the transfer law, each field within ``tol``
    relative to max(1, its largest law value)."""
    rep = models.representation(data, target)
    for name, got, want in zip(("lam", "n", "H", "Omega"),
                               (rep.lam, rep.n, rep.H, rep.Omega),
                               transfer_law(data, target)):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= tol * scale, (target, name)


@pytest.mark.parametrize("name", [k for k, kind in SURFACES.items() if kind.model == "r3"])
def test_representation_obeys_the_s3_transfer_law(name):
    _assert_transfer_law(data_for(name, n=33), "s3")


# charts whose R^3 image lies inside the Poincare ball
BALL_CHARTS = [("cylinder", {"rho": 0.4, "domain": ((-0.4, 0.4), (-0.9, 0.9))}),
               ("sphere", {"R": 0.5}), ("hyperbolic_cylinder", {})]


@pytest.mark.parametrize("name, params", BALL_CHARTS, ids=[c[0] for c in BALL_CHARTS])
def test_representation_obeys_the_h3_transfer_law(name, params):
    data = models.representation(data_for(name, n=33, **params), "r3")
    _assert_transfer_law(data, "h3")


def _through_origin(data):
    """R^3 data of ``data``'s chart translated so that its centre node is 0."""
    g = data.grid
    centre = g.pos[len(g.u) // 2, len(g.v) // 2]
    grid = G.ChartGrid("r3", g.u, g.v, replace(g.jet, pos=g.pos - centre))
    return G.fundamental_data(grid), (len(g.u) // 2, len(g.v) // 2)


def test_transfer_at_origin():
    # at phi = 0 both gauges halve H, double Omega and double e^{lam}
    data, node = _through_origin(
        data_for("cylinder", n=33, rho=0.7, domain=((-0.3, 0.3), (-0.3, 0.3))))
    assert not np.any(data.grid.pos[node])
    for target in ("s3", "h3"):
        rep = models.representation(data, target)
        assert rep.H[node] == pytest.approx(data.H[node] / 2.0, rel=1e-14)
        assert rep.Omega[node] == pytest.approx(2.0 * data.Omega[node], rel=1e-14)
        assert rep.lam[node] == pytest.approx(data.lam[node] + np.log(2.0), abs=1e-14)


def test_transfer_plane_through_origin():
    # flat plane with H = 0, Omega = 0: h reduces to <n, phi>
    data = data_for("plane", n=16)
    rep = models.representation(data, "s3")
    ndotphi = (data.n * data.grid.pos).sum(axis=-1)
    assert np.max(np.abs(rep.H - ndotphi)) <= 1e-14
    assert np.max(np.abs(rep.Omega)) <= 1e-14


def test_transfer_h3_requires_ball():
    with pytest.raises(ValueError, match="chart leaves the Poincare ball"):
        models.representation(data_for("catenoid", n=16), "h3")
    with pytest.raises(ValueError, match="chart leaves the Poincare ball"):
        models.representation(data_for("clifford_torus", n=16), "h3")


def test_h3_factor_blows_up_toward_boundary():
    # a flat strip of R^3 reaching from the centre of the ball towards its
    # boundary: e^{2 Lam} = 4 / (1 - r^2)^2 grows without bound along it
    u, v = np.linspace(0.0, 0.99, 100), np.linspace(-0.01, 0.01, 9)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    zero, one = np.zeros_like(uu), np.ones_like(uu)
    flat = np.zeros(uu.shape + (3,))
    jet = J.Jet2(np.stack([uu, vv, zero], axis=-1), np.stack([one, zero, zero], axis=-1),
                 np.stack([zero, one, zero], axis=-1), flat, flat, flat)
    rep = models.representation(G.fundamental_data(G.ChartGrid("r3", u, v, jet)), "h3")
    factor = rep.e2lam[:, 4]
    assert np.all(np.diff(factor) > 0.0)
    assert np.max(np.abs(factor / (4.0 / (1.0 - u ** 2) ** 2) - 1.0)) <= 1e-12


def test_geodesic_sphere_law():
    for radius in (0.3, 0.5, 0.9):
        data = data_for("sphere", n=33, R=radius)
        expected = (1.0 - radius ** 2) / (2.0 * radius)
        assert np.max(np.abs(models.representation(data, "s3").H - expected)) <= 1e-8


@pytest.mark.parametrize("source, target", [("h3", "s3"), ("s3", "h3")])
def test_direct_representation_matches_the_two_hop_one(source, target):
    # hyperbolic_cylinder on H^3; criterion 3's ball-contained cylinder on S^3
    if source == "h3":
        data = data_for("hyperbolic_cylinder", n=65)
    else:
        name, params = BALL_CHARTS[0]
        data = models.representation(data_for(name, n=65, **params), "s3")
    direct = models.representation(data, target)
    two_hop = models.representation(models.representation(data, "r3"), target)
    for part in ("pos", "du", "dv", "duu", "duv", "dvv"):
        a, b = getattr(direct.grid.jet, part), getattr(two_hop.grid.jet, part)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), part
    for part in ("n", "H", "Omega"):
        assert np.max(np.abs(getattr(direct, part) - getattr(two_hop, part))) <= 1e-10, part
    assert direct.orientation == two_hop.orientation


def test_representation_round_trip():
    data = data_for("clifford_torus", n=33)
    back = models.representation(models.representation(data, "r3"), "s3")
    assert np.max(np.abs(back.H - data.H)) <= 1e-10
    assert np.max(np.abs(back.Omega - data.Omega)) <= 1e-10
    assert np.max(np.abs(back.grid.pos - data.grid.pos)) <= 1e-12


def _s3_to_h3(p):
    """Southern hemisphere of S^3 -> H^3: (p1, p2, p3, 1) / (-p4)."""
    return np.concatenate([p[..., :3], np.ones_like(p[..., 3:])], axis=-1) / -p[..., 3:]


def _h3_to_s3(z):
    """H^3 -> southern hemisphere of S^3: (z1, z2, z3, -1) / z4."""
    return np.concatenate([z[..., :3], -np.ones_like(z[..., 3:])], axis=-1) / z[..., 3:]


# each ordered pair of models, in closed form
POINT_MAPS = {
    ("r3", "s3"): stereo_inv, ("s3", "r3"): stereo,
    ("r3", "h3"): hyper_inv, ("h3", "r3"): hyper,
    ("s3", "h3"): _s3_to_h3, ("h3", "s3"): _h3_to_s3,
}


@pytest.mark.parametrize("source, target", list(POINT_MAPS))
def test_point_maps_match_jet_pushforward(rng, source, target):
    # points of the Poincare ball, and their images on S^3 (southern
    # hemisphere) and H^3: every ordered pair is defined on all of them
    ball = rng.normal(size=(256, 3))
    ball *= (rng.uniform(0.0, 0.95, size=256) / np.linalg.norm(ball, axis=1))[:, None]
    points = {"r3": ball, "s3": stereo_inv(ball), "h3": hyper_inv(ball)}[source]
    tangent = rng.normal(size=points.shape)
    jet = J.Jet2(points, tangent, tangent, tangent, tangent, tangent)
    pushed = J._push(jet, source, target).pos
    err = np.linalg.norm(POINT_MAPS[source, target](points) - pushed, axis=1)
    # two roundings of 1 - |x|^2 differ by its condition number 1 / (1 - |x|^2)
    cond = 1.0 / (1.0 - np.sum(ball * ball, axis=1))
    assert np.all(err <= 1e-15 * cond * np.linalg.norm(pushed, axis=1))


def test_lift_tangent_form_is_the_derivative(rng):
    # dp_x(v) by central differences of the quadratic lift is exact up to
    # round-off: the second difference of |x|^2 cancels
    for model, dim in (("r3", 3), ("s3", 4), ("h3", 4)):
        x, v = rng.normal(size=(2, 16, dim))
        fd = (lift(x + 1e-3 * v, model) - lift(x - 1e-3 * v, model)) / 2e-3
        assert np.max(np.abs(lift(x, model, tangent=v) - fd)) <= 1e-9, model


@pytest.mark.parametrize("name", ["catenoid", "clifford_torus", "hyperbolic_cylinder"])
def test_recorded_orientation_is_the_computed_one(name):
    data = data_for(name, n=33)
    for rep in (data, models.representation(data, "r3")):
        dots = rep.grid._dot(rep.n, G.chart_normal(rep.grid))
        assert rep.orientation == (1 if np.sum(dots) >= 0.0 else -1)
        assert np.all(rep.orientation * dots > 0.0)
    # the H^3 chart's R^3 image carries the opposite of its chart normal
    assert models.representation(data, "r3").orientation == (
        -1 if name == "hyperbolic_cylinder" else 1)
