import numpy as np
import pytest

from confgauss import grid as G
from confgauss import jets as J
from confgauss import models
from confgauss.lorentz import INFINITY, V_L, dehomogenize, lift, lorentz_product
from conftest import data_for


def test_stereo_examples():
    assert np.allclose(models.stereo([0, 0, 0, -1]), [0, 0, 0])
    assert np.allclose(models.stereo([1, 0, 0, 0]), [1, 0, 0])
    assert models.stereo([0, 0, 0, 1]) is INFINITY


def test_stereo_inv_examples():
    assert np.allclose(models.stereo_inv([0, 0, 0]), [0, 0, 0, -1])
    x = np.array([0.6, 0.8, 0.0])
    assert np.allclose(models.stereo_inv(x), np.concatenate([x, [0.0]]))
    assert np.allclose(models.stereo_inv(INFINITY), [0, 0, 0, 1])


def test_stereo_round_trip(rng):
    pts = rng.normal(size=(10000, 3))
    worst = 0.0
    for x in pts:
        back = models.stereo(models.stereo_inv(x))
        worst = max(worst, float(np.max(np.abs(back - x))))
    assert worst <= 1e-12


def test_hyper_examples():
    assert np.allclose(models.hyper([0, 0, 0, 1]), [0, 0, 0])
    d = 0.8
    out = models.hyper([np.sinh(d), 0, 0, np.cosh(d)])
    assert out[0] == pytest.approx(np.tanh(d / 2.0), abs=1e-14)
    with pytest.raises(ValueError, match="upper hyperboloid"):
        models.hyper([0.0, 0.0, 0.0, -1.0])


def test_hyper_inv_examples():
    assert np.allclose(models.hyper_inv([0, 0, 0]), [0, 0, 0, 1])
    assert np.allclose(models.hyper_inv([0.5, 0, 0]), [4.0 / 3.0, 0, 0, 5.0 / 3.0])
    with pytest.raises(ValueError, match="Poincare"):
        models.hyper_inv([1.0, 0.0, 0.0])


def test_hyper_round_trip(rng):
    worst = 0.0
    for _ in range(10000):
        x = rng.uniform(-0.57, 0.57, size=3)  # inside the unit ball
        z = models.hyper_inv(x)
        q = z[0] ** 2 + z[1] ** 2 + z[2] ** 2 - z[3] ** 2
        assert abs(q + 1.0) <= 1e-10
        worst = max(worst, float(np.max(np.abs(models.hyper(z) - x))))
    assert worst <= 1e-12


def test_lift_examples():
    assert np.allclose(lift(np.zeros(3), "r3"), [0, 0, 0, -0.5, 0.5])
    assert np.allclose(lift(np.array([1.0, 0.0, 0.0]), "r3"), [1, 0, 0, 0, 1])
    assert np.array_equal(lift(INFINITY, "r3"), V_L)
    x = np.array([0.3, -0.2, 0.1])
    big_x = models.stereo_inv(x)
    assert lorentz_product(lift(big_x, "s3"), lift(big_x, "s3")) == pytest.approx(0.0, abs=1e-12)
    assert lorentz_product(lift(x, "r3"), lift(x, "r3")) == pytest.approx(0.0, abs=1e-12)


def test_lift_colinearity(rng):
    # lifts of pi / pi-tilde related points are positively proportional
    for _ in range(100):
        x = rng.uniform(-0.6, 0.6, size=3)
        p_r3 = lift(x, "r3")
        p_s3 = lift(models.stereo_inv(x), "s3")
        p_h3 = lift(models.hyper_inv(x), "h3")
        for other in (p_s3, p_h3):
            a = p_r3 / np.linalg.norm(p_r3)
            b = other / np.linalg.norm(other)
            assert np.linalg.norm(np.cross(a[:3], b[:3])) <= 1e-10
            assert np.max(np.abs(a - b)) <= 1e-10  # positively proportional


def test_transfer_at_origin():
    lam = np.zeros((1, 1))
    n = np.zeros((1, 1, 3))
    n[..., 2] = 1.0
    H = np.full((1, 1), 0.7)
    om = np.full((1, 1), 0.3 + 0.1j)
    phi = np.zeros((1, 1, 3))
    ts = models.transfer_r3_to_s3(lam, n, H, om, phi)
    assert ts.H[0, 0] == pytest.approx(0.35)
    assert ts.Omega[0, 0] == pytest.approx(0.6 + 0.2j)
    th = models.transfer_r3_to_h3(lam, n, H, om, phi)
    assert th.H[0, 0] == pytest.approx(0.35)
    assert th.Omega[0, 0] == pytest.approx(0.6 + 0.2j)


def test_transfer_plane_through_origin():
    # flat plane with H = 0, Omega = 0: h reduces to <n, phi>
    data = data_for("plane", n=16)
    g = data.grid
    ts = models.transfer_r3_to_s3(data.lam, data.n, data.H, data.Omega, g.pos)
    ndotphi = (data.n * g.pos).sum(axis=-1)
    assert np.max(np.abs(ts.H - ndotphi)) <= 1e-14
    assert np.max(np.abs(ts.Omega)) == 0.0


def test_transfer_h3_requires_ball():
    data = data_for("catenoid", n=16)
    with pytest.raises(ValueError, match="ball"):
        models.transfer_r3_to_h3(data.lam, data.n, data.H, data.Omega, data.grid.pos)


def test_h3_factor_blows_up_toward_boundary():
    lam = 0.0
    vals = []
    for r in (0.0, 0.5, 0.9, 0.99):
        phi = np.array([[[r, 0.0, 0.0]]])
        t = models.transfer_r3_to_h3(np.zeros((1, 1)), np.zeros((1, 1, 3)),
                                     np.zeros((1, 1)), np.zeros((1, 1)), phi)
        vals.append(np.exp(2 * t.lam)[0, 0])
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_geodesic_sphere_law():
    for radius in (0.3, 0.5, 0.9):
        data = data_for("sphere", n=33, R=radius)
        ts = models.transfer_r3_to_s3(data.lam, data.n, data.H, data.Omega,
                                      data.grid.pos)
        expected = (1.0 - radius ** 2) / (2.0 * radius)
        assert np.max(np.abs(ts.H - expected)) <= 1e-8


def test_representation_round_trip():
    data = data_for("clifford_torus", n=33)
    back = models.representation(models.representation(data, "r3"), "s3")
    assert np.max(np.abs(back.H - data.H)) <= 1e-10
    assert np.max(np.abs(back.Omega - data.Omega)) <= 1e-10
    assert np.max(np.abs(back.grid.pos - data.grid.pos)) <= 1e-12


def _point_map(source, target):
    """The point map of an ordered model pair: a named projection, or the
    lift of a source point dehomogenized in the target."""
    named = {("r3", "s3"): models.stereo_inv, ("s3", "r3"): models.stereo,
             ("h3", "r3"): models.hyper, ("r3", "h3"): models.hyper_inv}
    if (source, target) in named:
        return named[source, target]

    def through_cone(x):
        num, den = dehomogenize(lift(x, source), target)
        return num / den

    return through_cone


@pytest.mark.parametrize("source, target", [
    ("r3", "s3"), ("s3", "r3"), ("r3", "h3"), ("h3", "r3"), ("s3", "h3"), ("h3", "s3"),
])
def test_point_maps_match_jet_pushforward(rng, source, target):
    # points of the Poincare ball, and their images on S^3 (southern
    # hemisphere) and H^3: every ordered pair is defined on all of them
    ball = rng.normal(size=(256, 3))
    ball *= (rng.uniform(0.0, 0.95, size=256) / np.linalg.norm(ball, axis=1))[:, None]
    points = {"r3": ball,
              "s3": np.array([models.stereo_inv(x) for x in ball]),
              "h3": np.array([models.hyper_inv(x) for x in ball])}[source]
    tangent = rng.normal(size=points.shape)
    jet = J.Jet2(points, tangent, tangent, tangent, tangent, tangent)
    pushed = J._push(jet, source, target).pos
    point_map = _point_map(source, target)
    mapped = np.array([point_map(x) for x in points])
    err = np.linalg.norm(mapped - pushed, axis=1)
    assert np.all(err <= 1e-15 * np.linalg.norm(pushed, axis=1))


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
        recomputed = G.FundamentalData(rep.grid, rep.lam, rep.n, rep.H, rep.Omega)
        assert "orientation" in vars(rep)
        assert rep.orientation == recomputed.orientation
    # the H^3 chart's R^3 image carries the opposite of its chart normal
    assert models.representation(data, "r3").orientation == (
        -1 if name == "hyperbolic_cylinder" else 1)
