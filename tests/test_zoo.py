import json

import numpy as np
import pytest

from confgauss import grid as G
from confgauss import models
from confgauss.zoo import CATALOG, list_surfaces, make_surface, sample
from conftest import data_for


def test_catalog_listing():
    entries = list_surfaces()
    assert [e["name"] for e in entries] == CATALOG
    assert all("domain" in e and "expected" in e for e in entries)
    # plain Python data: json.dumps raises TypeError on an np.bool_
    assert [e["name"] for e in json.loads(json.dumps(entries))] == CATALOG


def test_unknown_surface():
    with pytest.raises(ValueError, match="unknown surface"):
        make_surface("helicoid")


def test_bad_parameters():
    with pytest.raises(ValueError):
        make_surface("torus_revolution", R=1.0, r=2.0)
    with pytest.raises(ValueError):
        make_surface("hyperbolic_cylinder", d=-0.1)
    with pytest.raises(ValueError):
        make_surface("sphere", R=0.0)
    with pytest.raises(ValueError):
        make_surface("cylinder", rho=-1.0)
    with pytest.raises(ValueError, match="surface cylinder has no parameter R; it takes rho"):
        make_surface("cylinder", R=3.0)
    with pytest.raises(ValueError, match="surface plane has no parameter rho; it takes none"):
        make_surface("plane", rho=1.0)


def test_sample_plane_flat():
    grid = sample(make_surface("plane"), 64)
    data = G.fundamental_data(grid)
    assert np.max(np.abs(data.e2lam - 1.0)) <= 1e-14


def test_sample_catenoid_conformal_factor():
    data = data_for("catenoid", n=128)
    uu = data.grid.u[:, None] * np.ones((1, 128))
    assert np.max(np.abs(data.e2lam - np.cosh(uu) ** 2)) <= 1e-12


def test_every_surface_samples_conformally():
    for name in CATALOG:
        grid = sample(make_surface(name), 33)
        pz, pzb = grid.pos_z, grid.pos_zb
        num = np.abs(grid._dot(pz, pz))
        den = grid._dot(pz, pzb).real
        assert np.max(num / den) <= 1e-8, name


def test_revolution_profile_quadrature_quality():
    grid = sample(make_surface("revolution_profile"), 128)
    num = np.abs(grid._dot(grid.pos_z, grid.pos_z))
    assert np.max(num) <= 1e-8


def test_clifford_native_invariants():
    data = data_for("clifford_torus", n=65)
    g = data.grid
    assert np.max(np.abs(g._dot(g.pos_z, g.pos_z))) <= 1e-14
    assert np.max(np.abs(data.H)) <= 1e-13
    assert np.max(np.abs(data.Omega + 1.0)) <= 1e-12
    assert np.max(np.abs(data.e2lam - 1.0)) <= 1e-13


def test_clifford_minimality_cross_checked_via_r3():
    # transfer from the stereographic image back to the S^3 gauge
    data = data_for("clifford_torus", n=33)
    r3 = models.representation(data, "r3")
    ts = models.transfer_r3_to_s3(r3.lam, r3.n, r3.H, r3.Omega, r3.grid.pos)
    assert np.max(np.abs(ts.H)) <= 1e-10
    assert np.max(np.abs(np.abs(ts.Omega) - 1.0)) <= 1e-10


def test_hyperbolic_cylinder_invariants():
    d = 0.5
    data = data_for("hyperbolic_cylinder", n=33, d=d)
    assert np.max(np.abs(data.e2lam - np.sinh(d) ** 2)) <= 1e-13
    h_expected = (np.tanh(d) + 1.0 / np.tanh(d)) / 2.0
    assert np.max(np.abs(np.abs(data.H) - h_expected)) <= 1e-12
    # hyperboloid invariants of the chart itself
    pos = data.grid.pos
    q = pos[..., 0] ** 2 + pos[..., 1] ** 2 + pos[..., 2] ** 2 - pos[..., 3] ** 2
    assert np.max(np.abs(q + 1.0)) <= 1e-12
    assert np.min(pos[..., 3]) >= 1.0


def test_torus_willmore_separation():
    from confgauss.congruence import conformal_gauss_map
    from confgauss.willmore import harmonicity_residual

    good = data_for("torus_revolution", n=128, R=np.sqrt(2.0), r=1.0)
    bad = data_for("torus_revolution", n=128, R=3.0, r=1.0)
    res_good = G.interior_max(harmonicity_residual(conformal_gauss_map(good)))
    res_bad = G.interior_max(harmonicity_residual(conformal_gauss_map(bad)))
    assert res_good <= 1e-5
    assert res_bad >= 1e-2


def test_inverted_catenoid_stays_in_band():
    with pytest.raises(ValueError, match="safety band"):
        sample(make_surface("inverted_catenoid", offset=(9.8, 0.0, 0.0)), 17)


def test_revolution_profile_inversion_is_bounded():
    # the speed sqrt(0.09 sin^2 t + 1e-16) nearly vanishes at t = 0, where
    # Newton's first step would land near t = -8.6e6
    spec = make_surface("revolution_profile", zslope=1e-8, sin2=0.0)
    with pytest.raises(ValueError, match="not inverted on .t. <= 1.5"):
        sample(spec, 65)


def test_expected_tables_hold():
    for name in ("cylinder", "catenoid", "enneper", "clifford_torus"):
        spec = make_surface(name)
        data = data_for(name, n=17)
        if spec.expected.get("H_const") is not None:
            assert np.max(np.abs(data.H - spec.expected["H_const"])) <= 1e-12
        if spec.expected.get("Omega_const") is not None:
            assert np.max(np.abs(data.Omega - spec.expected["Omega_const"])) <= 1e-12


@pytest.mark.parametrize("name, params, bad", [
    ("revolution_profile", {"rho0": float("nan")}, "rho0"),
    ("revolution_profile", {"cos1": float("nan")}, "cos1"),
    ("revolution_profile", {"sin2": float("nan")}, "sin2"),
    ("revolution_profile", {"zslope": float("nan")}, "zslope"),
    ("cylinder", {"rho": float("inf")}, "rho"),
    ("sphere", {"R": float("nan")}, "R"),
    ("torus_revolution", {"R": float("inf"), "r": 1.0}, "R"),
    ("hyperbolic_cylinder", {"d": float("-inf")}, "d"),
    ("inverted_catenoid", {"offset": (3.0, float("nan"), 0.0)}, "offset"),
])
def test_non_finite_parameters_rejected_up_front(name, params, bad):
    # a NaN profile parameter used to send the adaptive quadrature into
    # ~2^50 recursion leaves; other surfaces failed later, misleadingly
    with pytest.raises(ValueError, match=f"surface parameter {bad} must be finite"):
        make_surface(name, **params)
