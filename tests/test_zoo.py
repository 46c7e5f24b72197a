import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from confgauss import grid as G
from confgauss import jets
from confgauss import models
from confgauss import zoo
from confgauss.zoo import CATALOG, list_surfaces, make_surface, sample
from conftest import data_for, transfer_law


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


@pytest.mark.parametrize("params", [(1.5, 0.3, 0.1, 1.5), (0.8, 0.3, 0.1, 1.5),
                                    (1.3, -0.2, 0.1114, 1.0026), (2.0, 0.3839, 0.0, 1e-8),
                                    (1.5, 0.3, 0.1, 1e6), (1e128, 0.0, 1e128, 1.5)])
def test_profile_rate_is_the_numpy_quotient_to_the_bit(params):
    # the quadrature's integrand is evaluated in scalar math; numpy's
    # speed / rho is the reference, on the whole profile range
    profile = zoo._RevolutionProfile(*params)
    with np.errstate(all="ignore"):
        for t in np.linspace(-zoo.PROFILE_T, zoo.PROFILE_T, 4001).tolist():
            assert profile._rate(t) == float(profile.speed(t) / profile.rho(t)), t


def test_steep_profile_quadrature_is_relative(monkeypatch):
    # u(1) is about 5.5e5 at zslope = 1e6: held to 1e-12 of that, not to
    # an absolute 1e-12, the quadrature needs a few hundred evaluations
    profile = zoo._RevolutionProfile(1.5, 0.3, 0.1, 1e6)
    calls = []
    rate = profile._rate
    monkeypatch.setattr(profile, "_rate", lambda t: calls.append(t) or rate(t))
    assert profile.iso_coord(1.0) == pytest.approx(548573.07044975, rel=1e-12)
    assert len(calls) <= 2000


def test_clifford_native_invariants():
    data = data_for("clifford_torus", n=65)
    g = data.grid
    assert np.max(np.abs(g._dot(g.pos_z, g.pos_z))) <= 1e-14
    assert np.max(np.abs(data.H)) <= 1e-13
    assert np.max(np.abs(data.Omega + 1.0)) <= 1e-12
    assert np.max(np.abs(data.e2lam - 1.0)) <= 1e-13


def test_clifford_minimality_cross_checked_via_r3():
    # back from the stereographic image to S^3, by the pushed jets and by
    # the transfer law
    data = data_for("clifford_torus", n=33)
    r3 = models.representation(data, "r3")
    back = models.representation(r3, "s3")
    _, _, h, omega = transfer_law(r3, "s3")
    for H, Omega in ((back.H, back.Omega), (h, omega)):
        assert np.max(np.abs(H)) <= 1e-10
        assert np.max(np.abs(np.abs(Omega) - 1.0)) <= 1e-10


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


def test_torus_radius_is_bounded_up_front():
    # R^2 - r^2 would overflow; the bound is the torus's stated range
    with pytest.raises(ValueError, match=r"torus needs R <= 1e\+150, got R = 1e\+160"):
        make_surface("torus_revolution", R=1e160)
    assert zoo.SURFACES["torus_revolution"].ranges["R"] == "r < R <= 1e+150"
    make_surface("torus_revolution", R=1e150)


def test_tiny_torus_is_a_named_error():
    # R^2 - r^2 underflows to 0, which the domain formula would divide by
    for R, r in ((1e-300, 1e-301), (1e-200, 1e-201)):
        with pytest.raises(ValueError, match=r"torus needs R\^2 - r\^2 > 0"):
            make_surface("torus_revolution", R=R, r=r)


def test_overflowing_profile_speed_returns_named_error():
    # the speed overflowed to inf, and the quadrature's NaN comparisons
    # recursed to depth 50; run apart, so that a hang fails after 60 s
    code = ("import warnings; warnings.simplefilter('ignore')\n"
            "from confgauss.zoo import make_surface\n"
            "try:\n"
            "    make_surface('revolution_profile', zslope=1e200)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(zoo.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.stdout.startswith("profile quadrature is not finite"), done


def test_nonconverging_profile_quadrature_is_named():
    # rho0 + sin2 sin 2t touches 0.21 at t = -pi/4, between the radius
    # check's samples, where speed / rho is rounding noise; the quadrature
    # used to bisect for hours; run apart, so that a hang fails after 60 s
    code = ("import warnings; warnings.simplefilter('ignore')\n"
            "from confgauss.zoo import make_surface\n"
            "try:\n"
            "    make_surface('revolution_profile', rho0=1e128, sin2=1e128)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(zoo.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.stdout.startswith("profile quadrature does not converge on [0, -1]:"
                                  " near t = -0.77"), done


@pytest.mark.parametrize("bound, value", [("SIMPSON_DEPTH", 3), ("SIMPSON_EVALUATIONS", 41)])
def test_profile_quadrature_stops_at_its_bounds(monkeypatch, bound, value):
    # the default profile's u(1) converges after 421 evaluations
    profile = zoo._RevolutionProfile(1.5, 0.3, 0.1, 1.5)
    monkeypatch.setattr(zoo, bound, value)
    with pytest.raises(ValueError, match=r"^profile quadrature does not converge on \[0, 1\]"):
        profile.iso_coord(1.0)


def test_overflowing_profile_radius_is_named():
    # rho = inf passed the radius check, and the quadrature then blamed the speed
    with pytest.raises(ValueError, match=r"^profile radius is not finite on \|t\| <= 1.5$"):
        make_surface("revolution_profile", rho0=1e308, cos1=1e308)


@pytest.mark.parametrize("name", CATALOG)
def test_row_blocks_are_sampled_as_the_whole_grid(monkeypatch, name):
    # 3-row blocks, shorter than MIN_GRID; the profile's row coordinate is
    # solved once over all rows
    n = 33
    monkeypatch.setattr(jets, "BLOCK_NODES", 3 * n)
    spec = make_surface(name)
    whole = sample(spec, n)
    axes, sample_block = zoo.sample_rows(spec, n)
    assert np.array_equal(axes.u, whole.u) and np.array_equal(axes.v, whole.v)
    assert (axes.hu, axes.hv, axes.jet) == (whole.hu, whole.hv, None)
    blocks = list(jets.row_blocks((n, n)))
    assert len(blocks) == 11
    # each block is sampled on its own, in any order
    for rows in reversed(blocks):
        block = sample_block(rows)
        assert np.array_equal(block.u, whole.u[rows])
        assert (block.hu, block.hv) == (whole.hu, whole.hv)
        for part, ref in zip(vars(block.jet).values(), vars(whole.jet).values()):
            assert np.array_equal(part, ref[rows])


@pytest.mark.parametrize("domain, n, message", [
    (((float("inf"), 1.0), (0.0, 1.0)), 17, "domain bounds must be finite, got inf,1,0,1"),
    (((0.0, 1.0), (0.0, float("nan"))), 17, "domain bounds must be finite, got 0,1,0,nan"),
    (None, -3, "grid too small"),
    (None, 0, "grid too small"),
])
def test_sample_names_bad_domains_and_sizes(domain, n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sample(make_surface("cylinder"), n, domain=domain)


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
