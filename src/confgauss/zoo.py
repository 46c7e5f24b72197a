"""Catalog of closed-form conformally parametrized test surfaces.

Every surface supplies analytic 2-jets on a conformal chart, together with
an expected-invariant table used by the verification suites.  A generic
surface of revolution with numerically computed isothermal coordinates is
included as the non-conformally-CMC control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import ChartGrid
from .jets import Jet2, push_word
from .lorentz import Generator

__all__ = ["SurfaceKind", "SurfaceSpec", "SURFACES", "CATALOG", "make_surface",
           "sample", "list_surfaces"]


@dataclass
class SurfaceSpec:
    """A catalog surface: chart domain, analytic jet generator, expectations."""

    name: str
    model: str
    params: dict
    domain: tuple  # ((u0, u1), (v0, v1))
    jet_fn: callable
    expected: dict

    def describe(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "params": dict(self.params),
            "domain": [list(self.domain[0]), list(self.domain[1])],
            "expected": dict(self.expected),
        }


def sample(spec: SurfaceSpec, n: int, domain=None) -> ChartGrid:
    """Sample a surface on an n x n grid; validates conformality at build."""
    (u0, u1), (v0, v1) = domain if domain is not None else spec.domain
    u = np.linspace(u0, u1, n)
    v = np.linspace(v0, v1, n)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    jet = spec.jet_fn(uu, vv)
    return ChartGrid(spec.model, u, v, jet)


# ----------------------------------------------------------------------
# closed-form charts
# ----------------------------------------------------------------------

def _plane_jets(u, v):
    z = np.zeros_like(u)
    pos = np.stack([u, v, z], axis=-1)
    du = np.stack([np.ones_like(u), z, z], axis=-1)
    dv = np.stack([z, np.ones_like(u), z], axis=-1)
    zero = np.zeros_like(pos)
    return Jet2(pos, du, dv, zero.copy(), zero.copy(), zero.copy())


def _sphere_jets(u, v, radius):
    # scaled inverse stereographic chart of the round sphere
    s = 1.0 + u * u + v * v
    g = 1.0 / s
    gu = -2.0 * u * g * g
    gv = -2.0 * v * g * g
    guu = -2.0 * g * g + 8.0 * u * u * g ** 3
    guv = 8.0 * u * v * g ** 3
    gvv = -2.0 * g * g + 8.0 * v * v * g ** 3
    r = radius

    pos = np.stack([2 * r * u * g, 2 * r * v * g, r * (1.0 - 2.0 * g)], axis=-1)
    du = np.stack([2 * r * (g + u * gu), 2 * r * v * gu, -2 * r * gu], axis=-1)
    dv = np.stack([2 * r * u * gv, 2 * r * (g + v * gv), -2 * r * gv], axis=-1)
    duu = np.stack(
        [2 * r * (2 * gu + u * guu), 2 * r * v * guu, -2 * r * guu], axis=-1
    )
    duv = np.stack(
        [2 * r * (gv + u * guv), 2 * r * (gu + v * guv), -2 * r * guv], axis=-1
    )
    dvv = np.stack(
        [2 * r * u * gvv, 2 * r * (2 * gv + v * gvv), -2 * r * gvv], axis=-1
    )
    return Jet2(pos, du, dv, duu, duv, dvv)


def _cylinder_jets(u, v, rho):
    c = np.cos(v / rho)
    s = np.sin(v / rho)
    zero = np.zeros_like(u)
    one = np.ones_like(u)
    pos = np.stack([rho * s, rho * c, u], axis=-1)
    du = np.stack([zero, zero, one], axis=-1)
    dv = np.stack([c, -s, zero], axis=-1)
    duu = np.zeros_like(pos)
    duv = np.zeros_like(pos)
    dvv = np.stack([-s / rho, -c / rho, zero], axis=-1)
    return Jet2(pos, du, dv, duu, duv, dvv)


def _catenoid_jets(u, v):
    ch, sh = np.cosh(u), np.sinh(u)
    c, s = np.cos(v), np.sin(v)
    zero = np.zeros_like(u)
    one = np.ones_like(u)
    pos = np.stack([ch * c, ch * s, u], axis=-1)
    du = np.stack([sh * c, sh * s, one], axis=-1)
    dv = np.stack([-ch * s, ch * c, zero], axis=-1)
    duu = np.stack([ch * c, ch * s, zero], axis=-1)
    duv = np.stack([-sh * s, sh * c, zero], axis=-1)
    dvv = np.stack([-ch * c, -ch * s, zero], axis=-1)
    return Jet2(pos, du, dv, duu, duv, dvv)


def _enneper_jets(u, v):
    zero = np.zeros_like(u)
    pos = np.stack(
        [u - u ** 3 / 3.0 + u * v * v, v - v ** 3 / 3.0 + u * u * v, u * u - v * v],
        axis=-1,
    )
    du = np.stack([1.0 - u * u + v * v, 2.0 * u * v, 2.0 * u], axis=-1)
    dv = np.stack([2.0 * u * v, 1.0 - v * v + u * u, -2.0 * v], axis=-1)
    duu = np.stack([-2.0 * u, 2.0 * v, 2.0 * np.ones_like(u)], axis=-1)
    duv = np.stack([2.0 * v, 2.0 * u, zero], axis=-1)
    dvv = np.stack([2.0 * u, -2.0 * v, -2.0 * np.ones_like(u)], axis=-1)
    return Jet2(pos, du, dv, duu, duv, dvv)


def _inverted_catenoid_jets(u, v, offset):
    jet = _catenoid_jets(u, v)
    r = np.sqrt(((jet.pos + np.asarray(offset, dtype=float)) ** 2).sum(axis=-1))
    if np.any(r < 0.5) or np.any(r > 10.0):
        raise ValueError("chart leaves the |x| in [0.5, 10] safety band")
    return push_word(jet, [Generator("tra", tuple(offset)), Generator("inv")])


def _torus_jets(u, v, big_r, small_r):
    c = np.sqrt(big_r ** 2 - small_r ** 2)
    k = np.sqrt((big_r - small_r) / (big_r + small_r))
    x = c * u / (2.0 * small_r)
    theta = 2.0 * np.arctan2(np.sin(x) / k, np.cos(x))
    ct, st = np.cos(theta), np.sin(theta)
    rad = big_r + small_r * ct  # profile radius; d(theta)/du = rad / small_r
    radp = -st * rad  # d(rad)/du
    radpp = -ct * rad * rad / small_r + st * st * rad
    cv, sv = np.cos(v), np.sin(v)
    zero = np.zeros_like(u)
    pos = np.stack([rad * cv, rad * sv, small_r * st], axis=-1)
    du = np.stack([radp * cv, radp * sv, ct * rad], axis=-1)
    dv = np.stack([-rad * sv, rad * cv, zero], axis=-1)
    z_uu = -st * rad * rad / small_r - st * ct * rad
    duu = np.stack([radpp * cv, radpp * sv, z_uu], axis=-1)
    duv = np.stack([-radp * sv, radp * cv, zero], axis=-1)
    dvv = np.stack([-rad * cv, -rad * sv, zero], axis=-1)
    return Jet2(pos, du, dv, duu, duv, dvv)


def _clifford_jets(u, v):
    r2 = np.sqrt(2.0)
    cu, su = np.cos(r2 * u), np.sin(r2 * u)
    cv, sv = np.cos(r2 * v), np.sin(r2 * v)
    zero = np.zeros_like(u)
    inv = 1.0 / r2
    pos = np.stack([cu, su, cv, sv], axis=-1) * inv
    du = np.stack([-su, cu, zero, zero], axis=-1)
    dv = np.stack([zero, zero, -sv, cv], axis=-1)
    duu = np.stack([-cu, -su, zero, zero], axis=-1) * r2
    duv = np.zeros_like(pos)
    dvv = np.stack([zero, zero, -cv, -sv], axis=-1) * r2
    return Jet2(pos, du, dv, duu, duv, dvv)


def _hyperbolic_cylinder_jets(u, v, d):
    t = np.tanh(d)
    shd, chd = np.sinh(d), np.cosh(d)
    cv, sv = np.cos(v), np.sin(v)
    shu, chu = np.sinh(u * t), np.cosh(u * t)
    zero = np.zeros_like(u)
    pos = np.stack([shd * cv, shd * sv, chd * shu, chd * chu], axis=-1)
    du = np.stack([zero, zero, chd * t * chu, chd * t * shu], axis=-1)
    dv = np.stack([-shd * sv, shd * cv, zero, zero], axis=-1)
    duu = np.stack([zero, zero, chd * t * t * shu, chd * t * t * chu], axis=-1)
    duv = np.zeros_like(pos)
    dvv = np.stack([-shd * cv, -shd * sv, zero, zero], axis=-1)
    return Jet2(pos, du, dv, duu, duv, dvv)


# ----------------------------------------------------------------------
# generic surface of revolution with quadrature isothermal coordinate
# ----------------------------------------------------------------------

def _adaptive_simpson(f, a, b, tol):
    """Adaptive Simpson quadrature of a scalar callable, to ``tol`` times
    max(1, |first Simpson estimate|)."""

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a_, b_, fa, fm, fb, whole, tol_, depth):
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        return recurse(a_, m, fa, flm, fm, left, tol_ / 2.0, depth - 1) + recurse(
            m, b_, fm, frm, fb, right, tol_ / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(fa, fm, fb, a, b)
    return recurse(a, b, fa, fm, fb, whole, tol * max(1.0, abs(whole)), 50)


PROFILE_T = 1.5  # the profile range on which the radius is checked


class _RevolutionProfile:
    """Trig-polynomial profile (rho(t), zeta(t)) revolved about the z axis."""

    def __init__(self, rho0, cos1, sin2, zslope):
        self.rho0 = rho0
        self.cos1 = cos1
        self.sin2 = sin2
        self.zslope = zslope

    def rho(self, t, order=0):
        if order == 0:
            return self.rho0 + self.cos1 * np.cos(t) + self.sin2 * np.sin(2.0 * t)
        if order == 1:
            return -self.cos1 * np.sin(t) + 2.0 * self.sin2 * np.cos(2.0 * t)
        return -self.cos1 * np.cos(t) - 4.0 * self.sin2 * np.sin(2.0 * t)

    def zeta(self, t, order=0):
        if order == 0:
            return self.zslope * t
        if order == 1:
            return self.zslope * np.ones_like(np.asarray(t, dtype=float))
        return np.zeros_like(np.asarray(t, dtype=float))

    def speed(self, t):
        return np.sqrt(self.rho(t, 1) ** 2 + self.zeta(t, 1) ** 2)

    def _rate(self, t):
        rate = float(self.speed(t) / self.rho(t))
        if not rate > 0.0:
            raise ValueError(f"profile speed vanishes at t = {t:.6g}; "
                             "the revolved chart is not immersed there")
        return rate

    def iso_coord(self, t):
        """Isothermal coordinate u(t) = int_0^t speed/rho, to 1e-12 relative."""
        if t == 0.0:
            return 0.0
        return _adaptive_simpson(self._rate, 0.0, t, 1e-12)

    def invert_many(self, u_targets):
        """Solve u(t_i) = u_i by warm-started Newton on |t| <= PROFILE_T,
        caching the quadrature; a solve that leaves it or does not converge
        in 60 steps rejects the chart."""
        order = np.argsort(u_targets)
        out = np.empty(len(u_targets))
        t_ref, u_ref = 0.0, 0.0
        for idx in order:
            u_t = float(u_targets[idx])
            t = t_ref + (u_t - u_ref) / self._rate(t_ref)
            for _ in range(60):
                if not abs(t) <= PROFILE_T:
                    break
                val = u_ref + _adaptive_simpson(self._rate, t_ref, t, 1e-13)
                step = (val - u_t) / self._rate(t)
                t -= step
                if abs(step) < 1e-13:
                    break
            else:
                t = math.nan
            if not abs(t) <= PROFILE_T:
                raise ValueError(f"isothermal coordinate u = {u_t:.6g} not inverted"
                                 f" on |t| <= {PROFILE_T}: the profile speed nearly vanishes")
            out[idx] = t
            t_ref, u_ref = t, u_t
        return out


def _revolution_jets(u, v, profile: _RevolutionProfile):
    # the isothermal coordinate depends on the row only; invert per row
    u_rows = u[:, 0]
    t_rows = profile.invert_many(u_rows)
    t = t_rows[:, None] * np.ones_like(u)
    rho = profile.rho(t)
    rho1 = profile.rho(t, 1)
    rho2 = profile.rho(t, 2)
    zeta1 = profile.zeta(t, 1)
    zeta2 = profile.zeta(t, 2)
    sigma = np.sqrt(rho1 ** 2 + zeta1 ** 2)
    dt = rho / sigma  # dt/du
    sigma1 = (rho1 * rho2 + zeta1 * zeta2) / sigma
    dtt = rho * (rho1 * sigma - rho * sigma1) / sigma ** 3  # d^2 t / du^2

    cv, sv = np.cos(v), np.sin(v)
    zero = np.zeros_like(u)
    pos = np.stack([rho * cv, rho * sv, profile.zeta(t)], axis=-1)
    du = np.stack([rho1 * cv, rho1 * sv, zeta1], axis=-1) * dt[..., None]
    dv = np.stack([-rho * sv, rho * cv, zero], axis=-1)
    duu = (
        np.stack([rho2 * cv, rho2 * sv, zeta2], axis=-1) * (dt ** 2)[..., None]
        + np.stack([rho1 * cv, rho1 * sv, zeta1], axis=-1) * dtt[..., None]
    )
    duv = np.stack([-rho1 * sv, rho1 * cv, zero], axis=-1) * dt[..., None]
    dvv = np.stack([-rho * cv, -rho * sv, zero], axis=-1)
    return Jet2(pos, du, dv, duu, duv, dvv)


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceKind:
    """One catalog surface, declared once.

    ``defaults`` names every parameter the surface takes and ``ranges``
    states where each is valid.  ``build(**params)`` raises ``ValueError``
    outside those ranges, or returns ``(domain, jet_fn, expected)``; the
    inverted catenoid's band is checked on the sampled chart instead.
    """

    model: str
    defaults: dict
    ranges: dict
    build: callable


def _sphere(R):
    if R <= 0.0:
        raise ValueError("sphere radius must be positive")
    return ((-0.35, 0.35), (-0.35, 0.35)), partial(_sphere_jets, radius=R), {
        "H_const": 1.0 / R, "Omega_const": 0.0, "willmore": True,
        "kappa": None, "umbilic": True}


def _cylinder(rho):
    if rho <= 0.0:
        raise ValueError("cylinder radius must be positive")
    domain = ((-0.45, 0.45), (-0.85 * np.pi * rho, 0.85 * np.pi * rho))
    return domain, partial(_cylinder_jets, rho=rho), {
        "H_const": -1.0 / (2.0 * rho), "Omega_const": 1.0 / (2.0 * rho),
        "willmore": False, "kappa": 0, "normal_type": "lightlike",
        "linear": False, "umbilic": False}


TORUS_MAX_R = 1e150  # R^2 - r^2 overflows from R = 1.34e154


def _torus(R, r):
    if r <= 0.0 or R <= r:
        raise ValueError("torus needs R > r > 0")
    if R > TORUS_MAX_R:
        raise ValueError(f"torus needs R <= {TORUS_MAX_R:g}, got R = {R:g}")
    uhalf = 0.15 * np.pi * r / math.sqrt(R ** 2 - r ** 2)
    willmore = abs(R / r - math.sqrt(2.0)) < 1e-12
    domain = ((-uhalf, uhalf), (-np.pi / 2.0, np.pi / 2.0))
    return domain, partial(_torus_jets, big_r=R, small_r=r), {
        "willmore": willmore, "kappa": -1, "normal_type": "timelike",
        "linear": willmore, "umbilic": False}


def _hyperbolic_cylinder(d):
    if d <= 0.0:
        raise ValueError("hyperbolic cylinder needs d > 0")
    t = float(np.tanh(d))
    domain = ((-1.0, 1.0), (-0.85 * np.pi, 0.85 * np.pi))
    return domain, partial(_hyperbolic_cylinder_jets, d=d), {
        "H_abs": (t + 1.0 / t) / 2.0, "willmore": False, "kappa": 1,
        "normal_type": "spacelike", "linear": False, "umbilic": False}


def _revolution(rho0, cos1, sin2, zslope):
    profile = _RevolutionProfile(rho0, cos1, sin2, zslope)
    if np.min(profile.rho(np.linspace(-PROFILE_T, PROFILE_T, 301))) < 0.1:
        raise ValueError("profile radius too close to the axis")
    domain = ((0.6 * profile.iso_coord(-1.0), 0.6 * profile.iso_coord(1.0)),
              (-np.pi / 2.0, np.pi / 2.0))
    return domain, partial(_revolution_jets, profile=profile), {
        "willmore": False, "kappa": None, "umbilic": False, "not_cmc": True}


_MIN_RHO = f"min rho >= 0.1 on |t| <= {PROFILE_T}"

# every catalog surface in listing order; the lambdas build a fresh
# expected table per call
SURFACES = {
    "plane": SurfaceKind("r3", {}, {}, lambda: (
        ((-1.0, 1.0), (-1.0, 1.0)), _plane_jets,
        {"H_const": 0.0, "Omega_const": 0.0, "willmore": True,
         "kappa": None, "umbilic": True})),
    "sphere": SurfaceKind("r3", {"R": 1.0}, {"R": "R > 0"}, _sphere),
    "cylinder": SurfaceKind("r3", {"rho": 1.0}, {"rho": "rho > 0"}, _cylinder),
    "catenoid": SurfaceKind("r3", {}, {}, lambda: (
        ((-0.4, 0.4), (-0.85 * np.pi, 0.85 * np.pi)), _catenoid_jets,
        {"H_const": 0.0, "Omega_const": -1.0, "willmore": True, "kappa": 0,
         "normal_type": "lightlike", "linear": True, "umbilic": False})),
    "enneper": SurfaceKind("r3", {}, {}, lambda: (
        ((-0.55, 0.55), (-0.55, 0.55)), _enneper_jets,
        {"H_const": 0.0, "Omega_const": 2.0, "willmore": True, "kappa": 0,
         "normal_type": "lightlike", "linear": True, "umbilic": False})),
    "inverted_catenoid": SurfaceKind(
        "r3", {"offset": (3.0, 0.0, 0.0)},
        {"offset": "0.5 <= |x + offset| <= 10 on the domain, checked when sampled"},
        lambda offset: (
            ((-0.3, 0.3), (-0.75, 0.75)),
            partial(_inverted_catenoid_jets, offset=offset),
            {"willmore": True, "kappa": 0, "normal_type": "lightlike",
             "linear": True, "umbilic": False})),
    "torus_revolution": SurfaceKind(
        "r3", {"R": math.sqrt(2.0), "r": 1.0},
        {"R": f"r < R <= {TORUS_MAX_R:g}", "r": "r > 0"},
        _torus),
    "clifford_torus": SurfaceKind("s3", {}, {}, lambda: (
        ((-1.25, 1.25), (-1.25, 1.25)), _clifford_jets,
        {"H_const": 0.0, "Omega_const": -1.0, "willmore": True, "kappa": -1,
         "normal_type": "timelike", "linear": True, "umbilic": False})),
    "hyperbolic_cylinder": SurfaceKind(
        "h3", {"d": 0.5}, {"d": "d > 0"}, _hyperbolic_cylinder),
    "revolution_profile": SurfaceKind(
        "r3", {"rho0": 1.5, "cos1": 0.3, "sin2": 0.1, "zslope": 1.5},
        {"rho0": _MIN_RHO, "cos1": _MIN_RHO, "sin2": _MIN_RHO,
         "zslope": "speed sqrt(rho'^2 + zslope^2) > 0"}, _revolution),
}

CATALOG = list(SURFACES)


def make_surface(name: str, **params) -> SurfaceSpec:
    """Build a catalog surface spec; raises on unknown names or bad params."""
    for key, value in params.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"surface parameter {key} must be finite, got {value!r}")
    if name not in SURFACES:
        raise ValueError(f"unknown surface {name!r}")
    kind = SURFACES[name]
    for key in params:
        if key not in kind.defaults:
            raise ValueError(f"surface {name} has no parameter {key}; it takes "
                             f"{', '.join(kind.defaults) or 'none'}")
    values = {key: type(default)(params.get(key, default))
              for key, default in kind.defaults.items()}
    domain, jet_fn, expected = kind.build(**values)
    return SurfaceSpec(name, kind.model, values, domain, jet_fn, expected)


def list_surfaces() -> list:
    """Catalog entries with parameter ranges and expected-invariant tables."""
    return [{**make_surface(name).describe(), "param_ranges": dict(kind.ranges)}
            for name, kind in SURFACES.items()]
