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

from .grid import MIN_GRID, ChartGrid
from .jets import Jet2, push_word
from .lorentz import Generator

__all__ = ["SurfaceKind", "SurfaceSpec", "SURFACES", "CATALOG", "make_surface",
           "sample", "sample_rows", "list_surfaces"]


@dataclass
class SurfaceSpec:
    """A catalog surface: chart domain, analytic jet generator, expectations.

    ``jet_fn`` takes the row coordinate of each row as a column and v as a
    row.  The row coordinate is u itself, or ``row_coordinate(u)`` solved
    once over all rows of a grid (the profile parameter of a numerically
    isothermal chart), so that a row block is sampled as the whole grid is.
    """

    name: str
    model: str
    params: dict
    domain: tuple  # ((u0, u1), (v0, v1))
    jet_fn: callable
    expected: dict
    row_coordinate: callable = None

    def describe(self) -> dict:
        return {
            "name": self.name,
            "model": self.model,
            "params": dict(self.params),
            "domain": [list(self.domain[0]), list(self.domain[1])],
            "expected": dict(self.expected),
        }


def _axes(spec: SurfaceSpec, n: int, domain):
    """The checked axes of an n x n grid (a ChartGrid without jets) and the
    row coordinate of each row."""
    (u0, u1), (v0, v1) = domain if domain is not None else spec.domain
    if not np.all(np.isfinite([u0, u1, v0, v1])):
        raise ValueError(f"domain bounds must be finite, got {u0:g},{u1:g},{v0:g},{v1:g}")
    if n < MIN_GRID:
        raise ValueError("grid too small")
    with np.errstate(all="ignore"):
        u = np.linspace(u0, u1, n)
        v = np.linspace(v0, v1, n)
        rows = u if spec.row_coordinate is None else spec.row_coordinate(u)
    return ChartGrid(spec.model, u, v, None), rows


def sample(spec: SurfaceSpec, n: int, domain=None) -> ChartGrid:
    """Sample a surface on an n x n grid; validates conformality at build.

    The jet functions take the row coordinate as a column and the v axis as
    a row, so that a factor of one coordinate is computed once per line.
    They run with numpy's warnings off: an overflow leaves a non-finite jet,
    which ``ChartGrid`` names.
    """
    axes, rows = _axes(spec, n, domain)
    with np.errstate(all="ignore"):
        jet = spec.jet_fn(rows[:, None], axes.v[None, :])
    return axes.with_jet(jet)


def sample_rows(spec: SurfaceSpec, n: int, domain=None):
    """``sample(spec, n, domain)`` one row block at a time: the grid's axes,
    checked once (a ChartGrid without jets), and a function that samples
    the rows of a slice into a ChartGrid of those rows whose jets are
    checked.  Every node is sampled as ``sample`` samples it, so blocks may
    be sampled in any order, and on several threads at once.
    """
    axes, rows_at = _axes(spec, n, domain)

    def block(rows: slice) -> ChartGrid:
        with np.errstate(all="ignore"):
            jet = spec.jet_fn(rows_at[rows, None], axes.v[None, :])
        return axes.subgrid(rows).with_jet(jet)

    return axes, block


def _vectors(u, v):
    """A function that writes its k components (arrays that broadcast over
    u and v, or scalars) into one new (..., k) array; a jet function calls
    it once per part, so that only one part's factors exist at a time."""
    shape = np.broadcast_shapes(np.shape(u), np.shape(v))

    def vec(*comps):
        out = np.empty(shape + (len(comps),))
        for k, comp in enumerate(comps):
            out[..., k] = comp
        return out

    return vec


# ----------------------------------------------------------------------
# closed-form charts; u and v broadcast against each other
# ----------------------------------------------------------------------

def _plane_jets(u, v):
    vec = _vectors(u, v)
    return Jet2(vec(u, v, 0.0), vec(1.0, 0.0, 0.0), vec(0.0, 1.0, 0.0),
                vec(0.0, 0.0, 0.0), vec(0.0, 0.0, 0.0), vec(0.0, 0.0, 0.0))


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
    vec = _vectors(u, v)
    return Jet2(
        vec(2 * r * u * g, 2 * r * v * g, r * (1.0 - 2.0 * g)),
        vec(2 * r * (g + u * gu), 2 * r * v * gu, -2 * r * gu),
        vec(2 * r * u * gv, 2 * r * (g + v * gv), -2 * r * gv),
        vec(2 * r * (2 * gu + u * guu), 2 * r * v * guu, -2 * r * guu),
        vec(2 * r * (gv + u * guv), 2 * r * (gu + v * guv), -2 * r * guv),
        vec(2 * r * u * gvv, 2 * r * (2 * gv + v * gvv), -2 * r * gvv),
    )


def _cylinder_jets(u, v, rho):
    c = np.cos(v / rho)
    s = np.sin(v / rho)
    vec = _vectors(u, v)
    return Jet2(vec(rho * s, rho * c, u), vec(0.0, 0.0, 1.0), vec(c, -s, 0.0),
                vec(0.0, 0.0, 0.0), vec(0.0, 0.0, 0.0), vec(-s / rho, -c / rho, 0.0))


def _catenoid_jets(u, v):
    ch, sh = np.cosh(u), np.sinh(u)
    c, s = np.cos(v), np.sin(v)
    vec = _vectors(u, v)
    return Jet2(vec(ch * c, ch * s, u), vec(sh * c, sh * s, 1.0), vec(-ch * s, ch * c, 0.0),
                vec(ch * c, ch * s, 0.0), vec(-sh * s, sh * c, 0.0), vec(-ch * c, -ch * s, 0.0))


def _enneper_jets(u, v):
    vec = _vectors(u, v)
    return Jet2(
        vec(u - u ** 3 / 3.0 + u * v * v, v - v ** 3 / 3.0 + u * u * v, u * u - v * v),
        vec(1.0 - u * u + v * v, 2.0 * u * v, 2.0 * u),
        vec(2.0 * u * v, 1.0 - v * v + u * u, -2.0 * v),
        vec(-2.0 * u, 2.0 * v, 2.0),
        vec(2.0 * v, 2.0 * u, 0.0),
        vec(2.0 * u, -2.0 * v, -2.0),
    )


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
    z_uu = -st * rad * rad / small_r - st * ct * rad
    vec = _vectors(u, v)
    return Jet2(vec(rad * cv, rad * sv, small_r * st), vec(radp * cv, radp * sv, ct * rad),
                vec(-rad * sv, rad * cv, 0.0), vec(radpp * cv, radpp * sv, z_uu),
                vec(-radp * sv, radp * cv, 0.0), vec(-rad * cv, -rad * sv, 0.0))


def _clifford_jets(u, v):
    r2 = np.sqrt(2.0)
    cu, su = np.cos(r2 * u), np.sin(r2 * u)
    cv, sv = np.cos(r2 * v), np.sin(r2 * v)
    inv = 1.0 / r2
    vec = _vectors(u, v)
    return Jet2(vec(cu * inv, su * inv, cv * inv, sv * inv), vec(-su, cu, 0.0, 0.0),
                vec(0.0, 0.0, -sv, cv), vec(-cu * r2, -su * r2, 0.0, 0.0),
                vec(0.0, 0.0, 0.0, 0.0), vec(0.0, 0.0, -cv * r2, -sv * r2))


def _hyperbolic_cylinder_jets(u, v, d):
    t = np.tanh(d)
    shd, chd = np.sinh(d), np.cosh(d)
    cv, sv = np.cos(v), np.sin(v)
    shu, chu = np.sinh(u * t), np.cosh(u * t)
    vec = _vectors(u, v)
    return Jet2(vec(shd * cv, shd * sv, chd * shu, chd * chu),
                vec(0.0, 0.0, chd * t * chu, chd * t * shu), vec(-shd * sv, shd * cv, 0.0, 0.0),
                vec(0.0, 0.0, chd * t * t * shu, chd * t * t * chu), vec(0.0, 0.0, 0.0, 0.0),
                vec(-shd * cv, -shd * sv, 0.0, 0.0))


# ----------------------------------------------------------------------
# generic surface of revolution with quadrature isothermal coordinate
# ----------------------------------------------------------------------

# Bounds of one adaptive Simpson quadrature: its bisection depth, and its
# integrand evaluations (a converging profile quadrature took at most 4313
# over 1500 revolution_profile charts drawn at +-10^k and in [-3, 3])
SIMPSON_DEPTH = 50
SIMPSON_EVALUATIONS = 100_000


def _adaptive_simpson(f, a, b, tol):
    """Adaptive Simpson quadrature of a scalar callable, to ``tol`` times
    max(1, |first Simpson estimate|).

    Raises ``ValueError`` where it does not converge: an interval
    ``SIMPSON_DEPTH`` bisections deep misses its tolerance, or the
    integrand has been evaluated ``SIMPSON_EVALUATIONS`` times.
    """
    evaluations = 3

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) / 6.0 * (fa + 4.0 * fm + fb)

    def finite(estimate, a_, b_):
        # a NaN never meets the tolerance: it would recurse to full depth
        if not math.isfinite(estimate):
            raise ValueError(f"profile quadrature is not finite on [{a_:.6g}, {b_:.6g}]")

    def recurse(a_, b_, fa, fm, fb, whole, tol_, depth):
        nonlocal evaluations
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = f(lm), f(rm)
        evaluations += 2
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        finite(left + right, a_, b_)
        if abs(left + right - whole) <= 15.0 * tol_:
            return left + right + (left + right - whole) / 15.0
        if depth <= 0 or evaluations >= SIMPSON_EVALUATIONS:
            raise ValueError(f"profile quadrature does not converge on [{a:.6g}, {b:.6g}]:"
                             f" near t = {m:.6g} after {evaluations} evaluations")
        return recurse(a_, m, fa, flm, fm, left, tol_ / 2.0, depth - 1) + recurse(
            m, b_, fm, frm, fb, right, tol_ / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(fa, fm, fb, a, b)
    finite(whole, a, b)
    return recurse(a, b, fa, fm, fb, whole, tol * max(1.0, abs(whole)), SIMPSON_DEPTH)


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
        # callers run with numpy's warnings off (make_surface and sample do);
        # an overflow is named here
        rate = float(self.speed(t) / self.rho(t))
        if not math.isfinite(rate):
            raise ValueError(f"profile quadrature is not finite: speed / rho = {rate}"
                             f" at t = {t:.6g}")
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


def _revolution_jets(t, v, profile: _RevolutionProfile):
    # t is the row coordinate: the profile parameter that
    # ``profile.invert_many`` solves for the isothermal u of each row
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
    vec = _vectors(t, v)
    return Jet2(
        vec(rho * cv, rho * sv, profile.zeta(t)),
        vec(rho1 * cv * dt, rho1 * sv * dt, zeta1 * dt),
        vec(-rho * sv, rho * cv, 0.0),
        vec(rho2 * cv * dt ** 2 + rho1 * cv * dtt, rho2 * sv * dt ** 2 + rho1 * sv * dtt,
            zeta2 * dt ** 2 + zeta1 * dtt),
        vec(-rho1 * sv * dt, rho1 * cv * dt, 0.0),
        vec(-rho * cv, -rho * sv, 0.0),
    )


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceKind:
    """One catalog surface, declared once.

    ``defaults`` names every parameter the surface takes and ``ranges``
    states where each is valid.  ``build(**params)`` raises ``ValueError``
    outside those ranges, or returns ``(domain, jet_fn, expected)``, with
    the ``row_coordinate`` of ``SurfaceSpec`` last where the jets read one;
    the inverted catenoid's band is checked on the sampled chart instead.
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
    if not R ** 2 - r ** 2 > 0.0:
        raise ValueError(f"torus needs R^2 - r^2 > 0 in floating point, got R = {R:g},"
                         f" r = {r:g}")
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
    with np.errstate(all="ignore"):
        rho = profile.rho(np.linspace(-PROFILE_T, PROFILE_T, 301))
        if not np.all(np.isfinite(rho)):
            raise ValueError(f"profile radius is not finite on |t| <= {PROFILE_T}")
        if np.min(rho) < 0.1:
            raise ValueError("profile radius too close to the axis")
        domain = ((0.6 * profile.iso_coord(-1.0), 0.6 * profile.iso_coord(1.0)),
                  (-np.pi / 2.0, np.pi / 2.0))
    return domain, partial(_revolution_jets, profile=profile), {
        "willmore": False, "kappa": None, "umbilic": False, "not_cmc": True
    }, profile.invert_many


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
    return SurfaceSpec(name, kind.model, values, *kind.build(**values))


def list_surfaces() -> list:
    """Catalog entries with parameter ranges and expected-invariant tables."""
    return [{**make_surface(name).describe(), "param_ranges": dict(kind.ranges)}
            for name, kind in SURFACES.items()]
