"""The conformal Gauss map and its frame geometry.

Construction of the sphere congruence Y in the three representations,
envelope and metric-law residuals, the dual surfaces, the isotropic frame
(nu, nu*) with its directional curvatures, and the reconstruction of the
enveloped immersion from a congruence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import ChartGrid, FundamentalData, interior_max
from .jets import push_word
from .lorentz import dehomogenize, dot, lift, lorentz_product
from .models import oriented_r3_data, representation

__all__ = [
    "CongruenceGrid",
    "IsotropicFrame",
    "conformal_gauss_map",
    "envelope_residuals",
    "metric_law_residual",
    "dual_surface_r3",
    "dual_surface_s3",
    "dual_branch_mask",
    "isotropic_frame",
    "reconstruct_from_congruence",
    "transform_immersion",
]

BRANCH_REL_TOL = 1e-6
RECONSTRUCT_TOL = 1e-6


@dataclass
class CongruenceGrid:
    """Sphere congruence Y over a chart, with stencil-derived derivatives.

    Each derivative is taken on first use and kept: Y_z by one dz over all
    five components, Y_zz and Y_zzbar from one shared d_u and d_v of Y_z.
    """

    grid: ChartGrid
    Y: np.ndarray

    @cached_property
    def Yz(self):
        return self.grid.dz(self.Y)

    @cached_property
    def Yzb(self):
        return np.conj(self.Yz)

    @cached_property
    def _second_derivatives(self):
        return self.grid.dz_dzbar(self.Yz)

    @property
    def Yzz(self):
        return self._second_derivatives[0]

    @property
    def Yzzb(self):
        return self._second_derivatives[1]

    @property
    def e2L(self):
        """Conformal exponent of Y: e^{2L} = 2 <Y_z, Y_zbar>."""
        return 2.0 * lorentz_product(self.Yz, self.Yzb).real

    def norm_defect(self) -> float:
        return float(np.max(np.abs(lorentz_product(self.Y, self.Y) - 1.0)))


def conformal_gauss_map(data: FundamentalData) -> CongruenceGrid:
    """Conformal Gauss map Y = H p(x) + dp_x(n) of the immersion, in the
    data's representation."""
    pos = data.grid.pos
    y = data.H[..., None] * lift(pos, data.model) + lift(pos, data.model, tangent=data.n)
    return CongruenceGrid(data.grid, y)


def envelope_residuals(cong: CongruenceGrid, lift_field: np.ndarray):
    """Interior max norms of <Y, p> and <Y, p_z> for a lift field p."""
    r1 = lorentz_product(cong.Y, lift_field)
    r2 = lorentz_product(cong.Y.astype(complex), cong.grid.dz(lift_field))
    return interior_max(r1), interior_max(r2)


def metric_law_residual(cong: CongruenceGrid, data: FundamentalData) -> float:
    """Residual of <dY,dY> = (|A|^2/2) g in complex form."""
    target = np.abs(data.Omega) ** 2 * np.exp(-2.0 * data.lam)
    law = np.abs(2.0 * lorentz_product(cong.Yz, cong.Yzb) - target)
    conf = np.abs(lorentz_product(cong.Yz, cong.Yz))
    return interior_max(law + conf)


def _require_no_umbilic(data: FundamentalData, what: str):
    if data.has_umbilic():
        raise ValueError(f"{what} undefined: umbilic points on the chart")


def dual_surface_r3(data: FundamentalData) -> np.ndarray:
    """Second envelope of Y for an R^3 immersion."""
    if data.model != "r3":
        raise ValueError("dual_surface_r3 needs R^3 data")
    _require_no_umbilic(data, "dual")
    g = data.grid
    hz = g.dz(data.H)
    em2l = np.exp(-2.0 * data.lam)
    om2 = np.abs(data.Omega) ** 2
    t_phi = 4.0 * np.abs(hz) ** 2 + data.H ** 2 * om2 * em2l
    floor = 1e-10 * float(np.max(om2 * em2l))
    if float(np.min(t_phi[2:-2, 2:-2])) <= floor:
        raise ValueError("dual undefined: T vanishes on the chart")
    # the phi_zbar term is the conjugate of the phi_z term
    tangent = -8.0 * ((hz * np.conj(data.Omega) * em2l / t_phi)[..., None] * g.pos_z).real
    normal_part = (2.0 * data.H * om2 * em2l / t_phi)[..., None] * data.n
    return g.pos + tangent + normal_part


def dual_surface_s3(data: FundamentalData) -> np.ndarray:
    """Second envelope of Y for an S^3 immersion, unit-norm field X*."""
    if data.model != "s3":
        raise ValueError("dual_surface_s3 needs S^3 data")
    _require_no_umbilic(data, "dual")
    g = data.grid
    hz = g.dz(data.H)
    e2lam = data.e2lam
    om2 = np.abs(data.Omega) ** 2
    t_x = om2 * (1.0 + data.H ** 2) + 4.0 * np.abs(hz) ** 2 * e2lam
    alpha = (data.H ** 2 * om2 + 4.0 * np.abs(hz) ** 2 * e2lam - om2) / t_x
    # the x_zbar term is the conjugate of the x_z term
    tangent = -8.0 * ((hz * np.conj(data.Omega) / t_x)[..., None] * g.pos_z).real
    return (
        alpha[..., None] * g.pos
        + tangent
        + (2.0 * om2 * data.H / t_x)[..., None] * data.n
    )


def dual_branch_mask(data: FundamentalData, xstar: np.ndarray) -> np.ndarray:
    """Nodes where the dual stops immersing: |X*_z|^2 below threshold.

    The dual of a Willmore immersion may be branched; branch points are
    reported, not classified.
    """
    g = data.grid
    xstar_z = g.dz(xstar)
    speed2 = dot(xstar_z, np.conj(xstar_z)).real
    return speed2 <= BRANCH_REL_TOL * float(np.max(speed2))


@dataclass
class IsotropicFrame:
    """Isotropic normal frame (nu, nu*) of Y with directional curvatures."""

    nu: np.ndarray
    nustar: np.ndarray
    l: np.ndarray
    e2L: np.ndarray
    H_nu: np.ndarray
    H_nustar: np.ndarray
    Omega_nu: np.ndarray
    Omega_nustar: np.ndarray


def isotropic_frame(data: FundamentalData, cong: CongruenceGrid) -> IsotropicFrame:
    """Frame (nu, nu*) = (p(X), -p(X*)/l) and its directional curvatures."""
    if data.model != "s3":
        raise ValueError("isotropic_frame needs S^3 data")
    _require_no_umbilic(data, "frame")
    nu = lift(data.grid.pos, "s3")
    xstar = dual_surface_s3(data)
    pxstar = lift(xstar, "s3")
    l = lorentz_product(nu, pxstar)
    nustar = -pxstar / l[..., None]
    e2big_l = cong.e2L
    omega_nu = 2.0 * lorentz_product(cong.Yzz, nu)
    omega_nustar = 2.0 * lorentz_product(cong.Yzz, nustar)
    h_nu = 2.0 * lorentz_product(cong.Yzzb, nu).real / e2big_l
    h_nustar = 2.0 * lorentz_product(cong.Yzzb, nustar).real / e2big_l
    return IsotropicFrame(nu, nustar, l, e2big_l, h_nu, h_nustar, omega_nu, omega_nustar)


def transform_immersion(data: FundamentalData, word) -> FundamentalData:
    """Apply a Moebius generator word to a surface by pushing its jets.

    Surfaces charted in S^3 or H^3 are first re-expressed in the R^3
    gauge; the word then acts on R^3 ∪ {∞} through its generators' SO(4,1)
    matrices on the lifted jets, keeping analytic jets (never re-sampling),
    and the normal is the one induced by the source's orientation.
    """
    data = representation(data, "r3")
    g = data.grid
    jet = push_word(g.jet, word)
    return oriented_r3_data(ChartGrid("r3", g.u, g.v, jet), data)


def reconstruct_from_congruence(cong: CongruenceGrid, nu0: np.ndarray) -> np.ndarray:
    """Recover the enveloped S^3 immersion from Y and an isotropic normal.

    nu0 must be isotropic, normal to Y and Y_z, and of vanishing mean
    curvature H_nu0; the result is nu0 renormalized by its 5th component.
    """
    nu0 = np.asarray(nu0, dtype=float)
    scale = float(np.max(np.abs(nu0)))
    iso = interior_max(lorentz_product(nu0, nu0)) / scale ** 2
    if iso > RECONSTRUCT_TOL:
        raise ValueError("normal direction is not isotropic")
    if interior_max(lorentz_product(cong.Y, nu0)) / scale > RECONSTRUCT_TOL:
        raise ValueError("direction is not normal to Y")
    if interior_max(lorentz_product(cong.Yz, nu0.astype(complex))) / scale > RECONSTRUCT_TOL:
        raise ValueError("direction is not normal to the tangent of Y")
    h_nu0 = 2.0 * lorentz_product(cong.Yzzb, nu0.astype(complex)).real / cong.e2L
    if interior_max(h_nu0) / scale > RECONSTRUCT_TOL:
        raise ValueError("not integrable: H_nu does not vanish")
    num, den = dehomogenize(nu0, "s3")
    return num / den[..., None]
