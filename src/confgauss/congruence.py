"""The conformal Gauss map and its frame geometry.

Construction of the sphere congruence Y in the three representations,
envelope and metric-law residuals, the dual surfaces, and the isotropic
frame (nu, nu*) with its directional curvatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import ChartGrid, FundamentalData, interior_max, rows_read
from .jets import push_word
from .lorentz import lift, lorentz_product
from .models import oriented_data, representation

__all__ = [
    "CongruenceGrid",
    "IsotropicFrame",
    "conformal_gauss_map",
    "envelope_residuals",
    "metric_law_residual",
    "dual_surface_r3",
    "dual_surface_s3",
    "isotropic_frame",
    "transform_immersion",
]


@dataclass
class CongruenceGrid:
    """Sphere congruence Y over a chart, with stencil-derived derivatives.

    Y is real, and so are its derivatives: (Y_u, Y_v) is one real pass per
    axis, kept on first use.  Y_zz = (Y_uu - Y_vv)/4 - i Y_uv/2 and the real
    Y_zzbar = (Y_uu + Y_vv)/4 come from three more real passes, Y_uu, Y_vv
    and Y_uv, taken once and kept.  Y_z = (Y_u - i Y_v)/2 is formed on demand.
    """

    grid: ChartGrid
    Y: np.ndarray

    @cached_property
    def grad_Y(self):
        """(Y_u, Y_v), one stencil pass per axis, kept; ``Yz`` reads it."""
        return self.grid.d_u(self.Y), self.grid.d_v(self.Y)

    @property
    def Yz(self):
        y_u, y_v = self.grad_Y
        return (y_u - 1j * y_v) / 2.0  # as ChartGrid.dz

    @cached_property
    def _second_derivatives(self):
        """(Y_zz, Y_zzbar) from the three real passes Y_uu, Y_uv and Y_vv."""
        y_u, y_v = self.grad_Y
        return _zz_pair(self.grid, y_u, y_v, self.grid.d_u(y_u))

    def row_block(self, rows: slice) -> "CongruenceGrid":
        """The congruence on the grid rows ``rows``, whose Y's derivatives
        are those of ``grad_Y``, ``Yzz`` and ``Yzzb`` node for node; none is
        kept here, so blocks may be taken on several threads at once.

        Y_u is taken on the block's rows and a 2-row halo, from Y's rows
        +-4 (``grid.rows_read`` of each), Y_v on the block's rows, and the
        second derivatives on the block's rows from those two.  A block's
        congruence holds its derivatives and takes no stencil pass.
        """
        g, n = self.grid, self.grid.shape[0]
        halo = rows_read(rows, n)
        y_u = g.d_u_rows(self.Y[rows_read(halo, n)], halo)
        y_v = g.d_v(self.Y[rows])
        block = CongruenceGrid(g.subgrid(rows), self.Y[rows])
        block.grad_Y = y_u[rows.start - halo.start:rows.stop - halo.start], y_v
        block._second_derivatives = _zz_pair(g, block.grad_Y[0], y_v,
                                             g.d_u_rows(y_u, rows))
        return block

    @property
    def Yzz(self):
        return self._second_derivatives[0]

    @property
    def Yzzb(self):
        """Y_zzbar = Delta Y / 4, a real field."""
        return self._second_derivatives[1]

    @property
    def e2L(self):
        """Conformal exponent of Y: e^{2L} = 2 <Y_z, Y_zbar>
        = (<Y_u, Y_u> + <Y_v, Y_v>) / 2."""
        y_u, y_v = self.grad_Y
        return 0.5 * (lorentz_product(y_u, y_u) + lorentz_product(y_v, y_v))

    def norm_defect(self) -> float:
        return float(np.max(np.abs(lorentz_product(self.Y, self.Y) - 1.0)))


def _zz_pair(grid: ChartGrid, y_u, y_v, y_uu):
    """(Y_zz, Y_zzbar) = ((Y_uu - Y_vv)/4 - i Y_uv/2, (Y_uu + Y_vv)/4) on
    the rows of Y_u and Y_v, whose v-passes are Y_uv and Y_vv; Y_uu is
    overwritten by Y_zzbar."""
    yzz = np.empty(y_u.shape, complex)
    yzz.imag = grid.d_v(y_u)
    yzz.imag *= -0.5
    y_vv = grid.d_v(y_v)
    np.subtract(y_uu, y_vv, out=yzz.real)
    yzz.real *= 0.25
    y_uu += y_vv
    y_uu *= 0.25
    return yzz, y_uu


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
    law = np.abs(cong.e2L - target)
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
    hz = data.H_z
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
    hz = data.H_z
    e2lam = data.e2lam
    om2 = np.abs(data.Omega) ** 2
    grad2 = 4.0 * np.abs(hz) ** 2 * e2lam
    t_x = om2 * (1.0 + data.H ** 2) + grad2
    alpha = (data.H ** 2 * om2 + grad2 - om2) / t_x
    # the x_zbar term is the conjugate of the x_z term
    tangent = -8.0 * ((hz * np.conj(data.Omega) / t_x)[..., None] * g.pos_z).real
    return (
        alpha[..., None] * g.pos
        + tangent
        + (2.0 * om2 * data.H / t_x)[..., None] * data.n
    )


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
    h_nu = 2.0 * lorentz_product(cong.Yzzb, nu) / e2big_l
    h_nustar = 2.0 * lorentz_product(cong.Yzzb, nustar) / e2big_l
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
    return oriented_data(g.with_jet(jet), data)

