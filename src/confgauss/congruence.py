"""The conformal Gauss map and its frame geometry.

Construction of the sphere congruence Y in the three representations,
envelope and metric-law residuals, the dual surfaces, and the isotropic
frame (nu, nu*) with its directional curvatures.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Every derivative of Y comes from one row-window kernel: this
    congruence is the rows ``rows`` of a grid's Y (all of them, or a
    ``row_block``), and its derivatives are those rows of the whole grid's,
    node for node.  Y is real, and so are its derivatives: (Y_u, Y_v) is
    one real pass per axis, Y_zz = (Y_uu - Y_vv)/4 - i Y_uv/2 and the real
    Y_zzbar = (Y_uu + Y_vv)/4 three more, Y_uu, Y_vv and Y_uv.  Each is
    taken on first read and kept; Y_z = (Y_u - i Y_v)/2 is formed on demand.
    """

    grid: ChartGrid
    Y: np.ndarray

    def __post_init__(self):
        # (the grid, its Y, the rows of them that this congruence is), and
        # the kept derivatives: plain attributes, not ``cached_property``,
        # whose lock all instances share before Python 3.12
        self._window = self.grid, self.Y, slice(0, self.grid.shape[0])
        self._grad = self._zz = None

    def row_block(self, rows: slice) -> "CongruenceGrid":
        """The congruence on the grid rows ``rows``, whose derivatives are
        this one's there; they are kept on the block only, so blocks may be
        taken on several threads at once."""
        block = CongruenceGrid(self.grid.subgrid(rows), self.Y[rows])
        block._window = self.grid, self.Y, rows
        return block

    @property
    def grad_Y(self):
        """(Y_u, Y_v) on this congruence's rows, one pass per axis.

        Y_u is taken on the rows and a 2-row halo, ``grid.rows_read`` of
        them, from Y's rows ``rows_read`` of those, and kept whole, so that
        Y_uu needs no second Y_u pass; Y_v on the rows.
        """
        if self._grad is None:
            g, y, rows = self._window
            n = g.shape[0]
            halo = rows_read(rows, n)
            self._y_u = g.d_u_rows(y[rows_read(halo, n)], halo)
            self._grad = self._y_u[rows.start - halo.start:rows.stop - halo.start], g.d_v(y[rows])
        return self._grad

    @property
    def Yz(self):
        y_u, y_v = self.grad_Y
        return (y_u - 1j * y_v) / 2.0  # as ChartGrid.dz

    @property
    def _second_derivatives(self):
        """(Y_zz, Y_zzbar) = ((Y_uu - Y_vv)/4 - i Y_uv/2, (Y_uu + Y_vv)/4)
        from the three real passes Y_uu, Y_uv and Y_vv."""
        if self._zz is None:
            (y_u, y_v), (g, _, rows) = self.grad_Y, self._window
            yzz = np.empty(y_u.shape, complex)
            yzz.imag = g.d_v(y_u)
            yzz.imag *= -0.5
            y_uu, y_vv = g.d_u_rows(self._y_u, rows), g.d_v(y_v)
            np.subtract(y_uu, y_vv, out=yzz.real)
            yzz.real *= 0.25
            y_uu += y_vv  # Y_uu becomes Y_zzbar
            y_uu *= 0.25
            self._zz = yzz, y_uu
        return self._zz

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

