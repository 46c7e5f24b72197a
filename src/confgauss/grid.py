"""Discrete calculus on conformal chart grids.

Wirtinger derivatives of sampled fields by 4th-order stencils, extraction
of the fundamental data (lam, n, H, Omega) from analytic 2-jets in real
arithmetic (the first fundamental form E, F, G and the normal parts of the
second derivatives), and the structure-equation residuals.  Order <= 2
jets are always analytic; every higher derivative is a stencil derivative
of a per-node field, never a difference of positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import Jet2
from .lorentz import dot

__all__ = [
    "ChartGrid",
    "FundamentalData",
    "chart_normal",
    "fundamental_data",
    "gauss_codazzi_residual",
    "structure_residuals",
    "interior_max",
    "export_csv",
]

MIN_GRID = 9
UMBILIC_REL_TOL = 1e-7
SPACING_REL_TOL = 1e-6
CONF_TOL = 1e-8
IMM_EPS = 1e-12


def _onesided_weights(pos: int, nodes: int = 7) -> np.ndarray:
    """First-derivative weights at node ``pos`` over nodes 0..nodes-1.

    Exact on polynomials of degree < nodes; the extra node over the
    minimal 4th-order stencil keeps repeated differentiation from
    amplifying edge errors into the interior band.
    """
    offsets = np.arange(nodes, dtype=float) - pos
    vander = np.vander(offsets, nodes, increasing=True).T
    rhs = np.zeros(nodes)
    rhs[1] = 1.0
    return np.linalg.solve(vander, rhs)


# rows 0, 1 over nodes 0..6, and rows n-2, n-1 over nodes n-7..n-1
_EDGE = np.stack([_onesided_weights(0), _onesided_weights(1)])
_EDGE_END = -_EDGE[::-1, ::-1]


def _axis_derivative(f, h: float, n: int, axis: int) -> np.ndarray:
    """First derivative along ``axis`` (0 or 1) of a field on n uniform nodes.

    Central 4th-order stencil (f[i-2] - 8 f[i-1] + 8 f[i+1] - f[i+2]) / 12h
    in the interior, applied by slicing at O(n) cost per line; one-sided
    7-node stencils (6th order) on the two-node boundary bands.  Trailing
    component axes are carried along, and a real field gives a real result.
    """
    f = np.asarray(f)
    if f.shape[axis] != n:
        raise ValueError(
            f"field has {f.shape[axis]} nodes along axis {axis}, grid has {n}")
    out = np.empty(f.shape, np.result_type(f.dtype, np.float64))

    def along(start, stop=None):
        return (slice(None),) * axis + (slice(start, stop),)

    inner = out[along(2, -2)]
    np.subtract(f[along(3, -1)], f[along(1, -3)], out=inner)
    inner *= 8.0
    inner += f[along(0, -4)]
    inner -= f[along(4)]
    inner *= 1.0 / (12.0 * h)
    for rows, weights, nodes in ((along(0, 2), _EDGE, along(0, 7)),
                                 (along(-2), _EDGE_END, along(-7))):
        block = np.moveaxis(f[nodes], axis, 0)
        band = (weights / h) @ block.reshape(7, -1)
        out[rows] = np.moveaxis(band.reshape((2,) + block.shape[1:]), 0, axis)
    return out


def _ambient_dot(model: str, a, b):
    """Ambient product of the model space; bilinear, broadcasts."""
    if model == "h3":
        return dot(a[..., :3], b[..., :3]) - a[..., 3] * b[..., 3]
    return dot(a, b)


def _cross4(a, b, c):
    """Euclidean generalized cross product of R^4: <w,t> = det[a,b,c,t]."""
    w = np.zeros(a.shape)
    idx = [0, 1, 2, 3]
    for i in range(4):
        rest = idx[:i] + idx[i + 1 :]
        m = np.stack(
            [a[..., rest], b[..., rest], c[..., rest]], axis=-2
        )  # rows a,b,c with column i removed -> minor of column block
        det3 = (
            m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0])
        )
        # cofactor of entry (i, 3) in the matrix with columns [a, b, c, t]
        w[..., i] = ((-1) ** (i + 3)) * det3
    return w


def _check_axis(name: str, axis: np.ndarray) -> None:
    """Reject a chart axis that is not finite, strictly increasing and uniform."""
    if not np.all(np.isfinite(axis)):
        raise ValueError(f"chart axis {name} has non-finite values")
    steps = np.diff(axis)
    if np.any(steps <= 0.0):
        raise ValueError(f"chart axis {name} is not strictly increasing")
    mean = (axis[-1] - axis[0]) / (len(axis) - 1)
    if np.max(np.abs(steps - mean)) > SPACING_REL_TOL * mean:
        raise ValueError(f"chart axis {name} is not uniformly spaced")


@dataclass
class ChartGrid:
    """Rectangular sample grid over a conformal chart with analytic 2-jets."""

    model: str
    u: np.ndarray
    v: np.ndarray
    jet: Jet2

    def __post_init__(self):
        if len(self.u) < MIN_GRID or len(self.v) < MIN_GRID:
            raise ValueError("grid too small")
        if self.model not in ("r3", "s3", "h3"):
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("u", "v"):
            _check_axis(name, np.asarray(getattr(self, name), dtype=float))
        for name in ("pos", "du", "dv", "duu", "duv", "dvv"):
            if not np.all(np.isfinite(getattr(self.jet, name))):
                raise ValueError(f"jet has non-finite values in {name}")
        self.hu = float(self.u[1] - self.u[0])
        self.hv = float(self.v[1] - self.v[0])
        # first fundamental form: <p_z, p_zbar> = (E + G) / 4 and
        # |<p_z, p_z>| = hypot(E - G, 2F) / 4
        du, dv = self.jet.du, self.jet.dv
        e, f, g = self._dot(du, du), self._dot(du, dv), self._dot(dv, dv)
        trace = e + g
        if np.any(trace <= 4.0 * IMM_EPS):
            raise ValueError("degenerate jet: immersion condition fails")
        if np.any(np.hypot(e - g, 2.0 * f) > CONF_TOL * trace):
            raise ValueError("chart is not conformal within tolerance")

    # -- chart data -----------------------------------------------------
    def _dot(self, a, b):
        return _ambient_dot(self.model, a, b)

    @property
    def metric_trace(self):
        """E + G = 2 e^{2 lam}, from the 1-jets (recomputed, not kept)."""
        du, dv = self.jet.du, self.jet.dv
        return self._dot(du, du) + self._dot(dv, dv)

    @property
    def shape(self):
        return self.jet.pos.shape[:2]

    @property
    def pos(self):
        return self.jet.pos

    # -- complex jets, for the structure equations ----------------------
    @property
    def pos_z(self):
        return (self.jet.du - 1j * self.jet.dv) / 2.0

    @property
    def pos_zb(self):
        return (self.jet.du + 1j * self.jet.dv) / 2.0

    @property
    def pos_zz(self):
        return (self.jet.duu - self.jet.dvv - 2j * self.jet.duv) / 4.0

    @property
    def pos_zzb(self):
        return (self.jet.duu + self.jet.dvv) / 4.0

    # -- stencil derivatives ------------------------------------------
    def d_u(self, f):
        return _axis_derivative(f, self.hu, len(self.u), 0)

    def d_v(self, f):
        return _axis_derivative(f, self.hv, len(self.v), 1)

    def dz(self, f):
        """Discrete d/dz = (d/du - i d/dv)/2 of a sampled field."""
        return (self.d_u(f) - 1j * self.d_v(f)) / 2.0

    def dzbar(self, f):
        """Discrete d/dzbar = (d/du + i d/dv)/2 of a sampled field."""
        return (self.d_u(f) + 1j * self.d_v(f)) / 2.0

    def dz_dzbar(self, f):
        """(dz f, dzbar f) from one d_u and one d_v pass."""
        f_u, i_f_v = self.d_u(f), 1j * self.d_v(f)
        return (f_u - i_f_v) / 2.0, (f_u + i_f_v) / 2.0


def interior_max(f, band: int = 2) -> float:
    """Max norm over the grid interior, excluding the boundary band.

    Vector fields are reduced by the euclidean norm of the components.
    """
    f = np.asarray(f)[band:-band, band:-band]
    if f.ndim > 2:
        f = np.sqrt((np.abs(f) ** 2).sum(axis=tuple(range(2, f.ndim))))
    return float(np.max(np.abs(f)))


@dataclass
class FundamentalData:
    """Per-node (lam, n, H, Omega) of a chart grid in its tagged model."""

    grid: ChartGrid
    lam: np.ndarray
    n: np.ndarray
    H: np.ndarray
    Omega: np.ndarray

    @property
    def model(self) -> str:
        return self.grid.model

    @property
    def e2lam(self):
        return np.exp(2.0 * self.lam)

    @property
    def umbilic_mask(self):
        return np.abs(self.Omega) <= UMBILIC_REL_TOL * self.e2lam

    def has_umbilic(self) -> bool:
        return bool(np.any(self.umbilic_mask[2:-2, 2:-2]))

    @cached_property
    def orientation(self) -> int:
        """+1 when n is the chart's own normal (``chart_normal``), else -1."""
        dots = self.grid._dot(self.n, chart_normal(self.grid))
        return 1 if float(np.sum(dots)) >= 0.0 else -1

    def tracefree_form(self):
        """Real-notation tracefree second fundamental form (A11, A12)."""
        e = np.exp(-2.0 * self.lam)
        return self.Omega.real * e, -self.Omega.imag * e


def chart_normal(grid: ChartGrid) -> np.ndarray:
    """Unit normal that the chart's own orientation gives, from its 1-jets.

    R^3: p_u x p_v over the conformal factor (|p_u|^2 + |p_v|^2)/2;
    S^3 and H^3: the unit normal n with det[p, p_u, p_v, n] > 0
    (euclidean, resp. Lorentzian cross product).
    """
    du, dv = grid.jet.du, grid.jet.dv
    if grid.model == "r3":
        return np.cross(du, dv) * (2.0 / grid.metric_trace)[..., None]
    w = _cross4(grid.pos, du, dv)
    if grid.model == "h3":
        w[..., 3] = -w[..., 3]  # Lorentzian cross of R^{3,1}: <w,t>_{3,1} = det
    norm2 = grid._dot(w, w)
    if np.any(norm2 <= 0.0):
        raise ValueError("degenerate jet: normal has no positive length")
    return w / np.sqrt(norm2)[..., None]


def fundamental_data(grid: ChartGrid) -> FundamentalData:
    """Extract (lam, n, H, Omega) from the analytic 2-jets of a grid.

    Real arithmetic throughout: e^{2 lam} = (E + G) / 2,
    H = <p_uu + p_vv, n> / (E + G) and
    Omega = <p_uu - p_vv, n> / 2 - i <p_uv, n>, which are 2 <p_zz, n> and
    <p_zzbar, n> / <p_z, p_zbar> of the complex jets.
    """
    jet, trace = grid.jet, grid.metric_trace
    lam = 0.5 * np.log(0.5 * trace)
    n = chart_normal(grid)
    h_field = grid._dot(jet.duu + jet.dvv, n) / trace
    omega = 0.5 * grid._dot(jet.duu - jet.dvv, n) - 1j * grid._dot(jet.duv, n)
    return FundamentalData(grid, lam, n, h_field, omega)


def gauss_codazzi_residual(data: FundamentalData) -> np.ndarray:
    """Residual field of Omega_zbar e^{-2 lam} - H_z."""
    g = data.grid
    return g.dzbar(data.Omega) * np.exp(-2.0 * data.lam) - g.dz(data.H)


def structure_residuals(data: FundamentalData) -> float:
    """Max interior residual of the three structure equations.

    n_z = -H p_z - Omega e^{-2lam} p_zbar,
    p_zzbar = H (e^{2lam}/2) n  (+/- the ambient term on S^3 / H^3),
    p_zz = 2 lam_z p_z + (Omega/2) n.
    """
    grid = data.grid
    pz, pzb = grid.pos_z, grid.pos_zb
    e2l = data.e2lam
    nc = data.n.astype(complex)

    n_z = grid.dz(data.n)
    r1 = n_z + data.H[..., None] * pz + (data.Omega * np.exp(-2.0 * data.lam))[..., None] * pzb

    r2 = grid.pos_zzb - (data.H * e2l / 2.0)[..., None] * nc
    if grid.model == "s3":
        r2 = r2 + (e2l / 2.0)[..., None] * grid.pos
    elif grid.model == "h3":
        r2 = r2 - (e2l / 2.0)[..., None] * grid.pos

    lam_z = grid.dz(data.lam)
    r3 = grid.pos_zz - 2.0 * lam_z[..., None] * pz - (data.Omega / 2.0)[..., None] * nc

    return max(interior_max(r1), interior_max(r2), interior_max(r3))


def export_csv(path, grid: ChartGrid, fields: dict) -> None:
    """Write per-node fields as CSV with header row u,v,<components...>.

    Rows run u-major (u outer, v inner); every value is %.17g, and a complex
    component is written as <name>_re, <name>_im.  The bytes are those of
    ``np.savetxt(path, table, delimiter=",", header=header, comments="",
    fmt="%.17g")``, written one grid line at a time: each u and v value is
    formatted once, and a line's field values go through one format string.
    """
    u = np.asarray(grid.u, dtype=float)
    v = np.asarray(grid.v, dtype=float)
    cols = []
    names = ["u", "v"]
    for name, f in fields.items():
        f = np.asarray(f)
        if f.shape[:2] != (u.size, v.size):
            raise ValueError(f"field {name} has shape {f.shape}, grid has "
                             f"{u.size} x {v.size} nodes")
        if f.ndim == 2:
            comps = [(name, f)]
        else:
            comps = [(f"{name}{k + 1}", f[..., k]) for k in range(f.shape[-1])]
        for cname, comp in comps:
            if np.iscomplexobj(comp):
                cols += [comp.real, comp.imag]
                names += [f"{cname}_re", f"{cname}_im"]
            else:
                cols += [comp]
                names += [cname]
    block = np.empty((u.size, v.size, len(cols)))
    for k, col in enumerate(cols):
        block[..., k] = col
    # "%.17g" text contains no "%", so formatted axis values can sit in a
    # format string
    v_rows = [",".join(["%.17g" % vj] + ["%.17g"] * len(cols)) + "\n"
              for vj in v.tolist()]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for ui, line in zip(u.tolist(), block):
            u_text = "%.17g," % ui
            fh.write((u_text + u_text.join(v_rows)) % tuple(line.ravel().tolist()))
