"""Discrete calculus on conformal chart grids.

Wirtinger derivatives of sampled fields by 4th-order stencils, extraction
of the fundamental data (lam, n, H, Omega) from analytic 2-jets in real
arithmetic (the first fundamental form E, F, G and the normal parts of the
second derivatives), and the structure-equation residuals.  Order <= 2
jets are always analytic; every higher derivative is a stencil derivative
of a per-node field, never a difference of positions.  The pointwise
checks and extractions run over ``jets.row_blocks``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import Jet2, per_component, row_blocks
from .lorentz import dot

__all__ = [
    "ChartGrid",
    "FundamentalData",
    "rows_read",
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


def rows_read(rows: slice, n: int) -> slice:
    """The rows of an n-row field that its derivative along the rows reads
    on ``rows``: two more on each side, and all 7 edge rows where ``rows``
    reaches into a two-row edge band."""
    lo, hi = max(rows.start - 2, 0), min(rows.stop + 2, n)
    if rows.start < 2:
        hi = max(hi, 7)
    if rows.stop > n - 2:
        lo = min(lo, n - 7)
    return slice(lo, hi)


def _axis_derivative(f, h: float, n: int, axis: int, rows: slice | None = None) -> np.ndarray:
    """First derivative along ``axis`` (0 or 1) of a field on n uniform nodes.

    Central 4th-order stencil (f[i-2] - 8 f[i-1] + 8 f[i+1] - f[i+2]) / 12h
    in the interior, one-sided 7-node stencils (6th order) on the two-node
    boundary bands.  Trailing component axes are carried along, and a real
    field gives a real result.

    ``rows`` is a row window of an axis-0 pass: the field's rows
    ``rows_read(rows, n)`` go in and the derivative's rows ``rows`` come
    out, each node as the whole-grid pass (``rows`` None) computes it.
    The interior stencil is one pass over the flattened field, whose axis
    neighbours are ``step`` elements apart; what it writes across the
    line ends of an axis-1 pass, the edge stencils overwrite.
    """
    f = np.ascontiguousarray(f)
    if rows is None:
        rows = read = slice(0, n)
    else:
        read = rows_read(rows, n)
    if f.shape[axis] != read.stop - read.start:
        raise ValueError(f"field has {f.shape[axis]} nodes along axis {axis}, grid has {n}"
                         + ("" if read == slice(0, n) else
                            f", of which rows {read.start}..{read.stop - 1} are read"))
    a, b = rows.start, rows.stop
    out = np.empty(f.shape[:axis] + (b - a,) + f.shape[axis + 1:],
                   np.result_type(f.dtype, np.float64))

    def along(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    step = math.prod(f.shape[axis + 1:])
    first, last = max(a, 2), min(b, n - 2)  # the interior rows out holds
    if last > first:
        src = f.reshape(-1)[(first - 2 - read.start) * step:
                            f.size - (read.stop - last - 2) * step]
        inner = out.reshape(-1)[(first - a) * step:out.size - (b - last) * step]
        np.subtract(src[3 * step:src.size - step], src[step:src.size - 3 * step], out=inner)
        inner *= 8.0
        inner += src[:src.size - 4 * step]
        inner -= src[4 * step:]
        inner *= 1.0 / (12.0 * h)
    for edge, weights, nodes in ((0, _EDGE, 0), (n - 2, _EDGE_END, n - 7)):
        lo, hi = max(a, edge), min(b, edge + 2)
        if lo >= hi:
            continue
        nodes -= read.start
        block = np.moveaxis(f[along(nodes, nodes + 7)], axis, 0)
        band = ((weights / h) @ block.reshape(7, -1))[lo - edge:hi - edge]
        out[along(lo - a, hi - a)] = np.moveaxis(
            band.reshape((hi - lo,) + block.shape[1:]), 0, axis)
    return out


def _ambient_dot(model: str, a, b):
    """Ambient product of the model space; bilinear, broadcasts."""
    if model == "h3":
        return dot(a[..., :3], b[..., :3]) - a[..., 3] * b[..., 3]
    return dot(a, b)


def _trace(model: str, du, dv):
    """E + G = 2 e^{2 lam} of 1-jets in ``model``."""
    return _ambient_dot(model, du, du) + _ambient_dot(model, dv, dv)


def _cross4(a, b, c, out=None):
    """Euclidean generalized cross product of R^4: <w,t> = det[a,b,c,t],
    into ``out`` when given."""
    a, b, c = (np.moveaxis(x, -1, 0) for x in (a, b, c))  # component views
    # 2x2 minors of rows b, c on columns j < k, each shared by two 3x3 minors
    bc = {(j, k): b[j] * c[k] - b[k] * c[j]
          for j in range(4) for k in range(j + 1, 4)}
    w = np.empty(a.shape[1:] + (4,)) if out is None else out
    for i in range(4):
        # rows a, b, c with column i removed: the minor of entry (i, 3)
        p, q, s = (k for k in range(4) if k != i)
        det3 = a[p] * bc[q, s] - a[q] * bc[p, s] + a[s] * bc[p, q]
        # cofactor sign (-1)^(i + 3) in the matrix with columns [a, b, c, t]
        w[..., i] = det3 if i % 2 else -det3
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
    """Rectangular sample grid over a conformal chart with analytic 2-jets.

    ``jet`` is None on a grid that keeps only its axes: the classifier's
    S^3 view, whose fields are read off one row block at a time.
    """

    model: str
    u: np.ndarray
    v: np.ndarray
    jet: Jet2 | None

    def __post_init__(self):
        self._check_axes()
        if self.jet is not None:
            self._check_jet()

    def _check_jet(self):
        """Finite, immersed and conformal jets, node by node."""
        jet, lead = self.jet, self.jet.pos.shape[:-1]
        for name in ("pos", "du", "dv", "duu", "duv", "dvv"):
            part = getattr(jet, name)
            if not all(np.isfinite(part[rows]).all() for rows in row_blocks(lead)):
                raise ValueError(f"jet has non-finite values in {name}"
                                 f" of the {self.model} chart")
        # first fundamental form: <p_z, p_zbar> = (E + G) / 4 and
        # |<p_z, p_z>| = hypot(E - G, 2F) / 4; a degenerate node anywhere
        # is named before a non-conformal one, and an overflowing one (whose
        # NaNs would pass both tests) before either
        conformal = True
        for rows in row_blocks(lead):
            du, dv = jet.du[rows], jet.dv[rows]
            with np.errstate(over="ignore", invalid="ignore"):
                e, f, g = self._dot(du, du), self._dot(du, dv), self._dot(dv, dv)
                trace = e + g
            if not (np.isfinite(trace).all() and np.isfinite(f).all()):
                raise ValueError("first fundamental form overflows: E + G or F is not finite")
            if np.any(trace <= 4.0 * IMM_EPS):
                raise ValueError("degenerate jet: immersion condition fails")
            conformal = conformal and not np.any(np.hypot(e - g, 2.0 * f) > CONF_TOL * trace)
        if not conformal:
            raise ValueError("chart is not conformal within tolerance")

    def _check_axes(self):
        """Size, model and axes; sets the spacings ``hu`` and ``hv``."""
        if len(self.u) < MIN_GRID or len(self.v) < MIN_GRID:
            raise ValueError("grid too small")
        if self.model not in ("r3", "s3", "h3"):
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("u", "v"):
            _check_axis(name, np.asarray(getattr(self, name), dtype=float))
        self.hu = float(self.u[1] - self.u[0])
        self.hv = float(self.v[1] - self.v[0])

    def subgrid(self, rows=slice(None), step: int = 1) -> "ChartGrid":
        """Nodes ``[rows][::step, ::step]`` of this grid over its own arrays
        (no copy), whose jets are not checked again.

        A row band (step 1) is not checked at all and keeps this grid's
        spacings, so that its interior stencils are this grid's to the bit;
        a restriction checks its size and axes and takes their spacings.
        """
        sub = copy.copy(self)
        sub.u, sub.v = self.u[rows][::step], self.v[::step]
        if self.jet is not None:
            sub.jet = Jet2(*(a[rows][::step, ::step] for a in vars(self.jet).values()))
        if step != 1:
            sub._check_axes()
        return sub

    def with_jet(self, jet: Jet2 | None, model: str | None = None) -> "ChartGrid":
        """This grid's nodes and spacings with ``jet`` in ``model`` (this
        grid's by default): the jets are checked, the axes are not again, so
        a row band shorter than ``MIN_GRID`` is valid.  ``None`` keeps the
        axes only."""
        grid = copy.copy(self)
        grid.model, grid.jet = model or self.model, jet
        if jet is not None:
            grid._check_jet()
        return grid

    # -- chart data -----------------------------------------------------
    def _dot(self, a, b):
        return _ambient_dot(self.model, a, b)

    @property
    def shape(self):
        return len(self.u), len(self.v)

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

    def d_u_rows(self, f, rows: slice):
        """Rows ``rows`` of ``d_u`` of a field whose rows ``rows_read(rows,
        N)`` are ``f``; a v-pass needs no window, as each row is its own."""
        return _axis_derivative(f, self.hu, len(self.u), 0, rows)

    def dz(self, f):
        """Discrete d/dz = (d/du - i d/dv)/2 of a sampled field."""
        return (self.d_u(f) - 1j * self.d_v(f)) / 2.0

    def dzbar(self, f):
        """Discrete d/dzbar = (d/du + i d/dv)/2 of a sampled field."""
        return (self.d_u(f) + 1j * self.d_v(f)) / 2.0


def interior_max(f, band: int = 2, rows: slice | None = None, n: int = 0) -> float:
    """Max norm over the grid interior, excluding the boundary band.

    Vector fields are reduced by the euclidean norm of the components.
    ``f`` may be the rows ``rows`` of an ``n``-row grid: the max is then
    over those of its rows in the grid interior, 0 where none is, so that
    ``np.maximum`` over row blocks gives the whole grid's value, NaN kept.
    """
    f = np.asarray(f)
    if rows is None:
        rows, n = slice(0, len(f)), len(f)
    f = f[max(band - rows.start, 0):max(n - band - rows.start, 0), band:-band]
    if f.ndim > 2:
        f = np.sqrt((np.abs(f) ** 2).sum(axis=tuple(range(2, f.ndim))))
    return float(np.max(np.abs(f), initial=0.0))


@dataclass
class FundamentalData:
    """Per-node (lam, n, H, Omega) of a chart grid in its tagged model.

    ``orientation`` is +1 when n is the chart's own normal
    (``chart_normal``) and -1 when it is the opposite one.  The four fields
    are extracted together on first read and kept.
    """

    grid: ChartGrid
    orientation: int

    @cached_property
    def _fields(self):
        return _extract(self.grid, self.orientation)

    @property
    def lam(self):
        return self._fields[0]

    @property
    def n(self):
        return self._fields[1]

    @property
    def H(self):
        return self._fields[2]

    @property
    def Omega(self):
        return self._fields[3]

    @property
    def model(self) -> str:
        return self.grid.model

    @property
    def e2lam(self):
        return np.exp(2.0 * self.lam)

    def has_umbilic(self, rows=slice(2, -2)) -> bool:
        """Whether an umbilic lies on ``rows``, by default the interior
        ones, two nodes deep off the edge columns."""
        omega, lam = self.Omega[rows, 2:-2], self.lam[rows, 2:-2]
        return bool(np.any(np.abs(omega) <= UMBILIC_REL_TOL * np.exp(2.0 * lam)))

    @cached_property
    def grad_H(self):
        """(H_u, H_v), one stencil pass per axis, kept; ``H_z`` reads it."""
        return self.grid.d_u(self.H), self.grid.d_v(self.H)

    @property
    def H_z(self):
        return (self.grad_H[0] - 1j * self.grad_H[1]) / 2.0  # as ChartGrid.dz

    def tracefree_form(self, rows=slice(None)):
        """Real-notation tracefree second fundamental form (A11, A12), on
        the grid rows ``rows``."""
        e = np.exp(-2.0 * self.lam[rows])
        return self.Omega.real[rows] * e, -self.Omega.imag[rows] * e


def chart_normal(grid: ChartGrid) -> np.ndarray:
    """Unit normal that the chart's own orientation gives, from its 1-jets.

    R^3: p_u x p_v over the conformal factor (|p_u|^2 + |p_v|^2)/2;
    S^3 and H^3: the unit normal n with det[p, p_u, p_v, n] > 0
    (euclidean, resp. Lorentzian cross product).
    """
    jet = grid.jet
    normal = np.empty(jet.du.shape)
    for rows in row_blocks(jet.pos.shape[:-1]):
        du, dv = jet.du[rows], jet.dv[rows]
        if grid.model == "r3":
            per_component(np.multiply, np.cross(du, dv), 2.0 / _trace("r3", du, dv),
                          normal[rows])
            continue
        w = _cross4(jet.pos[rows], du, dv, out=normal[rows])
        if grid.model == "h3":
            w[..., 3] = -w[..., 3]  # Lorentzian cross of R^{3,1}: <w,t>_{3,1} = det
        norm2 = grid._dot(w, w)
        if np.any(norm2 <= 0.0):
            raise ValueError("degenerate jet: normal has no positive length")
        per_component(np.divide, w, np.sqrt(norm2), w)
    return normal


def fundamental_data(grid: ChartGrid) -> FundamentalData:
    """Fundamental data of a grid whose n is its chart normal; (lam, n, H,
    Omega) are extracted from the analytic 2-jets when first read."""
    return FundamentalData(grid, 1)


def _extract(grid: ChartGrid, orientation: int):
    """(lam, n, H, Omega) of a grid whose n is ``orientation`` times its
    chart normal.

    Real arithmetic throughout: e^{2 lam} = (E + G) / 2,
    H = <p_uu + p_vv, n> / (E + G) and
    Omega = <p_uu - p_vv, n> / 2 - i <p_uv, n>, which are 2 <p_zz, n> and
    <p_zzbar, n> / <p_z, p_zbar> of the complex jets.  One pass over row
    blocks after the chart normal's; the opposite orientation negates each
    block's n, H and Omega.
    """
    jet, lead = grid.jet, grid.jet.pos.shape[:-1]
    n = chart_normal(grid)
    lam, h_field, omega = np.empty(lead), np.empty(lead), np.empty(lead, complex)
    for rows in row_blocks(lead):
        du, dv, duu, duv, dvv, n_b = (a[rows] for a in (
            jet.du, jet.dv, jet.duu, jet.duv, jet.dvv, n))
        trace = _trace(grid.model, du, dv)
        np.multiply(0.5, np.log(0.5 * trace), out=lam[rows])
        pair = duu + dvv
        np.divide(grid._dot(pair, n_b), trace, out=h_field[rows])
        np.subtract(duu, dvv, out=pair)
        np.subtract(0.5 * grid._dot(pair, n_b), 1j * grid._dot(duv, n_b),
                    out=omega[rows])
        if orientation < 0:
            for f in (n_b, h_field[rows], omega[rows]):
                np.negative(f, out=f)
    return lam, n, h_field, omega


def gauss_codazzi_residual(data: FundamentalData) -> np.ndarray:
    """Residual field of Omega_zbar e^{-2 lam} - H_z."""
    g = data.grid
    return g.dzbar(data.Omega) * np.exp(-2.0 * data.lam) - data.H_z


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
    fmt="%.17g")``, written one row block at a time: each u and v value is
    formatted once, the field values of a block by the numpy kernel of
    ``confgauss._g17`` into fixed byte slots, and the 0 bytes of the
    block's unused slots are deleted in one pass.
    """
    from ._g17 import g17_slots

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

    def texts(values):
        """%.17g of each value, zero-padded to the longest: (n, width) uint8."""
        t = np.array([("%.17g" % x).encode() for x in values.tolist()])
        return t.view(np.uint8).reshape(values.size, -1)

    u_text, v_text = texts(u), texts(v)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for rows in row_blocks((u.size, v.size, 2 + len(cols))):
            n = rows.stop - rows.start
            slots = g17_slots(np.array([col[rows] for col in cols], dtype=float))
            slots = slots[slots.any(axis=1)]  # the slots some value uses
            # a line is 2 + len(cols) fields, u, v, then the columns, of
            # equal width and a separator, whose last one is the newline
            width = max(len(slots), u_text.shape[1], v_text.shape[1])
            line = np.zeros((n, v.size, 2 + len(cols), width + 1), np.uint8)
            line[..., width] = ord(",")
            line[..., -1, width] = ord("\n")
            line[:, :, 0, :u_text.shape[1]] = u_text[rows, None]
            line[:, :, 1, :v_text.shape[1]] = v_text
            line[:, :, 2:, :len(slots)] = slots.reshape(
                len(slots), len(cols), n, v.size).transpose(2, 3, 1, 0)
            # drop the unused slots
            fh.write(line.tobytes().translate(None, b"\0").decode("ascii"))
