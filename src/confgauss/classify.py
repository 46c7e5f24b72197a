"""Bryant functional, isothermic witness, hyperplane fit and classification.

The quartic coefficient Q = <Y_zz, Y_zz>, its holomorphy residual, the
isothermic witness Im(conj(omega)^2 Q), the sign field
W_{S3}^2 - conj(omega)^2 e^{-4 Lam} Q whose uniform sign selects the space
form, and the least-squares hyperplane fit of Y whose normal type must
agree with that sign.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .congruence import CongruenceGrid, conformal_gauss_map
from .grid import MIN_GRID, ChartGrid, FundamentalData, _extract, interior_max
from . import jets as _jets
from .lorentz import EPSILON, classify_vector, lorentz_product
from .models import representation
from .willmore import harmonicity_residual, willmore_scalar

__all__ = [
    "HyperplaneFit",
    "ClassifierNumbers",
    "ClassificationReport",
    "bryant_q",
    "holomorphy_identity_residual",
    "classification_value",
    "hyperplane_fit",
    "classify",
    "classify_data",
    "s3_fields",
]

KAPPA_NOISE_FLOOR = 1e-7
KAPPA_COVERAGE = 0.99
HOLOMORPHY_TOL = 1e-3
IMAG_REL_TOL = 1e-6
WILLMORE_RESIDUAL_TOL = 1e-4
LINEAR_ETA_TOL = 1e-6
NORMAL_TYPE_TOL = 1e-6
# the 2h restriction (every other node) must itself be a valid grid
MIN_CLASSIFY_GRID = 2 * MIN_GRID - 1
# the sign field carries two stencil passes, whose edge effects reach 4
# nodes deep; the sign statistic, its imaginary part and the 2h estimate
# use that wider band
SIGN_BAND = 4
# rows a classification band reads beyond its own: its deepest field,
# Q_zbar, is three chained stencil passes, each spoiling two rows at a cut
BAND_HALO = 6
# rows a band's slab holds beyond the band's own: its 2h band's halo of
# BAND_HALO coarse rows
SLAB_HALO = 2 * BAND_HALO
# nodes of Y that the hyperplane fit sums at a time: the (N - 4)^2
# interior nodes of an N x N grid of one band (N <= 256) are one sum
FIT_BLOCK_NODES = 1 << 16

_SPACE_BY_KAPPA = {0: "ℝ³", -1: "S³", 1: "ℍ³"}
_TYPE_BY_KAPPA = {0: "lightlike", -1: "timelike", 1: "spacelike"}


class _S3Fields(FundamentalData):
    """S^3 data with the derivative fields of an analysis, each taken once.

    A view (``_view``) holds (lam, H, Omega) and the congruence ``cong`` of
    its Gauss map Y, and no jets and no n.  W_{S3} and Q_zbar are computed
    on first use and kept, Q = <Y_zz, Y_zz> is set by ``_reduce_band``, so
    they live as long as the view does.  The classifier reads them off its
    band sub-views (``sub``) only, which die with their band, so the view
    it is given keeps only its fields and Y.
    """

    # (the chart's 2h grid, the chart row of this view's row 0), set on a
    # band's slab: its restrictions (``sub`` with step 2) are rows of that
    # grid, with the chart's spacings, not spacings of the slab's nodes
    coarse: tuple | None = None

    @cached_property
    def willmore(self) -> np.ndarray:
        return willmore_scalar(self)

    @cached_property
    def q_zbar(self) -> np.ndarray:
        return self.grid.dzbar(self.q)

    def sub(self, rows=slice(None), step: int = 1) -> "_S3Fields":
        """Nodes ``[rows][::step, ::step]`` of this view: its (lam, n, H,
        Omega) and Y there, no copy, no check, on ``ChartGrid.subgrid``, or
        for a restriction of a view that knows its ``coarse`` grid, on the
        rows of that grid.  All four and Y are pointwise, so they are the
        sub-grid's own; its derivative fields are taken anew, its Q by
        ``_reduce_band``."""
        if step == 1 or self.coarse is None:
            grid = self.grid.subgrid(rows, step)
        else:
            coarse, row = self.coarse
            lo, hi, _ = rows.indices(self.grid.shape[0])
            first = (row + lo) // step
            grid = coarse.subgrid(slice(first, first + len(range(lo, hi, step))))
        return _view(grid, self.orientation,
                     [f if f is None else f[rows][::step, ::step] for f in self._fields],
                     self.cong.Y[rows][::step, ::step])


def _view(grid: ChartGrid, orientation: int, fields, y, coarse=None) -> _S3Fields:
    """The S^3 view on ``grid`` whose (lam, n, H, Omega) are ``fields``,
    whose Gauss map is ``y`` and whose ``coarse`` grid is given."""
    view = _S3Fields(grid, orientation)
    view._fields = tuple(fields)
    view.cong = CongruenceGrid(grid, y)
    view.coarse = coarse
    return view


@dataclass
class _SampledChart(FundamentalData):
    """A chart known by its axes (``grid`` holds no jets) and ``sample``,
    which gives the fundamental data of any row slice of it, in any model,
    with its orientation: ``classify``'s reading of the sampler."""

    sample: Callable = None


def s3_fields(data: FundamentalData) -> _S3Fields:
    """The S^3 view of a chart in any model: its lam, H, Omega and Gauss
    map Y (72 B/node) and no jets, streamed (``_stream``) as the one slab
    (``_slabs``) of a band of all its rows; a view is kept as is."""
    if isinstance(data, _S3Fields):
        return data
    ((_, view),) = _slabs(data, [slice(0, data.grid.shape[0])], None)
    return view


def _pool_size() -> int:
    """The cores this process may run on: its affinity mask's, or all of
    them where the platform has no affinity mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_blocks(task, lead: tuple) -> list:
    """``task(rows)`` for the row blocks of node arrays of leading shape
    ``lead``, their results in block order; on ``_pool_size()`` cores W.

    A grid of one ``jets.row_blocks`` block, or one core, is the serial
    loop, and no thread starts.  Else the blocks have BLOCK_NODES // W
    nodes, and the main thread and W - 1 pool threads each take the next
    block in order, so the nodes in flight stay at BLOCK_NODES.  Tasks
    write disjoint rows of their outputs, so every number is the serial
    loop's.  Each thread runs its tasks in the caller's numpy error state,
    which a new thread does not inherit.  A block that raises stops the
    handing out; once the blocks in flight are done, the error of the
    earliest block that raised is raised, as the serial loop raises it.
    """
    workers = _pool_size()
    blocks = list(_jets.row_blocks(lead))
    if workers == 1 or len(blocks) == 1:
        return [task(rows) for rows in blocks]
    # imported only where a pool runs: with the logging module it imports,
    # it adds 0.7 MB to the RSS of every process that imports it
    from concurrent.futures import ThreadPoolExecutor

    blocks = list(_jets.row_blocks(lead, workers))
    results, errors = [None] * len(blocks), {}
    queue, lock, state = iter(enumerate(blocks)), threading.Lock(), np.geterr()

    def work():
        with np.errstate(**state):
            while True:
                with lock:
                    item = None if errors else next(queue, None)
                if item is None:
                    return
                k, rows = item
                try:
                    results[k] = task(rows)
                except Exception as exc:
                    with lock:
                        errors[k] = exc

    helpers = min(workers, len(blocks)) - 1
    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(work) for _ in range(helpers)]
        try:
            work()
        except BaseException:  # an interrupt: no further block starts
            with lock:
                for _ in queue:
                    pass
            raise
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]
    return results


def _stream(block, rows: slice, fields, y, at: int) -> int:
    """Write the S^3 (lam, H, Omega) and Y of the chart rows ``rows`` into
    ``fields`` and ``y`` from their row ``at`` on; the orientation there.

    Each row block (``_on_blocks``) is ``block(rows)``, fundamental data in
    any model, pushed to S^3 (``representation``, which checks the pushed
    jets) and read off; its jets and n die with it.  Each step is
    pointwise, so the fields are those of the whole pushed chart to the
    bit, whatever the blocks.
    """
    lam, h_field, omega = fields

    def stream(part):
        src = slice(rows.start + part.start, rows.start + part.stop)
        dst = slice(at + part.start, at + part.stop)
        data = representation(block(src), "s3")
        # set, not read: the first read of a cached_property takes a lock
        # that all instances share (Python < 3.12)
        data._fields = _extract(data.grid, data.orientation)
        lam[dst], _, h_field[dst], omega[dst] = data._fields
        y[dst] = conformal_gauss_map(data).Y
        return data.orientation

    return _on_blocks(stream, (rows.stop - rows.start, y.shape[1]))[0]


def _slabs(data: FundamentalData, bands: list, coarse: ChartGrid | None):
    """For each band ``own`` of ``bands``, (lo, slab): an S^3 view whose row
    0 is grid row ``lo`` and which holds rows ``own`` and SLAB_HALO rows on
    each side, the rows its fine and 2h bands read; its restrictions lie
    on ``coarse``, the 2h grid of the chart, if given.

    A caller's view (``s3_fields``) is every band's slab.  Any other chart
    is streamed (``_stream``) band by band into one slab buffer of
    72 B/node, from ``data.sample`` if it is a ``_SampledChart``, else from
    row slices of its grid; the rows that a band's slab shares with the
    last one are moved, not sampled again.
    """
    g = data.grid
    if isinstance(data, _S3Fields):
        whole = _view(g, data.orientation, data._fields, data.cong.Y, (coarse, 0))
        for _ in bands:
            yield 0, whole
        return
    block = data.sample if isinstance(data, _SampledChart) else (
        lambda rows: FundamentalData(g.subgrid(rows), data.orientation))
    axes = g.with_jet(None, "s3")
    n, m = g.shape
    spans = [(max(own.start - SLAB_HALO, 0), min(own.stop + SLAB_HALO, n)) for own in bands]
    height = max(hi - lo for lo, hi in spans)
    fields = np.empty((height, m)), np.empty((height, m)), np.empty((height, m), complex)
    y = np.empty((height, m, 5))
    last, orientation = (0, 0), None
    for lo, hi in spans:
        held = last[1] - lo  # rows lo .. last[1] are in the buffer already
        for f in (*fields, y):
            f[:held] = f[lo - last[0]:last[1] - last[0]]
        sampled = _stream(block, slice(lo + held, hi), fields, y, held)
        orientation = sampled if orientation is None else orientation
        lam, h_field, omega = (f[:hi - lo] for f in fields)
        yield lo, _view(axes.subgrid(slice(lo, hi)), orientation,
                        (lam, None, h_field, omega), y[:hi - lo],
                        None if coarse is None else (coarse, lo))
        last = lo, hi


def _reduce_band(band: _S3Fields, mine: slice | None = None):
    """Q of a band sub-view (``_S3Fields.sub``), kept as its ``q``, and its
    harmonicity residual on its rows ``mine`` if given, returned.

    Y's derivatives are taken one row block at a time
    (``CongruenceGrid.row_block`` on ``_on_blocks``) and go straight into
    both, so none is held whole-band and the band's ``cong`` keeps none of
    them.
    """
    cong, q = band.cong, np.empty(band.grid.shape, complex)
    residual = None if mine is None else np.empty((mine.stop - mine.start, band.grid.shape[1]))

    def reduce(rows):
        block = cong.row_block(rows)
        q[rows] = lorentz_product(block.Yzz, block.Yzz)
        if mine is not None:
            lo, hi = max(rows.start, mine.start), min(rows.stop, mine.stop)
            if lo < hi:
                residual[lo - mine.start:hi - mine.start] = \
                    harmonicity_residual(block)[lo - rows.start:hi - rows.start]

    _on_blocks(reduce, band.grid.shape)
    band.q = q
    return residual


def bryant_q(data: FundamentalData) -> np.ndarray:
    """Closed form of Q on R^3 or S^3 data, a reference for the direct
    <Y_zz, Y_zz> that the classifier takes band by band.

    Omega^2 e^{-2lam} (Omega_z/Omega)_zbar + Omega^2 (H^2 + c)/4, with c
    the ambient curvature: 0 on R^3, 1 on S^3.  It divides by Omega, so an
    umbilic chart is a ValueError.
    """
    curvature = {"r3": 0.0, "s3": 1.0}.get(data.model)
    if curvature is None:
        raise ValueError(f"bryant_q has no closed form on {data.model} data;"
                         " it takes R^3 or S^3 data")
    if data.has_umbilic():
        raise ValueError("umbilic chart: the closed form of Q divides by"
                         " Omega, which vanishes at its umbilics")
    g = data.grid
    ratio = g.dz(data.Omega) / data.Omega
    return (data.Omega ** 2 * np.exp(-2.0 * data.lam) * g.dzbar(ratio)
            + data.Omega ** 2 * ((data.H ** 2 + curvature) / 4.0))


def holomorphy_identity_residual(data: FundamentalData, q: np.ndarray) -> float:
    """Residual of Q_zbar = e^{2Lam} omega^2 (W_{S3} / (omega e^{-2Lam}))_z
    on the S^3 data of a chart whose direct Q = <Y_zz, Y_zz> is ``q``."""
    data = representation(data, "s3")
    e2lam = data.e2lam
    rhs = e2lam * data.Omega ** 2 * data.grid.dz(willmore_scalar(data) / (data.Omega / e2lam))
    return interior_max(data.grid.dzbar(q) - rhs)


def estimate_classification_noise(data: FundamentalData) -> dict:
    """The 2h noise estimates of ``classification_value(data)``."""
    return classification_value(data).noise


def _sign_terms(view: _S3Fields, rows: slice):
    """W_{S3}, conj(omega)^2 e^{-4Lam} Q and e^{2L} = |omega|^2 e^{-2Lam}
    on ``rows`` of a view."""
    omega, lam = view.Omega[rows], view.lam[rows]
    term = np.conj(omega) ** 2 * np.exp(-4.0 * lam) * view.q[rows]
    return view.willmore[rows], term, np.abs(omega) ** 2 * np.exp(-2.0 * lam)


class ClassifierNumbers(NamedTuple):
    """What the classifier reads off the S^3 view of a chart."""

    q_holomorphy: float  # max |Q_zbar| over the band-2 interior
    holomorphy: float  # the same over the band-4 interior, the gated one
    isothermic_witness: float  # normalized max |Im(conj(omega)^2 Q)|
    willmore_residual: float  # max harmonicity residual
    noise: dict  # 2h estimates: "field", "field_imag", "holomorphy"
    scale: float  # of the sign field
    imag_rel: float  # its max imaginary part over its scale
    floor: float  # its noise floor
    kappa: object  # its sign: -1, 0, +1 or "indeterminate"


@dataclass
class HyperplaneFit:
    """Least-squares hyperplane <Y, v> = eta with |v|_euclid = 1."""

    v: np.ndarray
    eta: float
    rms: float
    vtype: str
    linear: bool


class _PlaneMoments:
    """What the hyperplane fit reads off samples of Y (..., 5), added band
    by band (``add``) and summed FIT_BLOCK_NODES nodes at a time: their
    count, the 6x6 sum of z z^T over z = (Y, -1), and the sums of r^2 and
    r z over the residuals r = <z, w0> about the plane w0 = (eps v0, eta0)
    of the first blocks' own moments.

    The squared residuals at any plane w then follow from the sums
    (``squares``), in terms of w - w0, which is small where every band
    lies on one plane: w^T (sum z z^T) w alone loses an rms of 2e-14 to
    cancellation in the sum's rounding, 1e-8 and worse.  The samples of
    blocks whose moments fix no plane yet (a thin band of a chart is nearly
    a curve) are held until the merged moments do; for one block w = w0 to
    the bit, so the sums are exactly the direct ones.
    """

    def __init__(self):
        self.count, self.zz, self.w0 = 0, None, None
        self.r2, self.rz, self.held = 0.0, np.zeros(6), []

    def add(self, samples: np.ndarray) -> None:
        rows = max(1, FIT_BLOCK_NODES // max(1, math.prod(samples.shape[1:-1])))
        for first in range(0, len(samples), rows):
            self._add_block(samples[first:first + rows])

    def _add_block(self, samples: np.ndarray) -> None:
        # z = (Y, -1) is the only copy of the samples
        z = np.empty(samples.shape[:-1] + (6,))
        z[..., :5] = samples
        z[..., 5] = -1.0
        z = z.reshape(-1, 6)
        if not len(z):
            return
        zz = z.T @ z
        self.count += len(z)
        self.zz = zz if self.zz is None else self.zz + zz
        if self.w0 is None:
            self.held.append(z)
            try:
                self.w0 = _plane_vector(*_plane(self.zz, self.count))
            except ValueError:  # no plane yet: the next band may fix one
                return
            held, self.held = self.held, []
        else:
            held = [z]
        for z in held:
            r = z @ self.w0
            self.r2 += np.sum(r ** 2)
            self.rz += r @ z

    def squares(self, w: np.ndarray):
        """The sum of <z, w>^2 over the samples."""
        sign = 1.0 if w @ self.w0 >= 0.0 else -1.0
        d = w - sign * self.w0
        return self.r2 + 2.0 * sign * (d @ self.rz) + d @ self.zz @ d


def _plane(zz: np.ndarray, count: int):
    """(v, eta) of the smallest eigenvector of the 6x6 second moment of
    (eps Y, -1), from the sum ``zz`` of z z^T over ``count`` samples
    z = (Y, -1); v has unit euclidean norm and a deterministic sign."""
    # the sign of eps goes onto the moments, which it flips exactly
    flip = np.append(np.diag(EPSILON), 1.0)
    moment = zz * np.outer(flip, flip) / count
    evals, evecs = np.linalg.eigh(moment)
    if evals[1] <= 1e-10 * max(evals[-1], 1e-30):
        raise ValueError("degenerate congruence")
    qvec = evecs[:, 0]
    v, eta = qvec[:5], qvec[5]
    norm = np.linalg.norm(v)
    if norm < 1e-8:
        raise ValueError("degenerate congruence")
    v, eta = v / norm, float(eta / norm)
    # deterministic sign: the first component whose magnitude is within
    # NORMAL_TYPE_TOL (relative) of the largest is positive; a lightlike v
    # often has |v4| = |v5| up to round-off, where argmax picks by noise
    mag = np.abs(v).tolist()
    cut = (1.0 - NORMAL_TYPE_TOL) * max(mag)
    lead = next(k for k, m in enumerate(mag) if m >= cut)
    if v[lead] < 0:
        v, eta = -v, -eta
    return v, eta


def _plane_vector(v: np.ndarray, eta: float) -> np.ndarray:
    """w with <z, w> = <Y, v> - eta for z = (Y, -1)."""
    return np.append(EPSILON @ v, eta)


def hyperplane_fit(samples) -> HyperplaneFit:
    """Fit the best affine hyperplane through congruence samples (..., 5),
    or through the samples whose moments a ``_PlaneMoments`` has summed.

    Smallest eigenvector of the 6x6 second-moment matrix of the stacked
    vectors (eps Y, -1); v is reported with unit euclidean norm.
    """
    moments = samples
    if not isinstance(moments, _PlaneMoments):
        moments = _PlaneMoments()
        moments.add(np.asarray(samples, dtype=float))
    if moments.count < 100:
        raise ValueError(f"hyperplane fit needs at least 100 interior samples,"
                         f" got {moments.count}")
    v, eta = _plane(moments.zz, moments.count)
    rms = float(np.sqrt(moments.squares(_plane_vector(v, eta)) / moments.count))
    return HyperplaneFit(v, eta, rms, classify_vector(v, NORMAL_TYPE_TOL),
                         abs(eta) <= LINEAR_ETA_TOL)


@dataclass
class ClassificationReport:
    """Full classification outcome for one surface patch."""

    surface: str
    params: dict
    grid_n: int
    kappa: object  # the sign field's, or "indeterminate" when not CMC
    hyperplane: HyperplaneFit
    verdict: str
    numbers: ClassifierNumbers

    def to_dict(self) -> dict:
        return {
            "surface": self.surface,
            "params": self.params,
            "grid": self.grid_n,
            "willmore_residual": self.numbers.willmore_residual,
            "q_holomorphy": self.numbers.q_holomorphy,
            "isothermic_witness": self.numbers.isothermic_witness,
            "kappa": self.kappa if isinstance(self.kappa, str) else int(self.kappa),
            "hyperplane": {
                "v": [float(x) for x in self.hyperplane.v],
                "eta": self.hyperplane.eta,
                "residual": self.hyperplane.rms,
                "type": self.hyperplane.vtype,
                "linear": self.hyperplane.linear,
            },
            "verdict": self.verdict,
        }


def classify_data(data: FundamentalData, surface: str = "custom",
                  params: dict | None = None) -> ClassificationReport:
    """Classification pipeline on any model's data: one
    ``classification_value`` of its S^3 view, gated, and the hyperplane
    fit of the moments of Y that its bands add up.

    A caller's view (``s3_fields``) is read as it is and keeps only its
    fields and Y, since every derivative field is taken on a band and dies
    with it; any other chart is streamed band by band, as ``classify``
    streams the sampler, and no whole-grid lam, H, Omega or Y exists.
    """
    if min(data.grid.shape) < MIN_CLASSIFY_GRID:
        raise ValueError(
            f"classification needs at least {MIN_CLASSIFY_GRID} nodes per side,"
            " so that its 2h restriction is still a grid"
        )
    moments = _PlaneMoments()
    numbers = classification_value(data, moments)
    plane = hyperplane_fit(moments)

    # gate on the band-4 residual to stay commensurate with the noise
    # estimate; the reported residual keeps the band-2 convention
    noise, kappa = numbers.noise, numbers.kappa
    holo_gate = max(HOLOMORPHY_TOL, 10.0 * noise["holomorphy"])
    imag_gate = max(IMAG_REL_TOL, 10.0 * noise["field_imag"] / numbers.scale)
    if numbers.holomorphy > holo_gate or numbers.imag_rel > imag_gate:
        verdict = "not conformally CMC"
        kappa = "indeterminate"
    elif kappa == "indeterminate":
        verdict = "indeterminate"
    elif plane.vtype != _TYPE_BY_KAPPA[kappa]:
        verdict = "inconsistent"
    elif numbers.willmore_residual <= WILLMORE_RESIDUAL_TOL:
        verdict = f"conformally minimal in {_SPACE_BY_KAPPA[kappa]}"
    else:
        verdict = f"conformally CMC in {_SPACE_BY_KAPPA[kappa]}"
    return ClassificationReport(surface, params or {}, data.grid.shape[0],
                                kappa, plane, verdict, numbers)


def classify(spec, n: int = 128, domain=None) -> ClassificationReport:
    """Sample a catalog surface and run the full classification pipeline.

    One streamed pass from the sampler to the verdict: each band's rows
    and halo (``_slabs``) are sampled, checked, pushed to S^3, checked there
    and read off one row block (``_on_blocks``) at a time, then reduced
    and added to the fit.  No whole-grid jets, lam, H, Omega or Y exist;
    what stays whole is the real sign field (8 B/node).
    """
    from .grid import fundamental_data
    from .zoo import sample_rows

    axes, block = sample_rows(spec, n, domain=domain)
    chart = _SampledChart(axes, 1, lambda rows: fundamental_data(block(rows)))
    return classify_data(chart, surface=spec.name, params=spec.params)


def classification_value(data: FundamentalData,
                         moments: _PlaneMoments | None = None) -> ClassifierNumbers:
    """The classifier's numbers of the S^3 view of a chart in any model,
    reduced over its row bands ``jets.row_bands(N)`` and the 2h bands on
    their even rows.  kappa is the sign of the real field
    W_{S3}^2 - conj(omega)^2 e^{-4Lam} Q, against a floor of 1e-7 of its
    scale or ten times its 2h noise estimate if larger; a sign needs >= 99%
    coverage of interior nodes.  Each band's interior Y is added to
    ``moments`` if given, for the hyperplane fit.

    Each band's slab (``_slabs``) holds its rows and SLAB_HALO rows on each
    side: a caller's view is read as it is, any other chart is streamed
    into one slab buffer, band by band.  The band is a sub-view of the slab
    (``_S3Fields.sub``) of its own rows and a BAND_HALO-row halo, which
    takes Y's derivatives one row block at a time (``_reduce_band``), and
    its derivative fields die with it; so is its 2h band, the slab's even
    nodes on the 2h grid.  What outlives a band is the real sign field on
    its own rows, kept whole for kappa's counts, each maximum over them,
    merged by the NaN-keeping ``np.maximum``, and its moments of Y; its 2h
    band compares the fine values at its even nodes before the next band
    starts.  Maxima are exact, so no number depends on the band count.

    Errors keep one order whatever the bands: a defective row block as it
    is streamed, then an umbilic anywhere in the interior, which skips the
    reduction of every later band, then a maximum that is not finite.
    """
    n, m = data.grid.shape
    axes = data.grid.with_jet(None, "s3")
    coarse = axes.subgrid(step=2)
    n_coarse = coarse.shape[0]
    bands = _jets.row_bands(n)
    fld = np.empty((n, m))
    maxima = {}
    umbilic = False

    def peak(key, f, first, size, width):
        """Merge the max norm of ``f``, whose row 0 is grid row ``first``
        of ``size``, over the grid interior ``width`` nodes deep."""
        part = f[max(width - first, 0):max(size - width - first, 0),
                 width:f.shape[1] - width]
        maxima[key] = np.maximum(maxima.get(key, 0.0), np.max(np.abs(part), initial=0.0))

    def halo(own, size):
        """The rows ``own`` and their halo on a grid of ``size`` rows."""
        return slice(max(own.start - BAND_HALO, 0), min(own.stop + BAND_HALO, size))

    def fine_band(band, own, origin):
        """Reduce the band of rows ``own``, whose row 0 is grid row
        ``origin``; return its sign field and Q_zbar at its even nodes.  Q,
        Q_zbar and W_{S3} are whole-band fields, the pointwise rest is
        taken one row block at a time."""
        mine = slice(own.start - origin, own.stop - origin)
        peak("willmore", _reduce_band(band, mine), own.start, n, 2)
        # W_{S3} before Q_zbar; nothing reads grad H after it
        band.willmore
        del band.grad_H
        q_zbar = band.q_zbar[mine]
        peak("holo", q_zbar, own.start, n, 2)
        peak("holo_inner", q_zbar, own.start, n, SIGN_BAND)
        # the even rows of ``own`` are rows (own.start + 1) // 2 on of the 2h grid
        fine_field = np.empty(((own.stop + 1) // 2 - (own.start + 1) // 2, (m + 1) // 2),
                              complex)
        for rows in _jets.row_blocks((own.stop - own.start, m)):
            at = slice(mine.start + rows.start, mine.start + rows.stop)
            first, stop = own.start + rows.start, own.start + rows.stop
            omega = band.Omega[at]
            witness = np.conj(omega) ** 2 * band.q[at]
            peak("witness", witness, first, n, 2)
            peak("witness_imag", witness.imag, first, n, 2)
            peak("omega4", np.abs(omega) ** 4, first, n, 2)
            w, term, e2l_cong = _sign_terms(band, at)
            w2 = w ** 2
            peak("w2", w2, first, n, 2)
            peak("term", term, first, n, 2)
            peak("reference", (e2l_cong / 2.0) ** 2, first, n, 2)
            fieldc = w2 - term
            peak("imag", fieldc.imag, first, n, SIGN_BAND)
            fld[first:stop] = fieldc.real
            even = fieldc[first % 2::2, ::2]
            k = (first + 1) // 2 - (own.start + 1) // 2
            fine_field[k:k + len(even)] = even
        return fine_field, q_zbar[own.start % 2::2, ::2].copy()

    def band_2h(band, own, origin, fine_field, fine_q_zbar):
        """Reduce the 2h band of rows ``own``, whose row 0 is 2h grid row
        ``origin``, against the fine values."""
        mine = slice(own.start - origin, own.stop - origin)
        _reduce_band(band)
        w, term, _ = _sign_terms(band, mine)
        diff = w ** 2 - term - fine_field
        peak("noise_field", diff.real, own.start, n_coarse, SIGN_BAND)
        peak("noise_imag", diff.imag, own.start, n_coarse, SIGN_BAND)
        peak("noise_holo", band.q_zbar[mine] - fine_q_zbar, own.start, n_coarse,
             SIGN_BAND)

    for own, (lo, slab) in zip(bands, _slabs(data, bands, coarse)):
        inner = slice(max(own.start, 2) - lo, min(own.stop, n - 2) - lo)
        # umbilicity is conformally invariant: one flag in every model's gauge
        umbilic = umbilic or slab.has_umbilic(inner)
        if umbilic:  # the later bands are streamed for their jet checks only
            continue
        fine = halo(own, n)
        own_2h = slice((own.start + 1) // 2, (own.stop + 1) // 2)
        coarse_rows = halo(own_2h, n_coarse)
        # an overflow shows as a maximum that is not finite, named below
        with np.errstate(over="ignore", invalid="ignore"):
            if moments is not None:
                moments.add(slab.cong.Y[inner, 2:-2])
            even_values = fine_band(slab.sub(slice(fine.start - lo, fine.stop - lo)),
                                    own, fine.start)
            # the 2h band's rows are the slab's even rows from 2 * coarse_rows.start
            evens = slice(2 * coarse_rows.start - lo, 2 * coarse_rows.stop - 1 - lo)
            band_2h(slab.sub(evens, 2), own_2h, coarse_rows.start, *even_values)
    if umbilic:
        raise ValueError("umbilic surface: conformal Gauss map degenerate on the chart")

    top = {key: float(value) for key, value in maxima.items()}
    if not np.all(np.isfinite(list(top.values()))):
        raise ValueError(f"stencil derivatives overflow: grid spacing h_u = {axes.hu:.3g},"
                         f" h_v = {axes.hv:.3g} is too fine for the chart")
    # for 4th-order stencils the fine-grid error is about the fine/coarse
    # difference divided by 15
    noise = {"field": top["noise_field"] / 15.0, "field_imag": top["noise_imag"] / 15.0,
             "holomorphy": top["noise_holo"] / 15.0}
    # the sign field's scale: the larger of its two competing terms and the
    # stencil-free reference (e^{2L}/2)^2
    scale = max(top["w2"], top["term"], top["reference"])
    floor = max(KAPPA_NOISE_FLOOR * scale, 10.0 * noise["field"])
    inner = fld[SIGN_BAND:-SIGN_BAND, SIGN_BAND:-SIGN_BAND]
    if np.mean(np.abs(inner) <= floor) >= KAPPA_COVERAGE and np.max(np.abs(inner)) <= 10.0 * floor:
        kappa = 0
    elif np.all(inner >= -floor) and np.mean(inner > floor) >= KAPPA_COVERAGE:
        kappa = 1
    elif np.all(inner <= floor) and np.mean(inner < -floor) >= KAPPA_COVERAGE:
        kappa = -1
    else:
        kappa = "indeterminate"
    # Q is degenerate-real, its witness zero, when |conj(omega)^2 Q| never
    # rises above a small fraction of the reference |omega|^4 / 4 (the
    # product's value when Q is the pure (h^2+1)/4 term at h = 0)
    witness = (0.0 if top["witness"] <= 1e-6 * top["omega4"] / 4.0
               else top["witness_imag"] / top["witness"])
    return ClassifierNumbers(
        top["holo"], top["holo_inner"], witness, top["willmore"], noise, scale,
        top["imag"] / scale if scale > 0 else 0.0, floor, kappa)
