"""Pointwise kernels run over row blocks and the classifier over row bands:
block and band boundaries change nothing."""

import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from confgauss import classify as CL
from confgauss import grid as G
from confgauss import jets as J
from confgauss import models, zoo
from confgauss.cli import to_json
from confgauss.congruence import conformal_gauss_map, transform_immersion
from confgauss.lorentz import lorentz_product, parse_word
from confgauss.zoo import CATALOG, make_surface, sample
from conftest import FIT_MOVE_TOL, assert_same_but_fit_digits, fit_rounding

N = 65
FEW_ROWS = 3 * N  # nodes per block: three rows of a 65-grid

# one chart per model pushed into another, and a word with an inversion
# between two similarity runs
CASES = [
    ("torus_revolution", {}, "s3"),
    ("torus_revolution", {"R": 0.3, "r": 0.1}, "h3"),
    ("clifford_torus", {}, "r3"),
    ("hyperbolic_cylinder", {}, "s3"),
    ("hyperbolic_cylinder", {}, "r3"),
    ("cylinder", {}, "dil:0.3 rot:z,1.2 tra:4,0,0 inv tra:0.5,0,0 dil:-0.2"),
]


def _run(name, params, target):
    """Pushed jets, fundamental data and report of one case, all fresh."""
    data = G.fundamental_data(sample(make_surface(name, **params), N))
    if target in ("r3", "s3", "h3"):
        moved = models.representation(data, target)
    else:
        moved = transform_immersion(data, parse_word(target))
    arrays = list(vars(moved.grid.jet).values())
    arrays += [moved.lam, moved.n, moved.H, moved.Omega]
    report = CL.classify_data(moved, name)
    return arrays, report.to_dict(), report.numbers


@pytest.mark.parametrize("name, params, target", CASES)
def test_few_row_blocks_equal_one_block(monkeypatch, name, params, target):
    assert len(list(J.row_blocks((N, N)))) == 1
    whole = _run(name, params, target)
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_ROWS)
    assert len(list(J.row_blocks((N, N)))) == 22
    blocked = _run(name, params, target)
    for a, b in zip(whole[0], blocked[0]):
        assert np.array_equal(a, b)
    assert whole[1:] == blocked[1:]


def test_non_finite_is_named_before_an_earlier_non_conformal_block(monkeypatch):
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_ROWS)
    g = sample(make_surface("cylinder"), N)
    jet = g.jet
    jet.du[1, 4] *= 2.0  # not conformal, first block
    with pytest.raises(ValueError, match="not conformal"):
        G.ChartGrid("r3", g.u, g.v, jet)
    jet.dvv[60, 7, 2] = np.nan  # last block
    with pytest.raises(ValueError, match="jet has non-finite values in dvv"):
        G.ChartGrid("r3", g.u, g.v, jet)


def test_immersion_is_named_before_an_earlier_non_conformal_block(monkeypatch):
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_ROWS)
    g = sample(make_surface("cylinder"), N)
    jet = g.jet
    jet.du[1, 4] *= 2.0  # not conformal, first block
    jet.du[60, 7] = jet.dv[60, 7] = 0.0  # degenerate, last block
    with pytest.raises(ValueError, match="degenerate jet: immersion condition fails"):
        G.ChartGrid("r3", g.u, g.v, jet)


def test_push_peak_memory_is_its_outputs_and_one_block():
    """tracemalloc peak of a several-block push above its input: the six
    output arrays plus at most six 4-vectors of doubles per block node."""
    n = 257
    jet = sample(make_surface("torus_revolution"), n).jet
    assert len(list(J.row_blocks((n, n)))) == 5
    tracemalloc.start()
    try:
        pushed = J.push_stereo_inv(jet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in vars(pushed).values())
    assert peak <= outputs + 6 * 4 * 8 * J.BLOCK_NODES


# every catalog surface with a verdict, an H^3 chart and a moved chart
BAND_CASES = [(name, {}, None) for name in CATALOG
              if not make_surface(name).expected["umbilic"]] + [
    ("torus_revolution", {"R": 0.3, "r": 0.1}, "h3"),
    ("hyperbolic_cylinder", {}, "tra:4,0,0 inv dil:0.3"),
]
FEW_BAND_ROWS = 20


@pytest.mark.parametrize("n", [65, 129])
@pytest.mark.parametrize("name, params, target", BAND_CASES)
def test_few_row_bands_equal_one_band(monkeypatch, n, name, params, target):
    data = G.fundamental_data(sample(make_surface(name, **params), n))
    if target == "h3":
        data = models.representation(data, target)
    elif target:
        data = transform_immersion(data, parse_word(target))
    assert len(J.row_bands(n)) == 1
    whole = CL.classify_data(data, name)
    monkeypatch.setattr(J, "BAND_ROWS", FEW_BAND_ROWS)
    assert len(J.row_bands(n)) >= 3
    # a chart, and a view that its caller holds (analyze --out, transform):
    # the same bytes, and the one-band report but for the fit's last
    # digits, which twenty-row bands move by up to 1.7e-10 on the moved
    # chart, whose |Y| reaches 17
    view = CL.s3_fields(data)
    banded = CL.classify_data(data, name)
    assert to_json(CL.classify_data(view, name).to_dict()) == to_json(banded.to_dict())
    y = view.cong.Y
    assert_same_but_fit_digits(banded, whole, y, max(FIT_MOVE_TOL, fit_rounding(y)))


def test_row_bands_split_evenly():
    assert J.row_bands(256) == [slice(0, 256)]
    assert J.row_bands(257) == [slice(0, 128), slice(128, 257)]
    assert [b.stop - b.start for b in J.row_bands(1024)] == [256] * 4


@pytest.mark.parametrize("lead", [(129, 512), (257, 257), (300, 300, 5), (65, 3), (1, 9)])
def test_row_blocks_stop_at_the_last_row(lead):
    blocks = list(J.row_blocks(lead))
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
    assert blocks[0].start == 0 and blocks[-1].stop == lead[0]
    assert all(b.stop - b.start == len(range(lead[0])[b]) for b in blocks)
    assert list(J.row_blocks(())) == [...]


@pytest.mark.parametrize("n", [300, 513])
def test_few_row_blocks_of_y_derivatives_equal_the_default(monkeypatch, n):
    """Each band sub-view takes Y's derivatives one row block at a time: at
    1024 nodes a block is 3 rows at N = 300 and 1 row at N = 513, so that
    every block's window reaches past its neighbours'."""
    spec = make_surface("torus_revolution")
    default = CL.classify(spec, n).to_dict()
    monkeypatch.setattr(J, "BLOCK_NODES", 1024)
    assert CL.classify(spec, n).to_dict() == default


def _record_sub_views(monkeypatch):
    views = []

    def sub(self, rows=slice(None), step=1, _orig=CL._S3Fields.sub):
        views.append(_orig(self, rows, step))
        return views[-1]

    monkeypatch.setattr(CL._S3Fields, "sub", sub)
    return views


@pytest.mark.parametrize("band_rows", [None, FEW_BAND_ROWS])
def test_band_sub_views_keep_no_y_derivatives(monkeypatch, band_rows):
    """Every band is a sub-view, a grid's only band too, whose Y
    derivatives die with each row block; the caller's view keeps none."""
    if band_rows:
        monkeypatch.setattr(J, "BAND_ROWS", band_rows)
    view = CL.s3_fields(G.fundamental_data(sample(make_surface("torus_revolution"), N)))
    views = _record_sub_views(monkeypatch)
    CL.classify_data(view, "torus_revolution")
    # each fine band and each 2h band, and no whole-grid 2h view
    assert len(views) == 2 * len(J.row_bands(N))
    assert all("q" in vars(band) for band in views)
    for cong in [band.cong for band in views] + [view.cong]:
        assert cong._grad is None and cong._zz is None


def test_classify_frees_the_sampled_chart_before_the_first_band(monkeypatch):
    """No whole-grid jets: the chart is sampled in row blocks, each row
    once, and each block and its S^3 image are freed before its band's
    reduction starts; on two threads, each block has half the nodes."""
    refs, heights, alive = [], [], []

    def record(jet):
        refs.append(weakref.ref(jet.du))
        heights.append(jet.du.shape[0])

    def recorded(*args, _orig=zoo.sample_rows, **kwargs):
        axes, sample_block = _orig(*args, **kwargs)

        def each(rows):
            grid = sample_block(rows)
            record(grid.jet)
            return grid

        return axes, each

    def pushed(data, target, _orig=CL.representation):
        image = _orig(data, target)
        record(image.grid.jet)
        return image

    def sub(self, rows=slice(None), step=1, _orig=CL._S3Fields.sub):
        alive.append([ref() is not None for ref in refs])
        return _orig(self, rows, step)

    monkeypatch.setattr(zoo, "sample_rows", recorded)
    monkeypatch.setattr(CL, "representation", pushed)
    monkeypatch.setattr(CL._S3Fields, "sub", sub)
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_ROWS)
    monkeypatch.setattr(J, "BAND_ROWS", FEW_BAND_ROWS)
    for workers, height in ((1, 3), (2, 1)):
        monkeypatch.setattr(CL, "_pool_size", lambda: workers)
        for seen in (refs, heights, alive):
            seen.clear()
        CL.classify(make_surface("torus_revolution"), n=N)
        # the rows that a band's slab shares with the last one are moved
        assert sum(heights) == 2 * N and max(heights) == height and alive
        assert not any(any(live) for live in alive)


# every catalog surface with a verdict
STREAM_CASES = [name for name in CATALOG if not make_surface(name).expected["umbilic"]]


@pytest.mark.parametrize("n, block_nodes", [(257, None), (300, None), (N, FEW_ROWS)])
@pytest.mark.parametrize("name", STREAM_CASES)
def test_streamed_classify_equals_the_whole_grid_view(monkeypatch, name, n, block_nodes):
    """Sampled, pushed and read one row block at a time, band by band,
    byte for byte as the whole sampled chart's view, fit included; 257
    and 300 rows are two bands, 257 rows five row blocks, the last of 5
    rows, and 3-row blocks are shorter than MIN_GRID.
    ``revolution_profile`` solves its row coordinate once over all rows,
    ``inverted_catenoid`` checks its safety band in each block."""
    if block_nodes:
        monkeypatch.setattr(J, "BLOCK_NODES", block_nodes)
    blocks = [len(range(n)[rows]) for rows in J.row_blocks((n, n))]
    assert blocks[-1:] + [len(blocks)] == {257: [5, 5], 300: [30, 6], N: [2, 22]}[n]
    spec = make_surface(name)
    whole = CL.classify_data(CL.s3_fields(G.fundamental_data(sample(spec, n))),
                             spec.name, spec.params)
    assert to_json(CL.classify(spec, n).to_dict()) == to_json(whole.to_dict())


MOVE = "tra:4,0,0 inv dil:0.3"


@pytest.mark.parametrize("n", [129, 300])
@pytest.mark.parametrize("name, word", [(name, None) for name in CATALOG]
                         + [("hyperbolic_cylinder", MOVE)])
def test_views_are_the_whole_grid_fields(n, name, word):
    """An S^3 view, streamed from a chart's grid or from its sampler, holds
    the lam, H, Omega and Y of the whole pushed chart and its whole-grid
    Gauss map to the bit, and its Q, taken one row block at a time, is
    <Y_zz, Y_zz> of that Gauss map; 129 rows are two row blocks."""
    spec = make_surface(name)
    data = G.fundamental_data(sample(spec, n))
    axes, block = zoo.sample_rows(spec, n)

    def rows_of(rows):
        chart = G.fundamental_data(block(rows))
        return chart if word is None else transform_immersion(chart, parse_word(word))

    if word is not None:
        data = transform_immersion(data, parse_word(word))
    whole = models.representation(data, "s3")
    cong = conformal_gauss_map(whole)
    q = lorentz_product(cong.Yzz, cong.Yzz)
    for view in (CL.s3_fields(data), CL.s3_fields(CL._SampledChart(axes, 1, rows_of))):
        CL._reduce_band(view)
        for mine, ref in ((view.lam, whole.lam), (view.H, whole.H), (view.Omega, whole.Omega),
                          (view.cong.Y, cong.Y), (view.q, q)):
            assert np.array_equal(mine, ref)


def test_streamed_classify_names_the_first_defective_block(monkeypatch):
    """Two defects in two row blocks: the whole-grid checks name the later
    block's degenerate node first, the streamed pass the first block's
    non-conformal one."""
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_ROWS)
    spec = make_surface("cylinder")
    u = np.linspace(*spec.domain[0], N)

    def defective(rows, v, _orig=spec.jet_fn):
        jet = _orig(rows, v)
        jet.du[rows[:, 0] == u[1], 4] *= 2.0  # not conformal, first block
        last = rows[:, 0] == u[60]
        jet.du[last, 7] = jet.dv[last, 7] = 0.0  # degenerate, a later block
        return jet

    spec.jet_fn = defective
    with pytest.raises(ValueError, match="degenerate jet: immersion condition fails"):
        sample(spec, N)
    with pytest.raises(ValueError, match="chart is not conformal within tolerance"):
        CL.classify(spec, N)


def test_streamed_classify_names_a_later_bands_defect_before_an_umbilic(monkeypatch):
    """An umbilic in the first band and a non-conformal node in the
    second, past the first band's slab: the jet defect is named, as when
    the whole chart was streamed before the umbilic check."""
    monkeypatch.setattr(J, "BAND_ROWS", FEW_BAND_ROWS)
    bands = J.row_bands(N)
    spec = make_surface("cylinder")
    u = np.linspace(*spec.domain[0], N)
    umbilic, defect = 8, bands[0].stop + CL.SLAB_HALO + 2
    assert umbilic < bands[0].stop < defect < bands[1].stop

    def defective(rows, v, _orig=spec.jet_fn):
        jet = _orig(rows, v)
        flat = rows[:, 0] == u[umbilic]
        for second in (jet.duu, jet.duv, jet.dvv):
            second[flat, 30] = 0.0  # a planar node: Omega = 0
        jet.du[rows[:, 0] == u[defect], 30] *= scale  # not conformal
        return jet

    spec.jet_fn = defective
    scale = 2.0
    with pytest.raises(ValueError, match="chart is not conformal within tolerance"):
        CL.classify(spec, N)
    scale = 1.0
    with pytest.raises(ValueError, match="^umbilic surface"):
        CL.classify(spec, N)


def test_streamed_classify_names_a_pool_threads_earlier_defect(monkeypatch):
    """The earlier defect in a block that the pool thread samples, a later
    one in a block of the main thread, which raises first: the earlier
    block's error is still the one named."""
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_ROWS)
    monkeypatch.setattr(CL, "_pool_size", lambda: 2)
    spec = make_surface("cylinder")
    helper_rows, helper_started, main_raised = [], threading.Event(), threading.Event()

    def defective(rows, v, _orig=spec.jet_fn):
        jet = _orig(rows, v)
        if threading.current_thread() is not threading.main_thread():
            if not helper_rows:
                helper_rows.append(rows[0, 0])
                jet.du[0, 4] *= 2.0  # not conformal
                helper_started.set()
                main_raised.wait(10)
        elif helper_started.wait(10) and rows[0, 0] > helper_rows[0]:
            jet.du[0, 7] = jet.dv[0, 7] = 0.0  # degenerate
        return jet

    def recorded(*args, _orig=zoo.sample_rows, **kwargs):
        axes, sample_block = _orig(*args, **kwargs)

        def each(rows):
            try:
                return sample_block(rows)
            except ValueError:
                if threading.current_thread() is threading.main_thread():
                    main_raised.set()
                raise

        return axes, each

    spec.jet_fn = defective
    monkeypatch.setattr(zoo, "sample_rows", recorded)
    with pytest.raises(ValueError, match="chart is not conformal within tolerance"):
        CL.classify(spec, N)
    assert helper_rows and main_raised.is_set()


def test_pooled_blocks_run_once_each(monkeypatch):
    """Eight threads on a short switch interval: each block runs once and
    the results come in block order; with two failing blocks, the earlier
    one's error is raised, after every block before it ran; an interrupt
    of the main thread starts no further block."""
    monkeypatch.setattr(CL, "_pool_size", lambda: 8)
    lead = (1000, 64)
    starts = [rows.start for rows in J.row_blocks(lead, 8)]
    assert len(starts) == 32
    ran = []

    def task(rows):
        ran.append(rows.start)
        if rows.start in fail:
            raise ValueError(f"block at row {rows.start}")
        return rows.start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fail = ()
        assert CL._on_blocks(task, lead) == starts
        assert sorted(ran) == starts
        ran.clear()
        fail = (starts[9], starts[5])
        with pytest.raises(ValueError, match=f"^block at row {starts[5]}$"):
            CL._on_blocks(task, lead)
        assert set(starts[:6]) <= set(ran) and len(ran) == len(set(ran))
    finally:
        sys.setswitchinterval(interval)

    def interrupted(rows):
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        time.sleep(0.01)
        ran.append(rows.start)

    ran.clear()
    with pytest.raises(KeyboardInterrupt):
        CL._on_blocks(interrupted, lead)
    assert len(ran) < len(starts) - 1


def _report(run):
    """The JSON report of ``run()``, or its error."""
    try:
        return to_json(run().to_dict())
    except ValueError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize("n", [129, 300, 513])
@pytest.mark.parametrize("name", CATALOG)
def test_pooled_classify_equals_the_serial_loop(monkeypatch, name, n):
    """Row blocks of the streamed view and of each band on two threads,
    byte for byte as on one; 129 rows are two blocks of the view, 300 and
    513 rows two bands, each of several blocks."""
    spec = make_surface(name)
    monkeypatch.setattr(CL, "_pool_size", lambda: 1)
    serial = _report(lambda: CL.classify(spec, n))
    monkeypatch.setattr(CL, "_pool_size", lambda: 2)
    assert _report(lambda: CL.classify(spec, n)) == serial


@pytest.mark.parametrize("workers", [2, 3])
def test_pooled_classify_data_of_a_callers_chart_equals_the_serial_loop(monkeypatch,
                                                                        workers):
    """A caller's R^3 chart, streamed into its S^3 view on ``workers``
    threads, byte for byte as on one."""
    data = G.fundamental_data(sample(make_surface("torus_revolution"), 300))
    monkeypatch.setattr(CL, "_pool_size", lambda: 1)
    serial = _report(lambda: CL.classify_data(data, "torus_revolution"))
    monkeypatch.setattr(CL, "_pool_size", lambda: workers)
    assert _report(lambda: CL.classify_data(data, "torus_revolution")) == serial


def test_banded_classify_peak_memory():
    """tracemalloc peak of a two-band classify, sampling included, per
    node: measured 167.9 on one thread and 170.5 on two, plus about 20
    (188 and 194 with whole-grid lam, H, Omega and Y, 210 with the sign
    field's pointwise terms taken whole-band, 256 with whole-band Y
    derivatives, 480 with whole-grid jets, 836 for a whole-grid run)."""
    n = 257
    assert len(J.row_bands(n)) == 2
    tracemalloc.start()
    try:
        CL.classify(make_surface("torus_revolution"), n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n ** 2 <= 190


def test_three_band_classify_peak_memory():
    """tracemalloc peak of a three-band classify at N = 513, sampling
    included, per node: measured 68.2 on one thread and 70.5 on two, plus
    5 % (127.4 and 129.8 with whole-grid lam, H, Omega and Y)."""
    n = 513
    assert len(J.row_bands(n)) == 3
    tracemalloc.start()
    try:
        CL.classify(make_surface("torus_revolution"), n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n ** 2 <= 74
