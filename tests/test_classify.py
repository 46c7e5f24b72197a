import concurrent.futures  # noqa: F401 -- the first pooled classify imports it
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confgauss import classify as CL
from confgauss import congruence as C
from confgauss import grid as G
from confgauss import jets as J
from confgauss import models
from confgauss.lorentz import lorentz_product, random_word, word_matrix
from confgauss.zoo import CATALOG, make_surface, sample
from conftest import assert_same_but_fit_digits, data_for


def _s3(name, n=128, **params):
    return models.representation(data_for(name, n=n, **params), "s3")


def test_bryant_q_catenoid_vanishes():
    assert G.interior_max(CL.bryant_q(_s3("catenoid"))) <= 1e-7


def test_bryant_q_cylinder_value():
    rho = 1.0
    q = CL.bryant_q(_s3("cylinder", rho=rho))
    assert G.interior_max(q - 1.0 / (64.0 * rho ** 4)) <= 1e-8


def test_bryant_q_clifford_value():
    data = data_for("clifford_torus", n=65)
    q = CL.bryant_q(data)
    # omega = -1 constant, h = 0: Q = omega^2 / 4
    assert G.interior_max(q - 0.25) <= 1e-8
    cong = C.conformal_gauss_map(data)
    assert G.interior_max(q - lorentz_product(cong.Yzz, cong.Yzz)) <= 1e-6


def test_bryant_q_names_what_it_cannot_take():
    # the closed form divides by Omega, zero on a sphere, in any model
    data = data_for("sphere", n=33, R=1.0)
    for chart in (data, models.representation(data, "s3")):
        with pytest.raises(ValueError, match="^umbilic chart"):
            CL.bryant_q(chart)
    with pytest.raises(ValueError, match="no closed form on h3 data"):
        CL.bryant_q(data_for("hyperbolic_cylinder", n=33))


def test_bryant_q_r3_route():
    data = data_for("cylinder", n=65)
    assert G.interior_max(CL.bryant_q(data) - 1.0 / 64.0) <= 1e-8


def test_holomorphy_residuals():
    data = _s3("torus_revolution", R=np.sqrt(2.0), r=1.0)
    q = CL.bryant_q(data)
    assert G.interior_max(data.grid.dzbar(q)) <= 1e-4
    data = _s3("cylinder")
    q = CL.bryant_q(data)
    # Q is constant; the band-2 figure carries the stencil-switch rows,
    # the clean interior sits at the 1e-8 level
    assert G.interior_max(data.grid.dzbar(q)) <= 5e-6
    assert G.interior_max(data.grid.dzbar(q), band=6) <= 1e-8
    data = _s3("revolution_profile")
    q = CL.bryant_q(data)
    assert G.interior_max(data.grid.dzbar(q)) >= 1e-2


def test_holomorphy_identity():
    for name, params in [("cylinder", {}),
                         ("torus_revolution", {"R": np.sqrt(2.0), "r": 1.0})]:
        data = _s3(name, **params)
        cong = C.conformal_gauss_map(data)
        q = lorentz_product(cong.Yzz, cong.Yzz)
        assert CL.holomorphy_identity_residual(data, q) <= 1e-4, name


def test_isothermic_witness_values():
    def witness(name, **params):
        return CL.classification_value(_s3(name, **params)).isothermic_witness

    assert witness("cylinder") <= 1e-10
    assert witness("catenoid") == 0.0
    assert witness("hyperbolic_cylinder", d=0.5) <= 1e-6


def test_classification_value_cases():
    # kappa = -1 (clifford_torus): the sign field is <= its floor at every
    # interior node and below -floor on >= 99% of them
    assert CL.classification_value(_s3("cylinder")).kappa == 0
    assert CL.classification_value(_s3("clifford_torus")).kappa == -1
    assert CL.classification_value(_s3("hyperbolic_cylinder", d=0.5)).kappa == 1


@pytest.mark.parametrize("name", ["cylinder", "catenoid", "clifford_torus",
                                  "hyperbolic_cylinder"])
def test_classification_value_is_the_verdicts(name):
    # the public call is the reduction that classify_data reads
    data = data_for(name, n=65)
    numbers = CL.classification_value(data)
    rep = CL.classify_data(data, name)
    assert numbers == rep.numbers
    assert numbers.kappa == rep.kappa


@pytest.mark.parametrize("band_rows", [None, 20])
def test_classify_runs_one_reduction(monkeypatch, band_rows):
    # perfbench's classify.classification_value span times this call
    calls = []

    def counted(data, *moments, _orig=CL.classification_value):
        calls.append(data.grid.shape)
        return _orig(data, *moments)

    monkeypatch.setattr(CL, "classification_value", counted)
    if band_rows:
        monkeypatch.setattr(J, "BAND_ROWS", band_rows)
    n = 65
    assert len(J.row_bands(n)) == (4 if band_rows else 1)
    CL.classify_data(data_for("torus_revolution", n=n, R=3.0, r=1.0), "torus")
    assert calls == [(n, n)]


def test_classify_estimates_the_noise_once(monkeypatch):
    # the 2h estimate reads one 2h view per classification
    shapes = []

    def counted(self, rows=slice(None), step=1, _orig=CL._S3Fields.sub):
        if step == 2:
            shapes.append(self.grid.shape)
        return _orig(self, rows, step)

    monkeypatch.setattr(CL._S3Fields, "sub", counted)
    CL.classify_data(data_for("torus_revolution", n=33, R=3.0, r=1.0), "torus")
    assert shapes == [(33, 33)]


def test_hyperplane_fit_cases():
    for name, params, want_type, want_linear in [
        ("cylinder", {}, "lightlike", False),
        ("catenoid", {}, "lightlike", True),
        ("clifford_torus", {}, "timelike", True),
    ]:
        data = data_for(name, n=65, **params)
        cong = C.conformal_gauss_map(data)
        fit = CL.hyperplane_fit(cong.Y[2:-2, 2:-2].reshape(-1, 5))
        assert fit.vtype == want_type, name
        assert fit.linear == want_linear, name
        assert fit.rms <= 1e-7, name


def test_hyperplane_fit_sign_stable_under_roundoff():
    # the lightlike normal of the inverted catenoid has |v4| = |v5| up to
    # round-off; 1e-15 noise in the samples must not flip the reported sign
    cong = C.conformal_gauss_map(_s3("inverted_catenoid"))
    samples = cong.Y[2:-2, 2:-2].reshape(-1, 5)
    ref = CL.hyperplane_fit(samples)
    assert ref.vtype == "lightlike"
    for seed in range(10):
        noise = np.random.default_rng(seed).standard_normal(samples.shape)
        fit = CL.hyperplane_fit(samples * (1.0 + 1e-15 * noise))
        assert np.max(np.abs(fit.v - ref.v)) <= 1e-6, seed


def test_hyperplane_fit_requires_samples():
    # the count of samples, not of array entries: 50 nodes of 5 entries
    # each, and 99 nodes, are too few
    for count in (50, 99):
        with pytest.raises(ValueError, match=f"at least 100 interior samples, got {count}$"):
            CL.hyperplane_fit(np.tile([0, 0, 1, 0, 0.0], (count, 1)))


def test_hyperplane_fit_degenerate_congruence():
    samples = np.tile([0.0, 0.0, 1.0, 0.0, 0.0], (200, 1))
    with pytest.raises(ValueError, match="degenerate"):
        CL.hyperplane_fit(samples)


# every catalog surface with a verdict
VERDICT_CASES = [name for name in CATALOG if not make_surface(name).expected["umbilic"]]


@pytest.mark.parametrize("n", [300, 513])
@pytest.mark.parametrize("name", VERDICT_CASES)
def test_band_count_moves_only_the_fits_last_digits(monkeypatch, name, n):
    """Bands of 128, 256 and 512 rows against one band: the same numbers
    and verdict, and a fit from the merged band moments whose v and eta
    move by at most FIT_MOVE_TOL (2.2e-11 measured) and whose rms is the
    direct sum's at its plane."""
    view = CL.s3_fields(G.fundamental_data(sample(make_surface(name), n)))
    monkeypatch.setattr(J, "BAND_ROWS", n)
    whole = CL.classify_data(view, name)
    for rows, count in zip((128, 256, 512), (3, 2, 1) if n == 300 else (5, 3, 2)):
        monkeypatch.setattr(J, "BAND_ROWS", rows)
        assert len(J.row_bands(n)) == count
        assert_same_but_fit_digits(CL.classify_data(view, name), whole, view.cong.Y)


def test_classify_reports():
    rep = CL.classify(make_surface("torus_revolution", R=3.0, r=1.0), n=128)
    assert rep.kappa == -1
    assert rep.verdict == "conformally CMC in S³"
    rep = CL.classify(make_surface("inverted_catenoid"), n=128)
    assert rep.kappa == 0
    assert rep.verdict == "conformally minimal in ℝ³"
    rep = CL.classify(make_surface("revolution_profile"), n=128)
    assert rep.verdict == "not conformally CMC"
    assert rep.numbers.q_holomorphy >= 1e-2


def test_classify_rejects_umbilic():
    with pytest.raises(ValueError, match="umbilic"):
        CL.classify(make_surface("sphere", R=1.0), n=64)
    # the check runs on the S^3 view: one answer in whichever model
    for name in ("plane", "sphere"):
        data = data_for(name, n=33)
        for chart in (data, models.representation(data, "s3")):
            with pytest.raises(ValueError, match="^umbilic surface"):
                CL.classify_data(chart, name)


def test_classify_grid_minimum():
    spec = make_surface("cylinder")
    with pytest.raises(ValueError, match="at least 17 nodes per side.*2h restriction"):
        CL.classify(spec, n=16)
    assert CL.classify(spec, n=17).verdict == "conformally CMC in ℝ³"


def test_report_dict_schema():
    rep = CL.classify(make_surface("cylinder"), n=96)
    payload = rep.to_dict()
    assert set(payload) == {"surface", "params", "grid", "willmore_residual",
                            "q_holomorphy", "isothermic_witness", "kappa",
                            "hyperplane", "verdict"}
    assert set(payload["hyperplane"]) == {"v", "eta", "residual", "type", "linear"}
    assert len(payload["hyperplane"]["v"]) == 5


def test_q_invariant_along_transported_congruence(rng):
    # recomputing <Y_zz, Y_zz> from M Y leaves Q unchanged
    data = data_for("torus_revolution", n=96, R=np.sqrt(2.0), r=1.0)
    cong = C.conformal_gauss_map(data)
    q_base = lorentz_product(cong.Yzz, cong.Yzz)
    for _ in range(5):
        m = word_matrix(random_word(rng))
        moved = C.CongruenceGrid(data.grid, cong.Y @ m.T)
        q_moved = lorentz_product(moved.Yzz, moved.Yzz)
        assert G.interior_max(q_moved - q_base) <= 1e-6


def test_verdict_moebius_invariance(rng):
    data = data_for("torus_revolution", n=96, R=3.0, r=1.0)
    base = CL.classify_data(data, "torus")
    done, tries = 0, 0
    while done < 5 and tries < 50:
        tries += 1
        word = random_word(rng)
        try:
            moved = C.transform_immersion(data, word)
            rep = CL.classify_data(moved, "torus-moved")
        except ValueError:
            continue
        done += 1
        assert rep.kappa == base.kappa
        assert rep.hyperplane.vtype == base.hyperplane.vtype
    assert done == 5


def test_classify_another_cmc_torus():
    rep = CL.classify(make_surface("torus_revolution", R=2.0, r=1.0), n=128)
    assert rep.kappa == -1
    assert rep.hyperplane.vtype == "timelike"
    assert rep.verdict == "conformally CMC in S³"


def test_classify_takes_each_derivative_once(monkeypatch):
    passes = []
    for axis, name in enumerate(("d_u", "d_v")):
        def counted(self, f, _orig=getattr(G.ChartGrid, name), _axis=axis):
            field = np.ascontiguousarray(f)
            passes.append((_axis, field.shape, field.tobytes()))
            return _orig(self, f)

        monkeypatch.setattr(G.ChartGrid, name, counted)
    CL.classify_data(data_for("cylinder", n=33), "cylinder")
    assert len(passes) <= 24
    assert len(set(passes)) == len(passes)


BYTES_PER_NODE = {"torus_revolution": 435, "clifford_torus": 405}


@pytest.mark.parametrize("name", BYTES_PER_NODE)
def test_classify_bytes_per_node(name):
    """tracemalloc peak of one classify_data above its input, per node:
    measured at most 407.1 and 396.6 on one and two threads, plus about
    10 B/node.  Both charts are streamed, the S^3 clifford_torus too
    (382.9 when its read fields were classified as they were)."""
    n, limit = 129, BYTES_PER_NODE[name]
    data = G.fundamental_data(sample(make_surface(name), n))
    data.Omega  # the input's own fields are extracted on first read: read them here
    tracemalloc.start()
    try:
        CL.classify_data(data, name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n ** 2 <= limit


def test_classified_view_holds_only_its_fields():
    """tracemalloc of what a caller's view holds after classify_data, per
    node: only its fields, read before, and Y, since every derivative
    field dies with its band.  Measured 41.0 on one thread and 47.4 on
    two, of which Y is 40 (296.8 when a one-band view kept Y's
    derivatives, Q, Q_zbar, W_{S3} and grad H)."""
    n = 129
    view = CL.s3_fields(G.fundamental_data(sample(make_surface("clifford_torus"), n)))
    view.Omega  # the view's own fields are extracted on first read: read them here
    tracemalloc.start()
    try:
        CL.classify_data(view, "clifford_torus")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / n ** 2 <= 60


def _count_chart_normals(monkeypatch):
    """The (model, shape) of each grid that ``chart_normal`` is taken on."""
    seen = []

    def counted(grid, _orig=G.chart_normal):
        seen.append((grid.model, grid.shape))
        return _orig(grid)

    monkeypatch.setattr(G, "chart_normal", counted)
    return seen


def test_classify_takes_the_h3_chart_normal_once(monkeypatch):
    # fundamental_data records that its n is the chart normal, so the
    # one H^3 -> S^3 push reads the source orientation instead of recomputing
    # it; the S^3 normal is taken on the chart once, and its 2h restriction
    # reads the restricted fields
    data = G.fundamental_data(sample(make_surface("hyperbolic_cylinder"), 33))
    seen = _count_chart_normals(monkeypatch)
    CL.classify_data(data, "hyperbolic_cylinder")
    assert seen == [("s3", (33, 33))]


def test_classify_never_extracts_the_r3_data(monkeypatch):
    # representation reads only the source's grid, model and orientation
    seen = _count_chart_normals(monkeypatch)
    CL.classify(make_surface("torus_revolution"), n=33)
    assert seen == [("s3", (33, 33))]


def test_coarse_fields_are_the_restricted_fine_ones():
    # the 2h view reads the fine fields at even nodes; they are, to the
    # bit, what extraction on the 2h grid of the pushed S^3 chart gives
    for name in ("torus_revolution", "hyperbolic_cylinder", "clifford_torus"):
        fine = _s3(name, n=33)
        coarse = CL.s3_fields(fine).sub(step=2)
        own = G.FundamentalData(fine.grid.subgrid(step=2), fine.orientation)
        for part in ("lam", "n", "H", "Omega"):
            restricted = getattr(fine, part)[::2, ::2]
            assert np.array_equal(getattr(own, part), restricted), (name, part)
            if part != "n":  # a view holds no n
                assert np.array_equal(getattr(coarse, part), restricted), (name, part)


def test_classify_builds_each_sign_field_once(monkeypatch):
    shapes = []

    def counted(view, rows, _orig=CL._sign_terms):
        shapes.append(view.grid.shape)
        return _orig(view, rows)

    monkeypatch.setattr(CL, "_sign_terms", counted)
    CL.classify_data(data_for("torus_revolution", n=33, R=3.0, r=1.0), "torus")
    assert sorted(shapes) == [(17, 17), (33, 33)]


def test_q_holomorphy_reads_the_direct_q():
    data = data_for("torus_revolution", n=65, R=3.0, r=1.0)
    rep = CL.classify_data(data)
    cong = C.conformal_gauss_map(models.representation(data, "s3"))
    q = lorentz_product(cong.Yzz, cong.Yzz)
    assert rep.numbers.q_holomorphy == G.interior_max(cong.grid.dzbar(q))


def test_classify_builds_one_congruence(monkeypatch):
    # the 2h Q comes from the restricted fine Y, not from a second Gauss map
    built = []

    def counted(data, _orig=CL.conformal_gauss_map):
        built.append(data.grid.shape)
        return _orig(data)

    monkeypatch.setattr(CL, "conformal_gauss_map", counted)
    CL.classify_data(data_for("revolution_profile", n=33), "profile")
    assert built == [(33, 33)]


def test_near_umbilic_profile_gets_a_verdict():
    # min |Omega| e^{-2lam} is 3.6e-4 on this in-range chart; the closed
    # form of Q divides by Omega, <Y_zz, Y_zz> does not
    spec = make_surface("revolution_profile", rho0=1.2618, cos1=0.3839,
                        sin2=0.1114, zslope=1.0026)
    assert CL.classify(spec, n=128).verdict == "not conformally CMC"


@pytest.mark.parametrize("n", [128, 256])
def test_inverted_clifford_torus_gets_its_verdict(n):
    data = G.fundamental_data(sample(make_surface("clifford_torus"), n))
    moved = C.transform_immersion(data, random_word(np.random.default_rng(0)))
    assert CL.classify_data(moved).verdict == "conformally minimal in S³"


# the ValueErrors a moved catalog chart may meet in transform and
# classify_data, as listed in README
MOVED_CHART_ERRORS = re.compile(
    "inversion center on surface|image meets the point at infinity"
    "|chart meets the north pole|chart leaves the Poincare ball"
    "|degenerate jet|chart is not conformal within tolerance"
    "|jet has non-finite values|umbilic surface|degenerate congruence"
    "|stencil derivatives overflow")


@pytest.fixture(scope="module")
def moved_bases():
    data = {name: data_for(name, n=65)
            for name in ("cylinder", "clifford_torus", "hyperbolic_cylinder")}
    return {name: (d, CL.classify_data(d, name)) for name, d in data.items()}


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_words_keep_the_verdict_or_name_the_error(moved_bases, seed):
    word = random_word(np.random.default_rng(seed))
    for name, (data, base) in moved_bases.items():
        # a RuntimeWarning fails the test too (filterwarnings in pyproject.toml)
        try:
            rep = CL.classify_data(C.transform_immersion(data, word), name)
        except ValueError as exc:
            assert MOVED_CHART_ERRORS.match(str(exc)), (name, str(exc))
            continue
        assert rep.kappa == base.kappa, (name, rep.verdict)
        assert rep.hyperplane.vtype == base.hyperplane.vtype, name
