import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confgauss import classify as CL
from confgauss import congruence as C
from confgauss import grid as G
from confgauss import models
from confgauss.lorentz import lorentz_product, random_word, word_matrix
from confgauss.zoo import make_surface, sample
from conftest import data_for


def _s3_setup(name, n=128, **params):
    data = models.representation(data_for(name, n=n, **params), "s3")
    cong = C.conformal_gauss_map(data)
    return data, cong


def test_bryant_q_catenoid_vanishes():
    data, cong = _s3_setup("catenoid")
    qres = CL.bryant_q(data, cong)
    assert G.interior_max(qres.q) <= 1e-7


def test_bryant_q_cylinder_value():
    rho = 1.0
    data, cong = _s3_setup("cylinder", rho=rho)
    qres = CL.bryant_q(data, cong)
    assert G.interior_max(qres.q - 1.0 / (64.0 * rho ** 4)) <= 1e-8


def test_bryant_q_clifford_value():
    data = data_for("clifford_torus", n=65)
    cong = C.conformal_gauss_map(data)
    qres = CL.bryant_q(data, cong)
    # omega = -1 constant, h = 0: Q = omega^2 / 4
    assert G.interior_max(qres.q - 0.25) <= 1e-8
    assert qres.agreement <= 1e-6


def test_bryant_q_umbilic_flag():
    data, cong = _s3_setup("sphere", n=33, R=1.0)
    qres = CL.bryant_q(data, cong)
    assert qres.umbilic_flagged


def test_bryant_q_r3_route():
    data = data_for("cylinder", n=65)
    q_phi = CL.bryant_q_r3(data)
    assert G.interior_max(q_phi - 1.0 / 64.0) <= 1e-8


def test_holomorphy_residuals():
    data, cong = _s3_setup("torus_revolution", R=np.sqrt(2.0), r=1.0)
    q = CL.bryant_q(data, cong).q
    assert G.interior_max(data.grid.dzbar(q)) <= 1e-4
    data, cong = _s3_setup("cylinder")
    q = CL.bryant_q(data, cong).q
    # Q is constant; the band-2 figure carries the stencil-switch rows,
    # the clean interior sits at the 1e-8 level
    assert G.interior_max(data.grid.dzbar(q)) <= 5e-6
    assert G.interior_max(data.grid.dzbar(q), band=6) <= 1e-8
    data, cong = _s3_setup("revolution_profile")
    q = CL.bryant_q(data, cong).q
    assert G.interior_max(data.grid.dzbar(q)) >= 1e-2


def test_holomorphy_identity():
    for name, params in [("cylinder", {}),
                         ("torus_revolution", {"R": np.sqrt(2.0), "r": 1.0})]:
        data, cong = _s3_setup(name, **params)
        q = CL.bryant_q(data, cong).q
        assert CL.holomorphy_identity_residual(data, q) <= 1e-4, name


def test_isothermic_witness_values():
    data, cong = _s3_setup("cylinder")
    assert CL.isothermic_witness(data, CL.bryant_q(data, cong).q) <= 1e-10
    data, cong = _s3_setup("catenoid")
    assert CL.isothermic_witness(data, CL.bryant_q(data, cong).q) == 0.0
    data, cong = _s3_setup("hyperbolic_cylinder", d=0.5)
    assert CL.isothermic_witness(data, CL.bryant_q(data, cong).q) <= 1e-6


def test_classification_value_cases():
    data, cong = _s3_setup("cylinder")
    fld, kappa, diag = CL.classification_value(data, CL.bryant_q(data, cong).q)
    assert kappa == 0
    data, cong = _s3_setup("clifford_torus")
    fld, kappa, diag = CL.classification_value(data, CL.bryant_q(data, cong).q)
    assert kappa == -1
    assert np.all(fld[4:-4, 4:-4] < 0)
    data, cong = _s3_setup("hyperbolic_cylinder", d=0.5)
    fld, kappa, diag = CL.classification_value(data, CL.bryant_q(data, cong).q)
    assert kappa == 1


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
    _, cong = _s3_setup("inverted_catenoid")
    samples = cong.Y[2:-2, 2:-2].reshape(-1, 5)
    ref = CL.hyperplane_fit(samples)
    assert ref.vtype == "lightlike"
    for seed in range(10):
        noise = np.random.default_rng(seed).standard_normal(samples.shape)
        fit = CL.hyperplane_fit(samples * (1.0 + 1e-15 * noise))
        assert np.max(np.abs(fit.v - ref.v)) <= 1e-6, seed


def test_hyperplane_fit_requires_samples():
    with pytest.raises(ValueError, match="100 samples"):
        CL.hyperplane_fit(np.tile([0, 0, 1, 0, 0.0], (50, 1)))


def test_hyperplane_fit_degenerate_congruence():
    samples = np.tile([0.0, 0.0, 1.0, 0.0, 0.0], (200, 1))
    with pytest.raises(ValueError, match="degenerate"):
        CL.hyperplane_fit(samples)


def test_classify_reports():
    rep = CL.classify(make_surface("torus_revolution", R=3.0, r=1.0), n=128)
    assert rep.kappa == -1
    assert rep.verdict == "conformally CMC in S³"
    rep = CL.classify(make_surface("inverted_catenoid"), n=128)
    assert rep.kappa == 0
    assert rep.verdict == "conformally minimal in ℝ³"
    rep = CL.classify(make_surface("revolution_profile"), n=128)
    assert rep.verdict == "not conformally CMC"
    assert rep.q_holomorphy >= 1e-2


def test_classify_rejects_umbilic():
    with pytest.raises(ValueError, match="umbilic"):
        CL.classify(make_surface("sphere", R=1.0), n=64)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-3])
def test_classify_rejects_bad_holomorphy_tol(tol):
    # max(nan, noise) is nan, a gate that no residual exceeds: a NaN
    # tolerance used to pass every surface as holomorphic
    data = data_for("revolution_profile", n=65)
    with pytest.raises(ValueError, match="holomorphy tolerance must be finite and positive"):
        CL.classify_data(data, holomorphy_tol=tol)


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


def test_classify_builds_each_sign_field_once(monkeypatch):
    shapes = []
    field_and_scale = CL._field_and_scale

    def counted(fields, q):
        shapes.append(fields.grid.shape)
        return field_and_scale(fields, q)

    monkeypatch.setattr(CL, "_field_and_scale", counted)
    CL.classify_data(data_for("torus_revolution", n=33, R=3.0, r=1.0), "torus")
    assert sorted(shapes) == [(17, 17), (33, 33)]


def test_q_holomorphy_reads_the_direct_q():
    data = data_for("torus_revolution", n=65, R=3.0, r=1.0)
    rep = CL.classify_data(data)
    cong = C.conformal_gauss_map(models.representation(data, "s3"))
    q = lorentz_product(cong.Yzz, cong.Yzz)
    assert rep.q_holomorphy == G.interior_max(cong.grid.dzbar(q))


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
    "|jet has non-finite values|umbilic surface|degenerate congruence")


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
