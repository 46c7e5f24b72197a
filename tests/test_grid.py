import numpy as np
import pytest

from confgauss import grid as G
from confgauss.jets import Jet2
from confgauss.models import representation
from confgauss.zoo import CATALOG, make_surface, sample
from conftest import data_for, savetxt_reference


def _plain_grid(n=33, lo=-1.0, hi=1.0):
    return sample(make_surface("plane"), n, domain=((lo, hi), (lo, hi)))


def test_dz_examples():
    g = _plain_grid()
    uu, vv = np.meshgrid(g.u, g.v, indexing="ij")
    assert np.max(np.abs(g.dz(uu) - 0.5)) <= 1e-13
    assert np.max(np.abs(g.dzbar(uu + 1j * vv))) <= 1e-13
    f = uu ** 2 + vv ** 2
    assert np.max(np.abs(g.dz(f) - (uu - 1j * vv))) <= 1e-12


def test_dz_conjugation_exact():
    g = _plain_grid(17)
    rng = np.random.default_rng(0)
    for shape in ((17, 17), (17, 17, 5)):
        f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(g.dz(np.conj(f)), np.conj(g.dzbar(f)))


def _plane_chart(u, v):
    uu, vv = np.meshgrid(u, v, indexing="ij")
    zero = np.zeros(uu.shape + (3,))
    pos = np.stack([uu, vv, np.zeros_like(uu)], axis=-1)
    du, dv = zero.copy(), zero.copy()
    du[..., 0] = 1.0
    dv[..., 1] = 1.0
    return G.ChartGrid("r3", u, v, Jet2(pos, du, dv, zero, zero, zero))


def _polynomial_field(g, axis, degree, kind):
    """A degree-``degree`` polynomial along ``axis`` and its exact derivative."""
    uu, vv = np.meshgrid(g.u, g.v, indexing="ij")
    x, y = (uu, vv) if axis == 0 else (vv, uu)
    x = x - 0.3
    f, df = x ** degree * np.cos(y), degree * x ** (degree - 1) * np.cos(y)
    if kind == "complex":
        f, df = (1.0 - 2.0j) * f + 1j * np.sin(y), (1.0 - 2.0j) * df
    elif kind == "vector":
        scales = np.array([1.0, -2.0, 0.5, 3.0])
        f, df = f[..., None] * scales, df[..., None] * scales
    return f, df


@pytest.mark.parametrize("nodes", [(9, 11), (11, 9)])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("kind", ["real", "complex", "vector"])
def test_axis_derivative_polynomial_exactness(nodes, axis, kind):
    # interior stencil exact to degree 4, the two edge rows at each end to
    # degree 6; one degree more and each is visibly inexact
    g = _plane_chart(np.linspace(-1.0, 1.0, nodes[0]),
                     np.linspace(0.5, 1.7, nodes[1]))
    assert g.hu != g.hv
    derivative = g.d_u if axis == 0 else g.d_v
    for rows, exact, inexact in [(slice(2, -2), 4, 5), ([0, 1, -2, -1], 6, 7)]:
        for degree in (exact, inexact):
            f, df = _polynomial_field(g, axis, degree, kind)
            result = derivative(f)
            assert result.dtype == (complex if kind == "complex" else float)
            err = np.max(np.abs(np.moveaxis(result - df, axis, 0)[rows]))
            scale = np.max(np.abs(df))
            if degree == exact:
                assert err <= 1e-12 * scale, (degree, err)
            else:
                assert err >= 1e-6 * scale, (degree, err)


def test_axis_derivative_rejects_mismatched_field():
    g = _plane_chart(np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError, match="nodes along axis 1"):
        g.d_v(np.zeros((9, 9)))


def _field(rng, n, kind, m=11):
    shape = (n, m) + ((5,) if kind == "vector" else ())
    f = rng.normal(size=shape)
    return f + 1j * rng.normal(size=shape) if kind == "complex" else f


def _windows(n):
    """Row windows that touch either edge, lie inside, cover one row, and
    end in a last row block shorter than 7 rows."""
    wins = [slice(0, n), slice(0, 1), slice(1, 2), slice(0, 3), slice(n - 1, n),
            slice(n - 2, n), slice(n - 3, n - 1), slice(n - 5, n), slice(2, n - 2)]
    if n > 20:
        wins += [slice(3, 9), slice(n // 2 - 4, n // 2 + 5), slice(0, 16), slice(n - 16, n)]
    return [w for w in wins if w.start < w.stop]


@pytest.mark.parametrize("n", [9, 129, 300])
@pytest.mark.parametrize("kind", ["real", "complex", "vector"])
def test_row_window_is_the_slice_of_the_whole_pass(rng, n, kind):
    # rows [a, b) from rows_read([a, b)) of the field, bit for bit as the
    # whole-grid pass, also for an edge window of fewer than 7 rows, as a
    # short last row block is
    f = _field(rng, n, kind)
    whole = G._axis_derivative(f, 0.013, n, 0)
    for rows in _windows(n):
        read = G.rows_read(rows, n)
        assert read.start <= max(rows.start - 2, 0) and read.stop >= min(rows.stop + 2, n)
        got = G._axis_derivative(f[read], 0.013, n, 0, rows)
        assert got.dtype == whole.dtype
        assert np.array_equal(got, whole[rows]), rows
    with pytest.raises(ValueError, match="nodes along axis 0"):
        G._axis_derivative(f[1:], 0.013, n, 0, slice(0, 3))


@pytest.mark.parametrize("band", [2, 4])
def test_row_window_maxima_merge_to_the_interior_max(band):
    # a spike or a NaN on any one row, the first and last interior rows
    # included, is in the np.maximum of the row windows' maxima exactly
    # when the whole grid's interior max counts it
    n, m = 21, 12
    for row in range(n):
        for value, norm in (((3.0, 4.0, 0.0), 5.0), (np.nan, np.nan)):
            f = np.zeros((n, m, 3))
            f[row, m // 2] = value
            whole = G.interior_max(f, band)
            assert np.array_equal(whole, norm if band <= row < n - band else 0.0,
                                  equal_nan=True)
            for size in (1, 2, 5, n):
                merged = 0.0
                for start in range(0, n, size):
                    rows = slice(start, min(start + size, n))
                    merged = np.maximum(merged, G.interior_max(f[rows], band, rows=rows, n=n))
                assert np.array_equal(merged, whole, equal_nan=True), (row, size)


def _strided_derivative(f, h, axis):
    """The stencil by slices along ``axis``, one line at a time in effect:
    a reference for the flattened interior pass."""
    f = np.moveaxis(f, axis, 0)
    out = np.empty(f.shape, np.result_type(f.dtype, np.float64))
    inner = out[2:-2]
    np.subtract(f[3:-1], f[1:-3], out=inner)
    inner *= 8.0
    inner += f[:-4]
    inner -= f[4:]
    inner *= 1.0 / (12.0 * h)
    for rows, weights, nodes in ((slice(0, 2), G._EDGE, slice(0, 7)),
                                 (slice(-2, None), G._EDGE_END, slice(-7, None))):
        out[rows] = ((weights / h) @ f[nodes].reshape(7, -1)).reshape((2,) + f.shape[1:])
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("n", [9, 129, 300])
@pytest.mark.parametrize("kind", ["real", "complex", "vector"])
def test_flattened_pass_is_the_strided_pass(rng, n, kind):
    # the interior pass runs over the flattened field and writes across line
    # ends, which the edge stencils overwrite: every node as a pass by line
    f = _field(rng, n, kind, m=n)
    for axis in (0, 1):
        assert np.array_equal(G._axis_derivative(f, 0.021, n, axis),
                              _strided_derivative(f, 0.021, axis)), axis
    # a strided view gives what its contiguous copy gives
    view = f[::2]
    assert np.array_equal(G._axis_derivative(view, 0.021, n, 1),
                          G._axis_derivative(view.copy(), 0.021, n, 1))


def test_cross4_is_the_determinant_cofactor(rng):
    a, b, c, t = rng.normal(size=(4, 50, 4))
    got = np.sum(G._cross4(a, b, c) * t, axis=-1)
    want = np.linalg.det(np.stack([a, b, c, t], axis=-2))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_grid_too_small():
    with pytest.raises(ValueError, match="too small"):
        sample(make_surface("plane"), 8)
    with pytest.raises(ValueError, match="too small"):
        sample(make_surface("inverted_catenoid"), 0)


def test_derivatives_commute_with_refinement():
    # mixed derivatives commute up to discretization; halving h wins >= 15x
    def residual(n):
        g = _plain_grid(n)
        uu, vv = np.meshgrid(g.u, g.v, indexing="ij")
        f = np.sin(2 * uu) * np.exp(vv)
        exact = ((np.cos(2 * uu) * 2) - 1j * np.sin(2 * uu)) * np.exp(vv) / 2
        return G.interior_max(g.dz(f) - exact)

    assert residual(33) / residual(65) >= 15.0


def test_fundamental_data_plane():
    data = data_for("plane", n=33)
    assert np.max(np.abs(data.lam)) <= 1e-14
    assert np.max(np.abs(data.H)) <= 1e-14
    assert np.max(np.abs(data.Omega)) <= 1e-14
    assert np.allclose(data.n, [0.0, 0.0, 1.0])


def test_fundamental_data_catenoid():
    data = data_for("catenoid", n=33)
    g = data.grid
    uu, vv = np.meshgrid(g.u, g.v, indexing="ij")
    assert np.max(np.abs(data.e2lam - np.cosh(uu) ** 2)) <= 1e-12
    assert np.max(np.abs(data.H)) <= 1e-13
    assert np.max(np.abs(data.Omega + 1.0)) <= 1e-12
    n_expected = np.stack([-np.cos(vv), -np.sin(vv), np.sinh(uu)], axis=-1)
    n_expected /= np.cosh(uu)[..., None]
    assert np.max(np.abs(data.n - n_expected)) <= 1e-12


def test_fundamental_data_cylinder():
    data = data_for("cylinder", n=33, rho=1.0)
    assert np.max(np.abs(data.e2lam - 1.0)) <= 1e-14
    assert np.max(np.abs(data.H + 0.5)) <= 1e-14
    assert np.max(np.abs(data.Omega - 0.5)) <= 1e-14
    # outward normal
    radial = data.grid.pos.copy()
    radial[..., 2] = 0.0
    assert np.min((data.n * radial).sum(axis=-1)) > 0.9


def test_normal_orthogonality_invariant():
    for name in ("enneper", "clifford_torus", "hyperbolic_cylinder"):
        data = data_for(name, n=33)
        g = data.grid
        ncplx = data.n.astype(complex)
        dot = g._dot(ncplx, g.pos_z)
        scale = np.exp(data.lam)
        assert np.max(np.abs(dot) / scale) <= 1e-8
        nn = g._dot(data.n, data.n)
        assert np.max(np.abs(nn - 1.0)) <= 1e-10


def test_gauss_codazzi_residuals():
    assert G.interior_max(G.gauss_codazzi_residual(data_for("catenoid", n=128))) <= 1e-8
    assert G.interior_max(G.gauss_codazzi_residual(data_for("cylinder", n=128))) <= 1e-10
    assert G.interior_max(G.gauss_codazzi_residual(data_for("enneper", n=128))) <= 1e-8


def test_structure_residuals_examples():
    plane = data_for("plane", n=33)
    assert G.structure_residuals(plane) <= 1e-12
    cat = data_for("catenoid", n=128)
    assert G.structure_residuals(cat) <= 1e-7
    sph = data_for("sphere", n=128, R=1.0)
    assert G.structure_residuals(sph) <= 1e-8
    assert np.max(np.abs(sph.Omega)) <= 1e-12  # umbilic: the Omega term vanishes


def test_gauss_codazzi_fourth_order_convergence():
    def res(n):
        data = data_for("torus_revolution", n=n, R=np.sqrt(2.0), r=1.0)
        return G.interior_max(G.gauss_codazzi_residual(data))

    assert res(65) / res(129) >= 10.0


def test_umbilic_flags():
    assert data_for("sphere", n=17, R=1.0).has_umbilic()
    assert data_for("plane", n=17).has_umbilic()
    assert not data_for("catenoid", n=17).has_umbilic()


def test_tracefree_form_matches_omega():
    data = data_for("enneper", n=17)
    a11, a12 = data.tracefree_form()
    om = (a11 - 1j * a12) * data.e2lam
    assert np.max(np.abs(om - data.Omega)) <= 1e-12


def test_export_csv(tmp_path):
    data = data_for("plane", n=9)
    path = tmp_path / "fields.csv"
    G.export_csv(path, data.grid, {"H": data.H, "n": data.n, "Omega": data.Omega})
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,H,n1,n2,n3,Omega_re,Omega_im"
    assert len(lines) == 1 + 81


def _export_grid(nu=9, nv=13):
    # non-square with hu != hv, so a v-major writer differs; axis values
    # that need all 17 digits
    u = np.linspace(-1.0, 1.0, nu) / 3.0
    v = np.linspace(0.5, 5.0, nv) / 7.0
    return G.ChartGrid("r3", u, v, _plane_jet(u, v))


def _export_fields(shape):
    rng = np.random.default_rng(7)
    real = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    real.flat[:7] = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]
    vec = rng.normal(size=shape + (3,))
    vec[2, 3] = [np.nan, -0.0, -5e-324]
    cplx = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    cplx[4, 5] = complex(-0.0, np.inf)
    cplx[1, 2] = complex(1e300, np.nan)
    return {"H": real, "n": vec, "Omega": cplx}


def test_export_csv_matches_savetxt(tmp_path):
    g = _export_grid()
    assert g.hu != g.hv
    fields = _export_fields(g.shape)
    cases = [fields] + [{name: value} for name, value in fields.items()]
    for k, case in enumerate(cases):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        G.export_csv(got, g, case)
        savetxt_reference(want, g, case)
        assert got.read_bytes() == want.read_bytes(), list(case)
    # u-major: the second row is (u0, v1)
    row = (tmp_path / "got0.csv").read_text().splitlines()[2].split(",")
    assert (float(row[0]), float(row[1])) == (g.u[0], g.v[1])


def test_export_csv_rejects_mismatched_field(tmp_path):
    g = _export_grid()
    with pytest.raises(ValueError, match="field H has shape"):
        G.export_csv(tmp_path / "bad.csv", g, {"H": np.zeros((13, 9))})


def test_degenerate_jet_rejected():
    n = 9
    u = np.linspace(-1, 1, n)
    zero = np.zeros((n, n, 3))
    jet = Jet2(zero, zero, zero, zero, zero, zero)
    with pytest.raises(ValueError, match="immersion"):
        G.ChartGrid("r3", u, u, jet)


@pytest.mark.parametrize("model, scale", [("r3", 1e200), ("h3", 1e160)])
def test_overflowing_first_fundamental_form_rejected(model, scale):
    # finite 1-jets whose E, F, G overflow: E - G = inf - inf would be NaN,
    # which passes the immersion and conformality tests
    n = 9
    u = np.linspace(-1, 1, n)
    e = np.eye(4)[:, :3 if model == "r3" else 4]
    pos = np.broadcast_to(e[3] if model == "h3" else e[2], (n, n, len(e[0]))).copy()
    du, dv = (np.broadcast_to(scale * e[i], pos.shape) for i in (0, 1))
    zero = np.zeros(pos.shape)
    with pytest.raises(ValueError, match="first fundamental form overflows"):
        G.ChartGrid(model, u, u, Jet2(pos, du, dv, zero, zero, zero))


def test_degenerate_s3_normal_rejected():
    # p_u along the position vector: a conformal 1-jet, but p, p_u and p_v
    # span only a plane, so the cross product of S^3 vanishes
    n = 9
    u = np.linspace(-1, 1, n)
    e = np.eye(4)
    pos, du, dv = (np.broadcast_to(e[i], (n, n, 4)) for i in (0, 0, 1))
    zero = np.zeros((n, n, 4))
    grid = G.ChartGrid("s3", u, u, Jet2(pos, du, dv, zero, zero, zero))
    with pytest.raises(ValueError, match="degenerate jet: normal has no positive length"):
        G.chart_normal(grid)


def _plane_jet(u, v):
    uu, vv = np.meshgrid(u, v, indexing="ij")
    return make_surface("plane").jet_fn(uu, vv)


def test_linspace_axes_accepted():
    # a uniform axis far from the origin keeps a tiny relative spacing error
    u = np.linspace(1000.0, 1000.5, 33)
    v = np.linspace(-1.0, 1.0, 17)
    g = G.ChartGrid("r3", u, v, _plane_jet(u, v))
    assert g.shape == (33, 17)


@pytest.mark.parametrize("axis, match", [
    (np.linspace(-1.0, 1.0, 17)[::-1], "not strictly increasing"),
    (np.zeros(17), "not strictly increasing"),
    (np.r_[np.linspace(-1.0, 1.0, 17)[:8], np.linspace(-1.0, 1.0, 17)[8:] + 1e-3],
     "not uniformly spaced"),
    (np.linspace(-1.0, 1.0, 17) ** 3, "not uniformly spaced"),
    (np.r_[np.nan, np.linspace(-1.0, 1.0, 17)[1:]], "axis u has non-finite"),
    (np.r_[np.linspace(-1.0, 1.0, 17)[:-1], np.inf], "axis u has non-finite"),
])
def test_bad_axis_rejected(axis, match):
    v = np.linspace(-1.0, 1.0, 17)
    jet = _plane_jet(np.linspace(-1.0, 1.0, 17), v)
    with pytest.raises(ValueError, match=match):
        G.ChartGrid("r3", axis, v, jet)
    with pytest.raises(ValueError, match=match.replace("axis u", "axis v")):
        G.ChartGrid("r3", v, axis, jet)


@pytest.mark.parametrize("component", ["pos", "du", "duv", "dvv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_jet_rejected(component, bad):
    u = np.linspace(-1.0, 1.0, 17)
    jet = _plane_jet(u, u)
    getattr(jet, component)[5, 7, 1] = bad
    with pytest.raises(ValueError, match=f"non-finite values in {component}"):
        G.ChartGrid("r3", u, u, jet)


def test_dz_dzbar_commute_exactly():
    g = _plain_grid(33)
    rng = np.random.default_rng(3)
    f = rng.normal(size=(33, 33)) + 1j * rng.normal(size=(33, 33))
    comm = g.dz(g.dzbar(f)) - g.dzbar(g.dz(f))
    assert np.max(np.abs(comm)) <= 1e-12 * np.max(np.abs(f))


# representations whose chart lies in the Poincare ball at the catalog domain
_IN_BALL = ("enneper", "inverted_catenoid", "hyperbolic_cylinder")


def _oracle_grids():
    """Every catalog chart at N = 33, in its own model and re-expressed."""
    for name in CATALOG:
        data = data_for(name, n=33)
        targets = ("r3", "s3") + (("h3",) if name in _IN_BALL else ())
        for target in targets:
            yield f"{name}/{target}", representation(data, target).grid


def test_real_chart_data_matches_complex_jets():
    """fundamental_data and the conformality check equal the complex-jet
    formulas 2 <p_z, p_zbar> = e^{2 lam}, H = <p_zzbar, n> / <p_z, p_zbar>,
    Omega = 2 <p_zz, n>."""
    for label, g in _oracle_grids():
        data = G.fundamental_data(g)
        pz, pzb = g.pos_z, g.pos_zb
        dot_zzb = g._dot(pz, pzb).real
        n = data.n.astype(complex)
        h_ref = g._dot(g.pos_zzb.astype(complex), n).real / dot_zzb
        omega_ref = 2.0 * g._dot(g.pos_zz, n)
        for got, ref in ((np.exp(2.0 * data.lam), 2.0 * dot_zzb),
                         (data.H, h_ref), (data.Omega, omega_ref)):
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))), label
        # the immersion and conformality checks: (E + G) / 4 = <p_z, p_zbar>
        # and hypot(E - G, 2F) / 4 = |<p_z, p_z>|
        e, f, gg = (g._dot(a, b) for a, b in ((g.jet.du, g.jet.du),
                                               (g.jet.du, g.jet.dv),
                                               (g.jet.dv, g.jet.dv)))
        assert np.all(np.abs((e + gg) / 4.0 - dot_zzb) <= 1e-13 * dot_zzb), label
        defect = np.hypot(e - gg, 2.0 * f) / 4.0
        assert np.all(np.abs(defect - np.abs(g._dot(pz, pz))) <= 1e-13 * dot_zzb), label


@pytest.mark.parametrize("ratio, conformal", [(0.5, True), (1.5, False)])
@pytest.mark.parametrize("shear", [False, True])
def test_conformality_check_threshold(ratio, conformal, shear):
    """A plane chart stretched (E != G) or sheared (F != 0) along v to
    |<p_z,p_z>| / <p_z,p_zbar> of about ratio * CONF_TOL."""
    u = np.linspace(-1.0, 1.0, 17)
    jet = _plane_jet(u, u)
    tol = G.CONF_TOL
    s = ratio * tol
    jet.dv = jet.dv + s * jet.du if shear else jet.dv * (1.0 + s)
    pz = (jet.du - 1j * jet.dv) / 2.0
    defect = np.max(np.abs((pz * pz).sum(-1)) / (pz * np.conj(pz)).sum(-1).real)
    assert (defect <= tol) == conformal
    if conformal:
        G.ChartGrid("r3", u, u, jet)
    else:
        with pytest.raises(ValueError, match="not conformal"):
            G.ChartGrid("r3", u, u, jet)
