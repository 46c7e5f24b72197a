import tracemalloc

import numpy as np
import pytest

from confgauss import congruence as C
from confgauss import grid as G
from confgauss import jets as J
from confgauss import willmore as W
from confgauss.grid import ChartGrid, fundamental_data
from confgauss.jets import push_word
from confgauss.lorentz import Generator, generator_matrix, random_word, word_matrix
from confgauss.models import representation
from confgauss.zoo import make_surface, sample
from conftest import data_for


def test_willmore_operator_examples():
    plane = data_for("plane", n=33)
    assert G.interior_max(W.willmore_scalar(plane)) <= 1e-13
    cyl = data_for("cylinder", n=65, rho=1.0)
    assert G.interior_max(W.willmore_scalar(cyl) + 1.0 / 16.0) <= 1e-10
    torus = data_for("torus_revolution", n=128, R=np.sqrt(2.0), r=1.0)
    assert G.interior_max(W.willmore_scalar(torus)) <= 1e-5


def test_willmore_operator_real():
    data = data_for("enneper", n=33)
    g = data.grid
    h_zzb = g.dzbar(g.dz(data.H))
    assert np.max(np.abs(h_zzb.imag)) <= 1e-10


def test_gauge_identity():
    for name in ("cylinder", "catenoid", "inverted_catenoid"):
        data = data_for(name, n=128)
        w = W.willmore_scalar(data)
        w_s3 = W.willmore_scalar(representation(data, "s3"))
        r2 = (data.grid.pos ** 2).sum(axis=-1)
        assert G.interior_max(w_s3 - (r2 + 1.0) / 2.0 * w) <= 1e-6, name


def test_harmonicity_separation():
    willmore = G.interior_max(W.harmonicity_residual(
        C.conformal_gauss_map(data_for("inverted_catenoid", n=128))))
    control = G.interior_max(W.harmonicity_residual(
        C.conformal_gauss_map(data_for("cylinder", n=128))))
    assert willmore <= 1e-4
    assert control >= 1e-2


def test_conserved_matrix_antisymmetric():
    data = data_for("catenoid", n=33)
    mu_x, mu_y = W.conserved_matrix(C.conformal_gauss_map(data))
    assert np.max(np.abs(mu_x + np.swapaxes(mu_x, -1, -2))) <= 1e-12
    assert np.max(np.abs(mu_y + np.swapaxes(mu_y, -1, -2))) <= 1e-12
    assert np.max(np.abs(mu_x)) > 0.1  # catenoid: mu nonzero


def test_conserved_matrix_trivial_for_plane():
    data = data_for("plane", n=17)
    mu_x, mu_y = W.conserved_matrix(C.conformal_gauss_map(data))
    assert np.max(np.abs(mu_x)) <= 1e-12
    assert np.max(np.abs(mu_y)) <= 1e-12


def test_direct_currents_minimal_surfaces():
    for name in ("catenoid", "enneper"):
        cur = W.direct_currents(data_for(name, n=33))
        assert np.max(np.abs(cur.v_tra)) <= 1e-13, name
        assert np.max(np.abs(cur.v_dil)) <= 1e-13, name
    plane = W.direct_currents(data_for("plane", n=17))
    for field in (plane.v_tra, plane.v_dil, plane.v_rot, plane.v_inv):
        assert np.max(np.abs(field)) <= 1e-13
    inv_cat = W.direct_currents(data_for("inverted_catenoid", n=33))
    assert np.max(np.abs(inv_cat.v_tra)) > 1e-3


def test_dil_is_tra_dotted_with_position():
    data = data_for("inverted_catenoid", n=33)
    cur = W.direct_currents(data)
    manual = (cur.v_tra * data.grid.pos).sum(axis=-1)
    assert np.max(np.abs(manual - cur.v_dil)) <= 1e-14


def test_extract_from_mu_zero():
    zeros = np.zeros((2, 9, 9, 5, 5))
    ext = W.extract_from_mu((zeros[0], zeros[1]))
    assert np.max(np.abs(ext.v_tra)) == 0.0
    assert np.max(np.abs(ext.v_inv)) == 0.0


def test_block_extraction_matches_direct():
    for name, params in [("torus_revolution", {"R": np.sqrt(2.0), "r": 1.0}),
                         ("inverted_catenoid", {})]:
        data = data_for(name, n=128, **params)
        cong = C.conformal_gauss_map(data)
        ext = W.extract_from_mu(W.conserved_matrix(cong))
        cur = W.direct_currents(data)
        assert W._max_current_diff(ext.v_tra, cur.v_tra) <= 1e-5
        assert G.interior_max(np.moveaxis(ext.v_dil - cur.v_dil, 0, 2)) <= 1e-5
        assert W._max_current_diff(ext.v_rot_tilde, cur.v_rot_tilde) <= 1e-5
        assert W._max_current_diff(ext.v_inv, cur.v_inv) <= 1e-5


def test_rot_tilde_sign_resolution():
    # the explicit formula Phi x V_tra + 2 Atf grad(Phi) x n equals
    # V_rot + 2 perp(grad n): the '+' sign is the consistent one
    data = data_for("torus_revolution", n=128, R=np.sqrt(2.0), r=1.0)
    cur = W.direct_currents(data)
    g = data.grid
    n_x, n_y = g.d_u(data.n), g.d_v(data.n)
    perp_n = np.stack([-n_y, n_x])
    plus = W._max_current_diff(cur.v_rot_tilde, cur.v_rot + 2.0 * perp_n)
    minus = W._max_current_diff(cur.v_rot_tilde, cur.v_rot - 2.0 * perp_n)
    assert plus <= 1e-6
    assert minus > 1.0


def test_divergence_residuals():
    torus = data_for("torus_revolution", n=128, R=np.sqrt(2.0), r=1.0)
    cur = W.direct_currents(torus)
    assert W.divergence_residual(cur.v_tra, torus.grid) <= 1e-3
    cat = data_for("catenoid", n=65)
    assert W.divergence_residual(W.direct_currents(cat).v_tra, cat.grid) <= 1e-12
    cyl = data_for("cylinder", n=128)
    assert W.divergence_residual(W.direct_currents(cyl).v_tra, cyl.grid) >= 1e-2


def _translated_catenoid(n=128):
    grid = sample(make_surface("catenoid"), n, domain=((-0.5, 0.5), (-1.2, 1.2)))
    jet = push_word(grid.jet, [Generator("tra", (3.0, 0.0, 0.0))])
    return fundamental_data(ChartGrid("r3", grid.u, grid.v, jet))


def test_inversion_exchange_law():
    report = W.inversion_exchange_check(_translated_catenoid())
    assert report["tra_vs_inv"] <= 1e-4
    assert report["inv_vs_tra"] <= 1e-4
    assert report["dil_flip"] <= 1e-4
    assert report["rot_tilde_fixed"] <= 1e-4
    assert report["mu_transport"] <= 1e-5


def test_inversion_center_on_surface_rejected():
    plane = data_for("plane", n=17)  # passes through the origin
    with pytest.raises(ValueError, match="inversion center"):
        W.inversion_exchange_check(plane)


def test_mu_equivariance_random_words(rng):
    data = data_for("inverted_catenoid", n=65)
    mu = W.conserved_matrix(C.conformal_gauss_map(data))
    done, tries = 0, 0
    while done < 10 and tries < 100:
        tries += 1
        word = random_word(rng)
        try:
            moved = C.transform_immersion(data, word)
        except ValueError:
            continue
        done += 1
        m = word_matrix(word)
        mu2 = W.conserved_matrix(C.conformal_gauss_map(moved))
        err = max(
            G.interior_max(mu2[k] - np.einsum("ab,...bc,dc->...ad", m, mu[k], m))
            for k in range(2)
        )
        assert err <= 1e-5
        residuals = W.equivariance_residuals(
            C.conformal_gauss_map(data), C.conformal_gauss_map(moved), m)
        assert abs(residuals[1] - err) <= 1e-12
    assert done == 10


def test_mu_transport_under_inversion():
    data = _translated_catenoid(65)
    m = generator_matrix(Generator("inv"))
    mu = W.conserved_matrix(C.conformal_gauss_map(data))
    moved = C.transform_immersion(data, [Generator("inv")])
    mu2 = W.conserved_matrix(C.conformal_gauss_map(moved))
    err = max(
        G.interior_max(mu2[k] - np.einsum("ab,...bc,dc->...ad", m, mu[k], m))
        for k in range(2)
    )
    assert err <= 1e-5
    residuals = W.equivariance_residuals(
        C.conformal_gauss_map(data), C.conformal_gauss_map(moved), m)
    assert abs(residuals[1] - err) <= 1e-12


# one row of 300, three of 129 and seven of 65 nodes per block
FEW_NODES = 1024


def _whole_mu_transport(cong, moved, m):
    """The whole-grid mu residual: both directions of ``conserved_matrix``."""
    mu, mu_moved = W.conserved_matrix(cong), W.conserved_matrix(moved)
    return np.maximum(*(G.interior_max(mu_moved[k] - m @ mu[k] @ m.T) for k in range(2)))


@pytest.mark.parametrize("n", [65, 129, 300])
def test_blocked_residuals_are_the_whole_grid_formulas(monkeypatch, n):
    """Row blocks of a few rows give the whole-grid values to the bit."""
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_NODES)
    data = _translated_catenoid(n)
    word = [Generator("tra", (0.5, -0.25, 1.0)), Generator("inv"), Generator("dil", (0.3,))]
    m = word_matrix(word)
    cong = C.conformal_gauss_map(data)
    moved = C.conformal_gauss_map(C.transform_immersion(data, word))
    y_err, mu_err = W.equivariance_residuals(cong, moved, m)
    assert y_err == float(np.max(np.abs(moved.Y - cong.Y @ m.T)))
    assert mu_err == _whole_mu_transport(cong, moved, m)

    ext = W.extract_from_mu(W.conserved_matrix(cong))
    cur = W.direct_currents(data)
    worst = max(W._max_current_diff(getattr(ext, name), getattr(cur, name))
                for name in ("v_tra", "v_dil", "v_rot_tilde", "v_inv"))
    div_tra = W.divergence_residual(cur.v_tra, data.grid)
    assert W.conserved_residuals(data, cong) == {"div_tra": div_tra, "block_vs_direct": worst}
    assert W.conserved_residuals(data) == {"div_tra": div_tra}

    inv = [Generator("inv")]
    cur_inv = W.direct_currents(C.transform_immersion(data, inv))
    assert W.inversion_exchange_check(data) == {
        "tra_vs_inv": W._max_current_diff(cur_inv.v_tra, cur.v_inv),
        "inv_vs_tra": W._max_current_diff(cur_inv.v_inv, cur.v_tra),
        "dil_flip": W._max_current_diff(cur_inv.v_dil, -cur.v_dil),
        "rot_tilde_fixed": W._max_current_diff(cur_inv.v_rot_tilde, cur.v_rot_tilde),
        "mu_transport": _whole_mu_transport(
            cong, C.conformal_gauss_map(C.transform_immersion(data, inv)),
            word_matrix(inv)),
    }


def test_row_windows_are_the_whole_grid_rows():
    """``direct_currents``, and ``conserved_matrix`` and Y's derivatives on
    a ``row_block``, are the whole grid's rows, at either edge and inside."""
    data = _translated_catenoid(65)
    cong = C.conformal_gauss_map(data)
    cur, mu = W.direct_currents(data), W.conserved_matrix(cong)
    for rows in (slice(0, 1), slice(0, 9), slice(30, 33), slice(58, 65), slice(64, 65)):
        part = W.direct_currents(data, rows)
        for name in ("v_tra", "v_dil", "v_rot", "v_rot_tilde", "v_inv"):
            np.testing.assert_array_equal(getattr(part, name), getattr(cur, name)[:, rows])
        for k, mu_k in enumerate(W.conserved_matrix(cong.row_block(rows))):
            np.testing.assert_array_equal(mu_k, mu[k][rows])
        block = cong.row_block(rows)
        for whole, own in ((cong.Yzz, block.Yzz), (cong.Yzzb, block.Yzzb), (cong.e2L, block.e2L)):
            np.testing.assert_array_equal(own, whole[rows])


@pytest.mark.parametrize("row", [2, 40, 62])
def test_a_nan_in_a_later_block_is_kept(monkeypatch, row):
    """A NaN in Y or in the currents of any block, the first and last
    interior rows included, is a NaN residual, as the whole grid's
    ``np.max`` gives; Python's ``max``, which keeps the maximum so far
    against a NaN, would drop it."""
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_NODES)  # blocks of 7 rows
    data = fundamental_data(_translated_catenoid(65).grid)  # fields of its own
    data.H[row, 30] = np.nan
    cong = C.conformal_gauss_map(_translated_catenoid(65))
    moved = C.CongruenceGrid(cong.grid, cong.Y.copy())
    moved.Y[row, 30] = np.nan
    assert np.isnan(W.equivariance_residuals(cong, moved, np.eye(5))[1])
    assert np.isnan(_whole_mu_transport(cong, moved, np.eye(5)))
    res = W.conserved_residuals(data, cong)
    assert np.isnan(res["div_tra"]) and np.isnan(res["block_vs_direct"])
    assert all(np.isnan(v) for v in W.inversion_exchange_check(data).values())


def test_equivariance_residuals_peak_memory():
    """tracemalloc peak of ``equivariance_residuals`` at N = 257 above its
    two congruences, per node: one row block and one direction of mu at a
    time, and the whole-grid Y residual (measured 116 B/node; 1362 with
    whole-grid mu)."""
    n = 257
    data = fundamental_data(sample(make_surface("cylinder"), n))
    word = [Generator("tra", (4.0, 0.0, 0.0)), Generator("inv"), Generator("dil", (0.3,))]
    cong = C.conformal_gauss_map(data)
    moved = C.conformal_gauss_map(C.transform_immersion(data, word))
    m = word_matrix(word)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        W.equivariance_residuals(cong, moved, m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / n ** 2 <= 160
