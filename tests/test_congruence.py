import numpy as np
import pytest

from confgauss import congruence as C
from confgauss import grid as G
from confgauss import models
from confgauss import willmore as W
from confgauss.lorentz import dehomogenize, dot, lift, lorentz_product, random_word, word_matrix
from confgauss.zoo import CATALOG
from conftest import data_for


def _cong(name, n=65, **params):
    data = data_for(name, n=n, **params)
    return data, C.conformal_gauss_map(data)


def test_plane_congruence_constant():
    data, cong = _cong("plane", n=17)
    assert np.max(np.abs(cong.Y - np.array([0, 0, 1, 0, 0.0]))) <= 1e-14


def test_cylinder_mean_curvature_readout():
    data, cong = _cong("cylinder", rho=1.0)
    assert np.max(np.abs(cong.Y[..., 4] - cong.Y[..., 3] + 0.5)) <= 1e-14
    assert cong.norm_defect() <= 1e-10


def test_clifford_readout():
    data, cong = _cong("clifford_torus")
    assert np.max(np.abs(cong.Y[..., 4])) <= 1e-13
    assert cong.norm_defect() <= 1e-10


def test_h3_readout():
    data, cong = _cong("hyperbolic_cylinder", d=0.5)
    # H^Z = -Y_4
    assert np.max(np.abs(data.H + cong.Y[..., 3])) <= 1e-12


def test_envelope_residuals_zoo():
    for name in ("cylinder", "catenoid", "enneper", "clifford_torus",
                 "hyperbolic_cylinder", "torus_revolution"):
        data, cong = _cong(name)
        r1, r2 = C.envelope_residuals(cong, lift(data.grid.pos, data.model))
        assert r1 <= 1e-9, name
        assert r2 <= 1e-7, name


def test_envelope_espects_wrong_congruence():
    data, cong = _cong("plane", n=17)
    vs_field = np.broadcast_to([0.0, 0.0, 0.0, 1.0, 0.0], cong.Y.shape)
    bad = C.CongruenceGrid(data.grid, np.array(vs_field))
    r1, _ = C.envelope_residuals(bad, lift(data.grid.pos, "r3"))
    r2 = (data.grid.pos ** 2).sum(axis=-1)
    expected = np.max(np.abs((r2 - 1.0) / 2.0)[2:-2, 2:-2])
    assert r1 == pytest.approx(expected, rel=1e-12)


def test_envelope_sign_flip_invariant():
    data, cong = _cong("catenoid", n=33)
    p = lift(data.grid.pos, "r3")
    flipped = C.CongruenceGrid(data.grid, -cong.Y)
    assert C.envelope_residuals(cong, p) == C.envelope_residuals(flipped, p)


def test_metric_law():
    data, cong = _cong("catenoid", n=128)
    assert C.metric_law_residual(cong, data) <= 1e-6
    data, cong = _cong("cylinder", n=128)
    assert C.metric_law_residual(cong, data) <= 1e-7


def test_sphere_congruence_degenerate():
    data, cong = _cong("sphere", n=33, R=1.0)
    # umbilic: Y is constant, so e^{2L} vanishes
    assert np.max(cong.e2L[2:-2, 2:-2]) <= 1e-10
    spread = np.max(np.abs(cong.Y - cong.Y[16, 16]))
    assert spread <= 1e-12


def test_dual_cylinder_coaxial():
    data, _ = _cong("cylinder", n=65, rho=1.0)
    dual = C.dual_surface_r3(data)
    rad = np.sqrt(dual[..., 0] ** 2 + dual[..., 1] ** 2)
    assert np.max(np.abs(rad - 3.0)) <= 1e-8
    assert np.max(np.abs(dual[..., 2] - data.grid.pos[..., 2])) <= 1e-8


def test_dual_catenoid_undefined():
    data, _ = _cong("catenoid", n=33)
    with pytest.raises(ValueError, match="dual undefined"):
        C.dual_surface_r3(data)


def test_dual_inverted_catenoid_enveloped():
    data, cong = _cong("inverted_catenoid", n=128)
    dual = C.dual_surface_r3(data)
    r1, r2 = C.envelope_residuals(cong, lift(dual, "r3"))
    assert r1 <= 1e-6
    assert r2 <= 1e-6


def test_dual_clifford_antipodal():
    data, _ = _cong("clifford_torus", n=65)
    dual = C.dual_surface_s3(data)
    assert np.max(np.abs(dual + data.grid.pos)) <= 1e-8
    assert np.max(np.abs((dual ** 2).sum(axis=-1) - 1.0)) <= 1e-9


def test_dual_willmore_torus_conformal():
    data = models.representation(
        data_for("torus_revolution", n=128, R=np.sqrt(2.0), r=1.0), "s3")
    dual = C.dual_surface_s3(data)
    g = data.grid
    dual_z = np.stack([g.dz(dual[..., k]) for k in range(4)], axis=-1)
    assert G.interior_max((dual_z * dual_z).sum(axis=-1)) <= 1e-6


def test_dual_conformality_defect_prediction():
    # non-Willmore control: the defect follows the closed-form prediction
    from confgauss.willmore import willmore_scalar

    data = models.representation(data_for("cylinder", n=128, rho=1.0), "s3")
    dual = C.dual_surface_s3(data)
    g = data.grid
    dual_z = np.stack([g.dz(dual[..., k]) for k in range(4)], axis=-1)
    defect = (dual_z * dual_z).sum(axis=-1)

    hz = g.dz(data.H)
    om = data.Omega
    om2 = np.abs(om) ** 2
    e2lam = data.e2lam
    t_x = om2 * (1.0 + data.H ** 2) + 4.0 * np.abs(hz) ** 2 * e2lam
    w = willmore_scalar(data)
    ratio_zb = g.dzbar(g.dz(om) / om)
    # defect = l^2 H_nu* Omega_nu*; the constant is 16 omega |omega|^2/T^2
    predicted = (16.0 * om * om2 / t_x ** 2) * w * (ratio_zb + (data.H ** 2 + 1.0) / 4.0 * e2lam)
    assert G.interior_max(defect - predicted) <= 1e-5


def test_isotropic_frame_invariants():
    data = data_for("clifford_torus", n=65)
    cong = C.conformal_gauss_map(data)
    fr = C.isotropic_frame(data, cong)
    assert np.max(np.abs(lorentz_product(fr.nu, fr.nustar) + 1.0)) <= 1e-8
    assert np.max(np.abs(lorentz_product(fr.nu, fr.nu))) <= 1e-10
    assert np.max(np.abs(lorentz_product(fr.nustar, fr.nustar))) <= 1e-10
    assert G.interior_max(fr.H_nu) <= 1e-5
    assert G.interior_max(fr.H_nustar) <= 1e-5  # Willmore: W_s3 = 0
    assert G.interior_max(fr.Omega_nu - data.Omega) <= 1e-5


def test_frame_directional_curvatures_formulas():
    from confgauss.willmore import willmore_scalar

    data = models.representation(data_for("cylinder", n=128, rho=1.0), "s3")
    cong = C.conformal_gauss_map(data)
    fr = C.isotropic_frame(data, cong)
    w = willmore_scalar(data)
    e2l = np.abs(data.Omega) ** 2 * np.exp(-2.0 * data.lam)
    assert G.interior_max(fr.H_nustar + 2.0 * w / e2l) <= 1e-5
    om_nustar_expected = -2.0 * data.Omega / data.e2lam * (
        data.grid.dzbar(data.grid.dz(data.Omega) / data.Omega)
        + (data.H ** 2 + 1.0) / 4.0 * data.e2lam
    )
    assert G.interior_max(fr.Omega_nustar - om_nustar_expected) <= 1e-5


def test_frame_nuz_nustar_identity():
    # <nu_z, nu*> = -conj(omega)_z / conj(omega) on a transferred catenoid
    data = models.representation(data_for("catenoid", n=128), "s3")
    cong = C.conformal_gauss_map(data)
    fr = C.isotropic_frame(data, cong)
    g = data.grid
    nu_z = np.stack([g.dz(fr.nu[..., k]) for k in range(5)], axis=-1)
    lhs = lorentz_product(nu_z, fr.nustar.astype(complex))
    omb = np.conj(data.Omega)
    rhs = -g.dz(omb) / omb
    assert G.interior_max(lhs - rhs) <= 1e-5


def _enveloped_point(cong, nu0, tol=1e-6):
    """The S^3 point of an isotropic normal nu0 of Y that the congruence
    envelopes (Bryant duality): nu0 is null, normal to Y and Y_z, and has
    H_nu0 = 0, each within ``tol`` relative to nu0's size."""
    scale = float(np.max(np.abs(nu0)))
    assert G.interior_max(lorentz_product(nu0, nu0)) <= tol * scale ** 2
    h_nu0 = 2.0 * lorentz_product(cong.Yzzb, nu0) / cong.e2L
    for residual in (lorentz_product(cong.Y, nu0), lorentz_product(cong.Yz, nu0), h_nu0):
        assert G.interior_max(residual) <= tol * scale
    num, den = dehomogenize(nu0, "s3")
    return num / den[..., None]


def test_reconstruct_round_trip():
    data = data_for("clifford_torus", n=65)
    cong = C.conformal_gauss_map(data)
    out = _enveloped_point(cong, lift(data.grid.pos, "s3"))
    assert np.max(np.abs(out - data.grid.pos)) <= 1e-8


def test_reconstruct_second_null_direction():
    # for a minimal Y both null directions envelope; l nu* recovers X*
    data = models.representation(
        data_for("torus_revolution", n=128, R=np.sqrt(2.0), r=1.0), "s3")
    cong = C.conformal_gauss_map(data)
    fr = C.isotropic_frame(data, cong)
    xstar = C.dual_surface_s3(data)
    out = _enveloped_point(cong, -fr.l[..., None] * fr.nustar)  # = p(X*)
    assert np.max(np.abs(out - xstar)) <= 1e-8


def test_uniqueness_perturbation():
    # adding lambda p(Phi) keeps the envelope but destroys conformality
    data = data_for("catenoid", n=65)
    cong = C.conformal_gauss_map(data)
    p = lift(data.grid.pos, "r3")
    conf_before = G.interior_max(lorentz_product(cong.Yz, cong.Yz))
    perturbed = C.CongruenceGrid(data.grid, cong.Y + 0.1 * p)
    conf_after = G.interior_max(lorentz_product(perturbed.Yz, perturbed.Yz))
    assert conf_after >= 1e3 * conf_before
    r1, r2 = C.envelope_residuals(perturbed, p)
    assert r1 <= 1e-6 and r2 <= 1e-6


@pytest.mark.parametrize("source", ["catenoid", "hyperbolic_cylinder_r3"])
def test_moebius_equivariance(rng, source):
    data = (data_for("catenoid", n=65) if source == "catenoid" else
            models.representation(data_for("hyperbolic_cylinder", n=65), "r3"))
    # the second source's normal is opposite to its R^3 chart normal, so
    # every transformed chart's normal must be flipped
    assert data.orientation == (1 if source == "catenoid" else -1)
    cong = C.conformal_gauss_map(data)
    done, tries = 0, 0
    while done < 20 and tries < 200:
        tries += 1
        word = random_word(rng)
        try:
            moved = C.transform_immersion(data, word)
        except ValueError:
            continue
        done += 1
        m = word_matrix(word)
        cong2 = C.conformal_gauss_map(moved)
        assert np.max(np.abs(cong2.Y - cong.Y @ m.T)) <= 1e-6
    assert done == 20


def test_representation_agreement():
    data = data_for("cylinder", n=65, rho=0.4,
                    domain=((-0.4, 0.4), (-0.9, 0.9)))
    y_r3 = C.conformal_gauss_map(data).Y
    y_s3 = C.conformal_gauss_map(models.representation(data, "s3")).Y
    y_h3 = C.conformal_gauss_map(models.representation(data, "h3")).Y
    assert np.max(np.abs(y_r3 - y_s3)) <= 1e-8
    assert np.max(np.abs(y_r3 - y_h3)) <= 1e-8


def test_dual_branch_mask_clean_on_zoo():
    data = models.representation(
        data_for("torus_revolution", n=65, R=np.sqrt(2.0), r=1.0), "s3")
    dual_z = data.grid.dz(C.dual_surface_s3(data))
    # a branch point of the dual is a node where |X*_z|^2 nearly vanishes
    speed2 = dot(dual_z, np.conj(dual_z)).real
    mask = speed2 <= 1e-6 * float(np.max(speed2))
    assert not mask[2:-2, 2:-2].any()


def _non_umbilic_congruences(n=33):
    """Gauss maps of every non-umbilic catalog chart, built in R^3 and in S^3."""
    for name in CATALOG:
        data = data_for(name, n=n)
        if data.has_umbilic():
            continue
        for target in ("r3", "s3"):
            rep = models.representation(data, target)
            yield f"{name}/{target}", C.conformal_gauss_map(rep)


def test_real_second_derivatives_match_the_complex_chain():
    """Y_zz and the real Y_zzbar equal dz(dz Y) and dzbar(dz Y).

    The complex chain averages d_u d_v Y and d_v d_u Y, which agree up to
    rounding; the one-sided stencils of the boundary band round more.
    """
    eps = np.finfo(float).eps
    for label, cong in _non_umbilic_congruences():
        g = cong.grid
        assert cong.Yzzb.dtype == np.float64, label
        rounding = 1e3 * eps * np.max(np.abs(cong.Y)) / (g.hu * g.hv)
        yz = g.dz(cong.Y)
        for new, old in ((cong.Yzz, g.dz(yz)), (cong.Yzzb, g.dzbar(yz))):
            assert G.interior_max(new - old) <= 1e-12 * np.max(np.abs(old)), label
            assert np.max(np.abs(new - old)) <= rounding, label


def test_harmonicity_residual_is_the_complex_formula():
    for label, cong in _non_umbilic_congruences():
        g = cong.grid
        yz = g.dz(cong.Y)
        old = 4.0 * (g.dzbar(yz) + lorentz_product(yz, np.conj(yz))[..., None] * cong.Y)
        old_norm = np.sqrt(dot(old.real, old.real) + dot(old.imag, old.imag))
        # relative to Delta Y, the size of the two terms that cancel
        scale = np.max(np.abs(4.0 * cong.Yzzb))
        diff = W.harmonicity_residual(cong) - old_norm
        assert np.max(np.abs(diff)) <= 1e-12 * scale, label
