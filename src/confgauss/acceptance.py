"""Acceptance suite: the verification criteria as machine-checkable runs.

Each criterion samples the relevant catalog surfaces, evaluates the stated
residuals at their stated tolerances and returns a ``CriterionResult``.
``run_all`` drives the full suite; the command line exposes it as
``check-invariants``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import congruence as cg
from . import willmore as wl
from .classify import (
    bryant_q,
    bryant_q_r3,
    classify,
    classify_data,
    holomorphy_identity_residual,
)
from .grid import (
    fundamental_data,
    gauss_codazzi_residual,
    interior_max,
    structure_residuals,
)
from .lorentz import Generator, dot, lift, random_word, word_matrix
from .models import representation, transfer_r3_to_s3
from .zoo import make_surface, sample

WILLMORE_SET = [
    ("catenoid", {}),
    ("enneper", {}),
    ("torus_revolution", {"R": np.sqrt(2.0), "r": 1.0}),
    ("inverted_catenoid", {}),
    ("clifford_torus", {}),
]
NON_WILLMORE_SET = [
    ("cylinder", {}),
    ("torus_revolution", {"R": 3.0, "r": 1.0}),
    ("hyperbolic_cylinder", {}),
    ("revolution_profile", {}),
]
ALL_SURFACES = [
    ("plane", {}),
    ("sphere", {"R": 1.0}),
    ("cylinder", {}),
    ("catenoid", {}),
    ("enneper", {}),
    ("inverted_catenoid", {}),
    ("torus_revolution", {"R": np.sqrt(2.0), "r": 1.0}),
    ("torus_revolution", {"R": 3.0, "r": 1.0}),
    ("clifford_torus", {}),
    ("hyperbolic_cylinder", {}),
    ("revolution_profile", {}),
]
SPHERE_LAW_MAX_GRID = 64
EQUIVARIANCE_GRID = 65  # the catenoid that criterion 4's random words move
EQUIVARIANCE_WORDS = 20
CONVERGENCE_GRIDS = (65, 129)  # criterion 11: a grid and its half step


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}"


def _criterion(title: str):
    """Report a criterion under ``title`` whether it passes, fails or raises.

    The decorated function returns ``(passed, details)``; the wrapper makes
    the ``CriterionResult`` and carries ``title`` for ``run_all``'s error
    path.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> CriterionResult:
            passed, details = fn(*args, **kwargs)
            return CriterionResult(title, passed, details)

        run.title = title
        return run

    return decorate


def _key(name, params) -> str:
    """Details key of a catalog surface: its name, then any parameters."""
    return name if not params else f"{name}{tuple(map(float, params.values()))}"


def _data(name, params, n, domain=None):
    spec = make_surface(name, **params)
    grid = sample(spec, n, domain=domain)
    return fundamental_data(grid)


@_criterion("structure-equation suite")
def criterion_structure_equations(n: int = 128):
    """1. Gauss-Codazzi and structure identities on the whole zoo."""
    details = {}
    passed = True
    for name, params in ALL_SURFACES:
        tol = 1e-6 if name == "revolution_profile" else 1e-7
        data = _data(name, params, n)
        sr = structure_residuals(data)
        gc = interior_max(gauss_codazzi_residual(data))
        worst = max(sr, gc)
        details[_key(name, params)] = {"structure": sr, "gauss_codazzi": gc, "tol": tol}
        passed &= worst <= tol
    return passed, details


@_criterion("geodesic sphere law")
def criterion_sphere_law(n: int = 128):
    """2. Geodesic spheres: h = (1-R^2)/(2R) within 1e-8."""
    details = {}
    passed = True
    for radius in (0.3, 0.5, 0.9):
        data = _data("sphere", {"R": radius}, min(n, SPHERE_LAW_MAX_GRID))
        ts = transfer_r3_to_s3(data.lam, data.n, data.H, data.Omega, data.grid.pos)
        expected = (1.0 - radius ** 2) / (2.0 * radius)
        err = float(np.max(np.abs(ts.H - expected)))
        details[f"R={radius}"] = err
        passed &= err <= 1e-8
    return passed, details


@_criterion("conformal Gauss map suite")
def criterion_gauss_map(n: int = 128):
    """3. <Y,Y>=1, envelope, metric law, three-representation agreement."""
    details = {}
    passed = True
    for name, params in ALL_SURFACES:
        if name in ("plane", "sphere"):
            continue  # umbilic charts: congruence constant
        data = _data(name, params, n)
        cong = cg.conformal_gauss_map(data)
        e1, e2 = cg.envelope_residuals(cong, lift(data.grid.pos, data.model))
        entry = {
            "norm": cong.norm_defect(),
            "envelope": max(e1, e2),
            "metric_law": cg.metric_law_residual(cong, data),
        }
        details[_key(name, params)] = entry
        passed &= entry["norm"] <= 1e-10
        passed &= entry["envelope"] <= 1e-6
        passed &= entry["metric_law"] <= 1e-6
    # three-representation agreement on ball-contained charts
    for name, params, domain in [
        ("cylinder", {"rho": 0.4}, ((-0.4, 0.4), (-0.9, 0.9))),
        ("hyperbolic_cylinder", {"d": 0.5}, None),
    ]:
        data = representation(_data(name, params, n, domain=domain), "r3")
        y_r3 = cg.conformal_gauss_map(data).Y
        y_s3 = cg.conformal_gauss_map(representation(data, "s3")).Y
        y_h3 = cg.conformal_gauss_map(representation(data, "h3")).Y
        agree = max(float(np.max(np.abs(y_r3 - y_s3))),
                    float(np.max(np.abs(y_r3 - y_h3))))
        details[f"three-rep {name}"] = agree
        passed &= agree <= 1e-8
    return passed, details


@_criterion("Moebius equivariance")
def criterion_moebius_equivariance(n: int = 128):
    """4. Y_phi = M Y, mu_phi = M mu M^T, verdict invariance at n nodes."""
    rng = np.random.default_rng(2024)
    data = _data("catenoid", {}, EQUIVARIANCE_GRID)
    cong = cg.conformal_gauss_map(data)
    details = {"worst_y": 0.0, "worst_mu": 0.0, "verdict_mismatches": 0}
    passed = True
    applied = []
    tries = 0
    while len(applied) < EQUIVARIANCE_WORDS and tries < 20 * EQUIVARIANCE_WORDS:
        tries += 1
        word = random_word(rng)
        try:
            data2 = cg.transform_immersion(data, word)
        except ValueError:
            continue
        applied.append(word)
        y_err, mu_err = wl.equivariance_residuals(
            cong, cg.conformal_gauss_map(data2), word_matrix(word))
        details["worst_y"] = max(details["worst_y"], y_err)
        details["worst_mu"] = max(details["worst_mu"], mu_err)
    passed &= details["worst_y"] <= 1e-5 and details["worst_mu"] <= 1e-5
    passed &= len(applied) == EQUIVARIANCE_WORDS

    for base_name in ("cylinder", "clifford_torus"):
        base_data = _data(base_name, {}, n)
        base = classify_data(base_data, base_name)
        base_r3 = representation(base_data, "r3")  # once, not once per word
        for word in applied:
            try:
                moved = cg.transform_immersion(base_r3, word)
                rep = classify_data(moved, base_name)
            except ValueError:
                details["verdict_mismatches"] += 1
                continue
            if (rep.kappa != base.kappa
                    or rep.hyperplane.vtype != base.hyperplane.vtype):
                details["verdict_mismatches"] += 1
    passed &= details["verdict_mismatches"] == 0
    return passed, details


@_criterion("Willmore vs minimal-Y separation")
def criterion_willmore_separation(n: int = 128):
    """5. Harmonicity residual small iff the surface is Willmore."""
    details = {}
    passed = True
    for surfaces, willmore in ((WILLMORE_SET, True), (NON_WILLMORE_SET, False)):
        for name, params in surfaces:
            data = _data(name, params, n)
            res = interior_max(wl.harmonicity_residual(cg.conformal_gauss_map(data)))
            details[_key(name, params)] = res
            passed &= res <= 1e-4 if willmore else res >= 1e-2
    return passed, details


@_criterion("conserved-quantity block theorem")
def criterion_conserved_blocks(n: int = 128):
    """6. mu-block extraction matches direct currents; divergences."""
    details = {}
    passed = True
    for name, params in WILLMORE_SET:
        data = representation(_data(name, params, n), "r3")
        cong = cg.conformal_gauss_map(data)
        ext = wl.extract_from_mu(wl.conserved_matrix(cong))
        cur = wl.direct_currents(data)
        worst = max(
            wl._max_current_diff(ext.v_tra, cur.v_tra),
            wl._max_current_diff(ext.v_dil, cur.v_dil),
            wl._max_current_diff(ext.v_rot_tilde, cur.v_rot_tilde),
            wl._max_current_diff(ext.v_inv, cur.v_inv),
        )
        div_tra = wl.divergence_residual(cur.v_tra, data.grid)
        details[_key(name, params)] = {"block_vs_direct": worst, "div_tra": div_tra}
        passed &= worst <= 1e-5 and div_tra <= 1e-3
    off = _data("cylinder", {}, n)
    div_off = wl.divergence_residual(wl.direct_currents(off).v_tra, off.grid)
    details["cylinder_off_shell_div"] = div_off
    passed &= div_off >= 1e-2
    return passed, details


@_criterion("inversion exchange law")
def criterion_inversion_exchange(n: int = 128):
    """7. V_tra <-> V_inv, V_dil -> -V_dil, V~_rot fixed under inversion."""
    data = _data("catenoid", {}, n, domain=((-0.5, 0.5), (-1.2, 1.2)))
    moved = cg.transform_immersion(data, [Generator("tra", (3.0, 0.0, 0.0))])
    report = wl.inversion_exchange_check(moved)
    worst = max(report[k] for k in
                ("tra_vs_inv", "inv_vs_tra", "dil_flip", "rot_tilde_fixed"))
    passed = worst <= 1e-4 and report["mu_transport"] <= 1e-5
    return passed, report


@_criterion("classification matrix")
def criterion_classification(n: int = 128):
    """8. The classification matrix over the zoo, against each expected table."""
    cases = [("cylinder", {}), ("catenoid", {}), ("clifford_torus", {}),
             ("torus_revolution", {"R": 3.0, "r": 1.0}),
             ("hyperbolic_cylinder", {"d": 0.5}), ("revolution_profile", {})]
    details = {}
    passed = True
    for name, params in cases:
        spec = make_surface(name, **params)
        rep, want = classify(spec, n=n), spec.expected
        if want.get("not_cmc"):
            ok = rep.verdict == "not conformally CMC" and rep.q_holomorphy >= 1e-2
            row = {"verdict": rep.verdict, "q_holomorphy": rep.q_holomorphy}
        else:
            hp = rep.hyperplane
            ok = (rep.kappa == want["kappa"] and hp.vtype == want["normal_type"]
                  and hp.linear == want["linear"] and hp.rms <= 1e-6)
            row = {"kappa": rep.kappa, "type": hp.vtype, "linear": hp.linear,
                   "rms": hp.rms, "verdict": rep.verdict}
        details[_key(name, params)] = {**row, "ok": ok}
        passed &= ok
    return passed, details


@_criterion("Bryant functional consistency")
def criterion_q_consistency(n: int = 128):
    """9. Direct vs closed-form Q; quantitative holomorphy identity."""
    details = {}
    identities = {}
    passed = True
    for name, params in [("cylinder", {}), ("catenoid", {}),
                         ("torus_revolution", {"R": np.sqrt(2.0), "r": 1.0}),
                         ("inverted_catenoid", {}), ("clifford_torus", {}),
                         ("hyperbolic_cylinder", {})]:
        data = _data(name, params, n)
        data_s3 = representation(data, "s3")
        cong = cg.conformal_gauss_map(data_s3)
        qres = bryant_q(data_s3, cong)
        entry = {"qx_vs_direct": qres.agreement}
        if data.model == "r3":
            q_phi = bryant_q_r3(data)
            entry["qphi_vs_direct"] = interior_max(q_phi - qres.q_direct)
        details[_key(name, params)] = entry
        passed &= all(v <= 1e-5 for v in entry.values())
        if name in ("cylinder", "torus_revolution"):  # the sqrt2 torus
            ident = holomorphy_identity_residual(data_s3, qres.q)
            identities[f"holomorphy identity {name}"] = ident
            passed &= ident <= 1e-4
    details.update(identities)
    return passed, details


@_criterion("dual surfaces")
def criterion_duals(n: int = 128):
    """10. Dual surfaces: cylinder, clifford, sqrt2-torus, catenoid error."""
    details = {}
    passed = True

    data = _data("cylinder", {}, n)
    dual = cg.dual_surface_r3(data)
    rad = np.sqrt(dual[..., 0] ** 2 + dual[..., 1] ** 2)
    err = max(float(np.max(np.abs(rad - 3.0))),
              float(np.max(np.abs(dual[..., 2] - data.grid.pos[..., 2]))))
    details["cylinder_dual_radius"] = err
    passed &= err <= 1e-8

    data = _data("clifford_torus", {}, n)
    dual = cg.dual_surface_s3(data)
    err = float(np.max(np.abs(dual + data.grid.pos)))
    details["clifford_dual_antipodal"] = err
    passed &= err <= 1e-8

    data = _data("torus_revolution", {"R": np.sqrt(2.0), "r": 1.0}, n)
    data_s3 = representation(data, "s3")
    dual = cg.dual_surface_s3(data_s3)
    g = data_s3.grid
    dual_z = g.dz(dual)
    defect = interior_max(dot(dual_z, dual_z))
    details["sqrt2_torus_dual_conformality"] = defect
    passed &= defect <= 1e-6

    try:
        cg.dual_surface_r3(_data("catenoid", {}, n))
        details["catenoid_dual_error_path"] = "no error raised"
        passed = False
    except ValueError as exc:
        details["catenoid_dual_error_path"] = str(exc)
    return passed, details


@_criterion("stencil convergence")
def criterion_convergence():
    """11. Halving the step cuts stencil residuals by >= 10x."""
    details = {}
    passed = True
    n_coarse, n_fine = CONVERGENCE_GRIDS

    def ratio(fn):
        return fn(n_coarse) / max(fn(n_fine), 1e-300)

    def structure_catenoid(n):
        data = _data("catenoid", {}, n)
        return structure_residuals(data)

    def metric_catenoid(n):
        data = _data("catenoid", {}, n)
        return cg.metric_law_residual(cg.conformal_gauss_map(data), data)

    # depth-2 quantities: measured on the band-4 interior, clear of the
    # stencil-switch rows which converge one order lower
    def harmonicity_torus(n):
        data = _data("torus_revolution", {"R": np.sqrt(2.0), "r": 1.0}, n)
        return interior_max(
            wl.harmonicity_residual(cg.conformal_gauss_map(data)), band=4
        )

    def q_agreement_inverted(n):
        data_s3 = representation(_data("inverted_catenoid", {}, n), "s3")
        cong = cg.conformal_gauss_map(data_s3)
        qres = bryant_q(data_s3, cong)
        return interior_max(qres.q - qres.q_direct, band=4)

    for label, fn in [("structure(catenoid)", structure_catenoid),
                      ("metric_law(catenoid)", metric_catenoid),
                      ("harmonicity(sqrt2 torus)", harmonicity_torus),
                      ("q_agreement(inverted_catenoid)", q_agreement_inverted)]:
        r = ratio(fn)
        details[label] = r
        passed &= r >= 10.0
    return passed, details


CRITERIA = [
    criterion_structure_equations,
    criterion_sphere_law,
    criterion_gauss_map,
    criterion_moebius_equivariance,
    criterion_willmore_separation,
    criterion_conserved_blocks,
    criterion_inversion_exchange,
    criterion_classification,
    criterion_q_consistency,
    criterion_duals,
    criterion_convergence,
]


def run_all(n: int = 128, echo: bool = False) -> list:
    """Run every acceptance criterion; optionally print one line each.

    A criterion that cannot even be evaluated at the requested resolution
    (e.g. grids too small for the stencils) is reported as failed, under
    its own name and with the error in its details, rather than aborting
    the suite.
    """
    results = []
    for idx, crit in enumerate(CRITERIA, start=1):
        try:
            # the convergence criterion fixes its own pair of grids
            res = crit() if crit is criterion_convergence else crit(n)
        except ValueError as exc:
            res = CriterionResult(crit.title, False, {"error": str(exc)})
        res.name = f"{idx}. {res.name}"
        results.append(res)
        if echo:
            print(res.line(), flush=True)
    return results
