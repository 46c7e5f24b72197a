"""Bryant functional, isothermic witness, hyperplane fit and classification.

The quartic coefficient Q = <Y_zz, Y_zz>, its holomorphy residual, the
isothermic witness Im(conj(omega)^2 Q), the sign field
W_{S3}^2 - conj(omega)^2 e^{-4 Lam} Q whose uniform sign selects the space
form, and the least-squares hyperplane fit of Y whose normal type must
agree with that sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .congruence import CongruenceGrid, conformal_gauss_map
from .grid import MIN_GRID, ChartGrid, FundamentalData, interior_max
from .jets import Jet2
from .lorentz import EPSILON, classify_vector, lorentz_product
from .models import representation
from .willmore import harmonicity_residual, willmore_scalar

__all__ = [
    "QResult",
    "HyperplaneFit",
    "ClassificationReport",
    "bryant_q",
    "bryant_q_r3",
    "holomorphy_identity_residual",
    "isothermic_witness",
    "classification_value",
    "hyperplane_fit",
    "classify",
    "classify_data",
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

_SPACE_BY_KAPPA = {0: "ℝ³", -1: "S³", 1: "ℍ³"}
_TYPE_BY_KAPPA = {0: "lightlike", -1: "timelike", 1: "spacelike"}


@dataclass
class QResult:
    """Bryant functional: closed form, direct form, and their difference."""

    q: np.ndarray
    q_direct: np.ndarray
    agreement: float
    umbilic_flagged: bool = False


class _S3Fields(FundamentalData):
    """S^3 data with the classifier's derivative fields, each taken once.

    The congruence, W_{S3}, Q = <Y_zz, Y_zz>, Q_zbar, the sign field of that
    Q and the 2h restriction are computed on first use and kept on this
    object, so they live as long as it does.
    """

    @cached_property
    def cong(self) -> CongruenceGrid:
        return conformal_gauss_map(self)

    @cached_property
    def willmore(self) -> np.ndarray:
        return willmore_scalar(self)

    @cached_property
    def q(self) -> np.ndarray:
        """Bryant's quartic <Y_zz, Y_zz>, as smooth as Y."""
        return lorentz_product(self.cong.Yzz, self.cong.Yzz)

    @cached_property
    def q_zbar(self) -> np.ndarray:
        return self.grid.dzbar(self.q)

    @cached_property
    def sign_field(self):
        """``_field_and_scale`` of Q."""
        return _field_and_scale(self, self.q)

    @cached_property
    def coarse(self) -> "_S3Fields":
        """Pointwise restriction to the every-other-node subgrid."""
        g = self.grid
        jet = Jet2(*(a[::2, ::2] for a in vars(g.jet).values()))
        grid = ChartGrid(g.model, g.u[::2], g.v[::2], jet)
        coarse = _S3Fields(grid, *(f[::2, ::2] for f in
                                   (self.lam, self.n, self.H, self.Omega)))
        # Y is pointwise: the restricted Y is the coarse one; only Q is kept
        yzz = grid.dz(grid.dz(self.cong.Y[::2, ::2]))
        coarse.q = lorentz_product(yzz, yzz)
        return coarse


def _closed_form_q(data: FundamentalData, curvature: float) -> np.ndarray:
    """Omega^2 e^{-2lam} (Omega_z/Omega)_zbar + Omega^2 (H^2 + curvature)/4,
    the ambient sectional curvature being 1 on S^3 and 0 on R^3."""
    g = data.grid
    ratio = g.dz(data.Omega) / data.Omega
    return (data.Omega ** 2 * np.exp(-2.0 * data.lam) * g.dzbar(ratio)
            + data.Omega ** 2 * ((data.H ** 2 + curvature) / 4.0))


def _s3_fields(data: FundamentalData) -> _S3Fields:
    if isinstance(data, _S3Fields):
        return data
    return _S3Fields(data.grid, data.lam, data.n, data.H, data.Omega)


def bryant_q(data: FundamentalData, cong: CongruenceGrid) -> QResult:
    """Q two ways on S^3 data: direct <Y_zz,Y_zz> and the closed form.

    Closed form: omega^2 e^{-2Lam} (omega_z/omega)_zbar
    + omega^2 (h^2+1)/4, a reference for the direct Q the classifier reads;
    ``agreement`` is their interior max difference.  The closed form divides
    by omega, so umbilic charts report the direct Q for both.
    """
    if data.model != "s3":
        raise ValueError("bryant_q expects S^3 data")
    q_direct = lorentz_product(cong.Yzz, cong.Yzz)
    if data.has_umbilic():
        return QResult(q_direct, q_direct, 0.0, umbilic_flagged=True)
    q = _closed_form_q(data, 1.0)
    return QResult(q, q_direct, interior_max(q - q_direct))


def bryant_q_r3(data: FundamentalData) -> np.ndarray:
    """Closed form of Q from R^3 data: Omega^2 e^{-2lam} (Omega_z/Omega)_zbar
    + Omega^2 H^2 / 4."""
    if data.model != "r3":
        raise ValueError("bryant_q_r3 expects R^3 data")
    return _closed_form_q(data, 0.0)


def holomorphy_identity_residual(data: FundamentalData, q: np.ndarray) -> float:
    """Residual of Q_zbar = e^{2Lam} omega^2 (W_{S3} / (omega e^{-2Lam}))_z."""
    if data.model != "s3":
        raise ValueError("needs S^3 data")
    g = data.grid
    w = willmore_scalar(data)
    e2lam = data.e2lam
    rhs = e2lam * data.Omega ** 2 * g.dz(w / (data.Omega / e2lam))
    return interior_max(g.dzbar(q) - rhs)


def isothermic_witness(data: FundamentalData, q: np.ndarray) -> float:
    """Normalized max |Im(conj(omega)^2 Q)|; zero for degenerate-real Q.

    Q is degenerate-real when |conj(omega)^2 Q| never rises above a small
    fraction of the deterministic reference |omega|^4 / 4 (the value the
    product takes when Q is the pure (h^2+1)/4 term at h = 0).
    """
    w = np.conj(data.Omega) ** 2 * q
    scale = interior_max(w)
    floor = 1e-6 * interior_max(np.abs(data.Omega) ** 4) / 4.0
    if scale <= floor:
        return 0.0
    return interior_max(w.imag) / scale


def _field_and_scale(fields: _S3Fields, q: np.ndarray):
    w = fields.willmore
    term = np.conj(fields.Omega) ** 2 * np.exp(-4.0 * fields.lam) * q
    fieldc = w ** 2 - term
    e2l_cong = np.abs(fields.Omega) ** 2 * np.exp(-2.0 * fields.lam)
    scale = max(interior_max(w ** 2), interior_max(term),
                interior_max((e2l_cong / 2.0) ** 2))
    return fieldc, scale


def estimate_classification_noise(data: FundamentalData) -> dict:
    """A-posteriori stencil-noise estimates for the classifier quantities.

    Recomputes the classification field and the holomorphy residual of Q
    on the 2h subgrid; for 4th-order stencils the fine-grid error is
    about the fine/coarse difference divided by 15.
    """
    fine = _s3_fields(data)
    coarse = fine.coarse
    fld_fine, _ = fine.sign_field
    fld_coarse, _ = coarse.sign_field

    diff = fld_coarse - fld_fine[::2, ::2]
    return {
        "field": interior_max(diff.real, band=4) / 15.0,
        "field_imag": interior_max(diff.imag, band=4) / 15.0,
        "holomorphy": interior_max(coarse.q_zbar - fine.q_zbar[::2, ::2],
                                   band=4) / 15.0,
    }


def classification_value(data: FundamentalData, q: np.ndarray,
                         noise_floor: float = 0.0):
    """Sign field W_{S3}^2 - conj(omega)^2 e^{-4Lam} Q and its kappa.

    Returns (field, kappa, diagnostics); kappa is -1, 0, +1 or the string
    'indeterminate'.  The noise floor is 1e-7 of the field scale (the
    larger of the two competing terms and the stencil-free reference
    (e^{2L}/2)^2), raised to ``noise_floor`` when a measured estimate
    exceeds it; a sign needs >= 99% coverage of interior nodes.
    """
    if data.model != "s3":
        raise ValueError("needs S^3 data")
    fields = _s3_fields(data)
    # reuse the kept field when q is the Q already taken on data
    fieldc, scale = (fields.sign_field if q is fields.__dict__.get("q")
                     else _field_and_scale(fields, q))
    # the field carries two stencil passes, whose edge effects reach 4
    # nodes deep; the sign statistic uses that wider band
    band = 4
    imag_rel = interior_max(fieldc.imag, band=band) / scale if scale > 0 else 0.0
    fld = fieldc.real
    floor = max(KAPPA_NOISE_FLOOR * scale, noise_floor)
    inner = fld[band:-band, band:-band]
    diag = {"scale": scale, "imag_rel": imag_rel, "floor": floor}
    if np.mean(np.abs(inner) <= floor) >= KAPPA_COVERAGE and np.max(np.abs(inner)) <= 10.0 * floor:
        kappa = 0
    elif np.all(inner >= -floor) and np.mean(inner > floor) >= KAPPA_COVERAGE:
        kappa = 1
    elif np.all(inner <= floor) and np.mean(inner < -floor) >= KAPPA_COVERAGE:
        kappa = -1
    else:
        kappa = "indeterminate"
    return fld, kappa, diag


@dataclass
class HyperplaneFit:
    """Least-squares hyperplane <Y, v> = eta with |v|_euclid = 1."""

    v: np.ndarray
    eta: float
    rms: float
    vtype: str
    linear: bool


def hyperplane_fit(samples: np.ndarray) -> HyperplaneFit:
    """Fit the best affine hyperplane through congruence samples (..., 5).

    Smallest eigenvector of the 6x6 second-moment matrix of the stacked
    vectors (eps Y, -1); v is reported with unit euclidean norm.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < 500:
        raise ValueError("need at least 100 samples")
    # z = (Y, -1) is the only copy of the samples; the sign of eps goes
    # onto the moments, which it flips exactly
    z = np.empty(samples.shape[:-1] + (6,))
    z[..., :5] = samples
    z[..., 5] = -1.0
    z = z.reshape(-1, 6)
    flip = np.append(np.diag(EPSILON), 1.0)
    moment = (z.T @ z) * np.outer(flip, flip) / z.shape[0]
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
    rms = float(np.sqrt(np.mean((z @ np.append(EPSILON @ v, eta)) ** 2)))
    return HyperplaneFit(v, eta, rms, classify_vector(v, NORMAL_TYPE_TOL),
                         abs(eta) <= LINEAR_ETA_TOL)


@dataclass
class ClassificationReport:
    """Full classification outcome for one surface patch."""

    surface: str
    params: dict
    grid_n: int
    willmore_residual: float
    q_holomorphy: float
    isothermic_witness: float
    kappa: object
    hyperplane: HyperplaneFit
    verdict: str
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "surface": self.surface,
            "params": self.params,
            "grid": self.grid_n,
            "willmore_residual": self.willmore_residual,
            "q_holomorphy": self.q_holomorphy,
            "isothermic_witness": self.isothermic_witness,
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
                  params: dict | None = None,
                  holomorphy_tol: float = HOLOMORPHY_TOL) -> ClassificationReport:
    """Classification pipeline on prepared fundamental data (any model)."""
    if not (np.isfinite(holomorphy_tol) and holomorphy_tol > 0.0):
        raise ValueError(f"holomorphy tolerance must be finite and positive,"
                         f" got {holomorphy_tol!r}")
    if min(data.grid.shape) < MIN_CLASSIFY_GRID:
        raise ValueError(
            f"classification needs at least {MIN_CLASSIFY_GRID} nodes per side,"
            " so that its 2h restriction is still a grid"
        )
    if data.has_umbilic():
        raise ValueError(
            "umbilic surface: conformal Gauss map degenerate on the chart"
        )
    data_s3 = _s3_fields(representation(data, "s3"))
    holo = interior_max(data_s3.q_zbar)
    witness = isothermic_witness(data_s3, data_s3.q)
    noise = estimate_classification_noise(data_s3)
    fld, kappa, diag = classification_value(data_s3, data_s3.q,
                                            noise_floor=10.0 * noise["field"])
    diag["noise_estimate"] = noise
    cong = data_s3.cong
    willmore_res = interior_max(harmonicity_residual(cong))
    plane = hyperplane_fit(cong.Y[2:-2, 2:-2])

    diag["field_interior_max"] = interior_max(fld)
    # gate on the band-4 residual to stay commensurate with the noise
    # estimate; the reported residual keeps the band-2 convention
    holo_inner = interior_max(data_s3.q_zbar, band=4)
    holo_gate = max(holomorphy_tol, 10.0 * noise["holomorphy"])
    imag_gate = max(IMAG_REL_TOL, 10.0 * noise["field_imag"] / diag["scale"])
    not_cmc = holo_inner > holo_gate or diag["imag_rel"] > imag_gate
    if not_cmc:
        verdict = "not conformally CMC"
        kappa = "indeterminate"
    elif kappa == "indeterminate":
        verdict = "indeterminate"
    else:
        expected_type = _TYPE_BY_KAPPA[kappa]
        if plane.vtype != expected_type:
            verdict = "inconsistent"
            diag["expected_normal_type"] = expected_type
        else:
            space = _SPACE_BY_KAPPA[kappa]
            if willmore_res <= WILLMORE_RESIDUAL_TOL:
                verdict = f"conformally minimal in {space}"
            else:
                verdict = f"conformally CMC in {space}"

    n_grid = data.grid.pos.shape[0]
    return ClassificationReport(
        surface, params or {}, n_grid, willmore_res, holo, witness, kappa,
        plane, verdict, diag,
    )


def classify(spec, n: int = 128, domain=None,
             holomorphy_tol: float = HOLOMORPHY_TOL) -> ClassificationReport:
    """Sample a catalog surface and run the full classification pipeline."""
    from .grid import fundamental_data
    from .zoo import sample

    grid = sample(spec, n, domain=domain)
    data = fundamental_data(grid)
    return classify_data(data, surface=spec.name, params=spec.params,
                         holomorphy_tol=holomorphy_tol)
