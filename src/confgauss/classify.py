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
    "HyperplaneFit",
    "ClassificationReport",
    "bryant_q",
    "holomorphy_identity_residual",
    "isothermic_witness",
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

_SPACE_BY_KAPPA = {0: "ℝ³", -1: "S³", 1: "ℍ³"}
_TYPE_BY_KAPPA = {0: "lightlike", -1: "timelike", 1: "spacelike"}


class _S3Fields(FundamentalData):
    """S^3 data with the derivative fields of an analysis, each taken once.

    The congruence, W_{S3}, Q = <Y_zz, Y_zz>, Q_zbar, the sign field of that
    Q, the 2h restriction and the 2h noise estimate are computed on first
    use and kept on this object, so they live as long as it does.
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
        """``_field_and_scale`` of this view."""
        return _field_and_scale(self)

    @cached_property
    def noise(self) -> dict:
        """``estimate_classification_noise`` of this view."""
        return estimate_classification_noise(self)

    @cached_property
    def coarse(self) -> "_S3Fields":
        """Pointwise restriction to the every-other-node subgrid."""
        g = self.grid
        jet = Jet2(*(a[::2, ::2] for a in vars(g.jet).values()))
        grid = ChartGrid(g.model, g.u[::2], g.v[::2], jet)
        # fundamental data are pointwise: the coarse chart's equal the
        # restriction of the fine ones
        coarse = _S3Fields(grid, self.orientation)
        # Y is pointwise: the restricted Y is the coarse one; only Q is kept
        yzz = CongruenceGrid(grid, self.cong.Y[::2, ::2]).Yzz
        coarse.q = lorentz_product(yzz, yzz)
        return coarse


def s3_fields(data: FundamentalData) -> _S3Fields:
    """The S^3 view of a chart in any model, the one place where its S^3
    representation and Gauss map ``.cong`` are built; a view is kept as is."""
    if isinstance(data, _S3Fields):
        return data
    data = representation(data, "s3")
    view = _S3Fields(data.grid, data.orientation)
    if "_fields" in vars(data):  # an S^3 chart's fields already read: shared
        view._fields = data._fields
    return view


def bryant_q(data: FundamentalData) -> np.ndarray:
    """Closed form of Q on R^3 or S^3 data, a reference for the direct
    <Y_zz, Y_zz> that the classifier reads off ``s3_fields(data).q``.

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


def holomorphy_identity_residual(data: FundamentalData) -> float:
    """Residual of Q_zbar = e^{2Lam} omega^2 (W_{S3} / (omega e^{-2Lam}))_z
    on the S^3 view."""
    view = s3_fields(data)
    e2lam = view.e2lam
    rhs = e2lam * view.Omega ** 2 * view.grid.dz(view.willmore / (view.Omega / e2lam))
    return interior_max(view.q_zbar - rhs)


def isothermic_witness(data: FundamentalData) -> float:
    """Normalized max |Im(conj(omega)^2 Q)| on the S^3 view; zero for
    degenerate-real Q.

    Q is degenerate-real when |conj(omega)^2 Q| never rises above a small
    fraction of the deterministic reference |omega|^4 / 4 (the value the
    product takes when Q is the pure (h^2+1)/4 term at h = 0).
    """
    view = s3_fields(data)
    w = np.conj(view.Omega) ** 2 * view.q
    scale = interior_max(w)
    floor = 1e-6 * interior_max(np.abs(view.Omega) ** 4) / 4.0
    if scale <= floor:
        return 0.0
    return interior_max(w.imag) / scale


def _field_and_scale(view: _S3Fields):
    """Sign field W_{S3}^2 - conj(omega)^2 e^{-4Lam} Q and its scale: the
    larger of the two competing terms and the stencil-free reference
    (e^{2L}/2)^2."""
    w = view.willmore
    term = np.conj(view.Omega) ** 2 * np.exp(-4.0 * view.lam) * view.q
    fieldc = w ** 2 - term
    e2l_cong = np.abs(view.Omega) ** 2 * np.exp(-2.0 * view.lam)
    scale = max(interior_max(w ** 2), interior_max(term),
                interior_max((e2l_cong / 2.0) ** 2))
    return fieldc, scale


def estimate_classification_noise(data: FundamentalData) -> dict:
    """A-posteriori stencil-noise estimates for the classifier quantities.

    Recomputes the classification field and the holomorphy residual of Q
    on the 2h subgrid; for 4th-order stencils the fine-grid error is
    about the fine/coarse difference divided by 15.
    """
    fine = s3_fields(data)
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


def classification_value(data: FundamentalData):
    """Sign field of the S^3 view (``_field_and_scale``) and its kappa.

    Returns (field, kappa, diagnostics); kappa is -1, 0, +1 or the string
    'indeterminate'.  The noise floor is 1e-7 of the field scale, raised to
    ten times the view's 2h estimate of the field noise when that is
    larger; a sign needs >= 99% coverage of interior nodes.
    """
    view = s3_fields(data)
    fieldc, scale = view.sign_field
    # the field carries two stencil passes, whose edge effects reach 4
    # nodes deep; the sign statistic uses that wider band
    band = 4
    imag_rel = interior_max(fieldc.imag, band=band) / scale if scale > 0 else 0.0
    fld = fieldc.real
    floor = max(KAPPA_NOISE_FLOOR * scale, 10.0 * view.noise["field"])
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
                  params: dict | None = None) -> ClassificationReport:
    """Classification pipeline on any model's data, run on its S^3 view."""
    if min(data.grid.shape) < MIN_CLASSIFY_GRID:
        raise ValueError(
            f"classification needs at least {MIN_CLASSIFY_GRID} nodes per side,"
            " so that its 2h restriction is still a grid"
        )
    data_s3 = s3_fields(data)
    # umbilicity is conformally invariant: one flag in every model's gauge
    if data_s3.has_umbilic():
        raise ValueError(
            "umbilic surface: conformal Gauss map degenerate on the chart"
        )
    holo = interior_max(data_s3.q_zbar)
    witness = isothermic_witness(data_s3)
    noise = data_s3.noise
    fld, kappa, diag = classification_value(data_s3)
    diag["noise_estimate"] = noise
    cong = data_s3.cong
    willmore_res = interior_max(harmonicity_residual(cong))
    plane = hyperplane_fit(cong.Y[2:-2, 2:-2])

    diag["field_interior_max"] = interior_max(fld)
    # gate on the band-4 residual to stay commensurate with the noise
    # estimate; the reported residual keeps the band-2 convention
    holo_inner = interior_max(data_s3.q_zbar, band=4)
    holo_gate = max(HOLOMORPHY_TOL, 10.0 * noise["holomorphy"])
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


def classify(spec, n: int = 128, domain=None) -> ClassificationReport:
    """Sample a catalog surface and run the full classification pipeline."""
    from .grid import fundamental_data
    from .zoo import sample

    grid = sample(spec, n, domain=domain)
    data = fundamental_data(grid)
    return classify_data(data, surface=spec.name, params=spec.params)
