"""The three model spaces and their couplings.

Stereographic and hyperbolic projections between R^3, S^3 and H^3, the
isotropic lifts p(.) into the cone of R^{4,1}, and the transfer formulas
for (conformal factor, mean curvature, tracefree curvature) between the
R^3 gauge and the S^3 / H^3 gauges.  All field-level functions broadcast
over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets as _jets
from .grid import ChartGrid, FundamentalData, fundamental_data
from .lorentz import INFINITY, V_L

__all__ = [
    "ModelPoint",
    "TransferredScalars",
    "stereo",
    "stereo_inv",
    "hyper",
    "hyper_inv",
    "lift",
    "lift_r3",
    "lift_s3",
    "lift_h3",
    "transfer_r3_to_s3",
    "transfer_r3_to_h3",
    "normal_r3_to_s3",
    "normal_r3_to_h3",
    "oriented_r3_data",
]

NORTH_POLE_TOL = 1e-12


@dataclass(frozen=True)
class ModelPoint:
    """Tagged point of one of the three model spaces.

    model 'r3': coords is a 3-vector or INFINITY; 's3': unit 4-vector;
    'h3': 4-vector on the upper hyperboloid of R^{3,1}.
    """

    model: str
    coords: object

    def __post_init__(self):
        if self.model not in ("r3", "s3", "h3"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "r3":
            return
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (4,):
            raise ValueError("model point needs 4 components")
        if self.model == "s3":
            if abs(np.dot(c, c) - 1.0) > 1e-12:
                raise ValueError("point is not on S^3")
        else:
            q = c[0] ** 2 + c[1] ** 2 + c[2] ** 2 - c[3] ** 2
            if abs(q + 1.0) > 1e-10 or c[3] < 1.0 - 1e-10:
                raise ValueError("point is not on the upper hyperboloid")


@dataclass
class TransferredScalars:
    """(conformal factor exponent, mean curvature, tracefree curvature)."""

    model: str
    lam: np.ndarray
    H: np.ndarray
    Omega: np.ndarray


def stereo(x, tol: float = NORTH_POLE_TOL):
    """Stereographic projection S^3 -> R^3 ∪ {INFINITY} from the north pole."""
    x = np.asarray(x, dtype=float).reshape(4)
    denom = 1.0 - x[3]
    if denom <= tol:
        return INFINITY
    return x[:3] / denom


def stereo_inv(x):
    """Inverse stereographic projection R^3 ∪ {INFINITY} -> S^3."""
    if x is INFINITY:
        return np.array([0.0, 0.0, 0.0, 1.0])
    x = np.asarray(x, dtype=float).reshape(3)
    r2 = float(np.dot(x, x))
    return np.concatenate([2.0 * x, [r2 - 1.0]]) / (1.0 + r2)


def hyper(z):
    """Projection H^3 -> B_1(0) from the hyperboloid model."""
    z = np.asarray(z, dtype=float).reshape(4)
    q = z[0] ** 2 + z[1] ** 2 + z[2] ** 2 - z[3] ** 2
    if abs(q + 1.0) > 1e-10 or z[3] < 1.0 - 1e-10:
        raise ValueError("point is not on the upper hyperboloid")
    return z[:3] / (1.0 + z[3])


def hyper_inv(x):
    """Inverse projection B_1(0) -> H^3."""
    x = np.asarray(x, dtype=float).reshape(3)
    r2 = float(np.dot(x, x))
    if r2 >= 1.0:
        raise ValueError("outside Poincare ball")
    return np.concatenate([2.0 * x, [r2 + 1.0]]) / (1.0 - r2)


def lift_r3(phi) -> np.ndarray:
    """Isotropic lift of R^3 points: (phi, (|phi|^2-1)/2, (|phi|^2+1)/2)."""
    if phi is INFINITY:
        return V_L.copy()
    phi = np.asarray(phi, dtype=float)
    r2 = (phi * phi).sum(axis=-1)
    return np.concatenate(
        [phi, ((r2 - 1.0) / 2.0)[..., None], ((r2 + 1.0) / 2.0)[..., None]], axis=-1
    )


def lift_s3(x) -> np.ndarray:
    """Isotropic lift of S^3 points: (X, 1)."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def lift_h3(z) -> np.ndarray:
    """Isotropic lift of H^3 points: (Z_h, -1, Z_4)."""
    z = np.asarray(z, dtype=float)
    return np.concatenate(
        [z[..., :3], -np.ones(z.shape[:-1] + (1,)), z[..., 3:4]], axis=-1
    )


def lift(p: ModelPoint) -> np.ndarray:
    """Isotropic lift of a tagged model point into the cone of R^{4,1}."""
    if p.model == "r3":
        return lift_r3(p.coords)
    if p.model == "s3":
        return lift_s3(np.asarray(p.coords, dtype=float))
    return lift_h3(np.asarray(p.coords, dtype=float))


def transfer_r3_to_s3(lam, n, H, Omega, phi) -> TransferredScalars:
    """Transfer R^3 fundamental scalars to the S^3 gauge.

    e^{2 Lam} = 4 e^{2 lam} / (1+|phi|^2)^2,
    h = (|phi|^2+1)/2 H + <n, phi>,
    omega = 2 Omega / (1+|phi|^2).
    """
    phi = np.asarray(phi, dtype=float)
    r2 = (phi * phi).sum(axis=-1)
    ndotphi = (np.asarray(n) * phi).sum(axis=-1)
    big_lam = np.asarray(lam) + np.log(2.0 / (1.0 + r2))
    h = (r2 + 1.0) / 2.0 * np.asarray(H) + ndotphi
    omega = 2.0 * np.asarray(Omega) / (1.0 + r2)
    return TransferredScalars("s3", big_lam, h, omega)


def transfer_r3_to_h3(lam, n, H, Omega, phi) -> TransferredScalars:
    """Transfer R^3 fundamental scalars to the H^3 gauge; needs |phi| < 1."""
    phi = np.asarray(phi, dtype=float)
    r2 = (phi * phi).sum(axis=-1)
    if np.any(r2 >= 1.0):
        raise ValueError("not in ball")
    ndotphi = (np.asarray(n) * phi).sum(axis=-1)
    lam_z = np.asarray(lam) + np.log(2.0 / (1.0 - r2))
    h_z = (1.0 - r2) / 2.0 * np.asarray(H) - ndotphi
    omega_z = 2.0 * np.asarray(Omega) / (1.0 - r2)
    return TransferredScalars("h3", lam_z, h_z, omega_z)


def normal_r3_to_s3(n, phi) -> np.ndarray:
    """Gauss map of the S^3 representation induced by the R^3 one.

    N = (n, 0) - 2 <n, phi> / (1+|phi|^2) * (phi, -1).
    """
    phi = np.asarray(phi, dtype=float)
    n = np.asarray(n, dtype=float)
    r2 = (phi * phi).sum(axis=-1)[..., None]
    ndotphi = (n * phi).sum(axis=-1)[..., None]
    zeros = np.zeros(phi.shape[:-1] + (1,))
    n4 = np.concatenate([n, zeros], axis=-1)
    phi4 = np.concatenate([phi, -np.ones_like(zeros)], axis=-1)
    return n4 - 2.0 * ndotphi / (1.0 + r2) * phi4


def normal_r3_to_h3(n, phi) -> np.ndarray:
    """Gauss map of the H^3 representation induced by the R^3 one.

    n^Z = (n, 0) + 2 <n, phi> / (1-|phi|^2) * (phi, 1).
    """
    phi = np.asarray(phi, dtype=float)
    n = np.asarray(n, dtype=float)
    r2 = (phi * phi).sum(axis=-1)[..., None]
    if np.any(r2 >= 1.0):
        raise ValueError("not in ball")
    ndotphi = (n * phi).sum(axis=-1)[..., None]
    zeros = np.zeros(phi.shape[:-1] + (1,))
    n4 = np.concatenate([n, zeros], axis=-1)
    phi4 = np.concatenate([phi, np.ones_like(zeros)], axis=-1)
    return n4 + 2.0 * ndotphi / (1.0 - r2) * phi4


# Sign of the R^3 chart normal of a projected chart against the normal the
# projection induces from the source's own chart normal: stereographic
# projection keeps the chart orientation, the hyperbolic one reverses it.
# Moebius words on R^3 keep it, inversions included: an inversion reverses
# the chart orientation, and its SO(4,1) matrix reverses the induced normal.
_CHART_ORIENTATION = {"r3": 1, "s3": 1, "h3": -1}


def oriented_r3_data(grid: ChartGrid, source: FundamentalData) -> FundamentalData:
    """Fundamental data of an R^3 image of ``source``, with the induced normal.

    ``grid`` is the image chart of ``source`` under a projection or a
    Moebius word; the chart normal is flipped exactly when the source's
    normal and its projection's orientation disagree.
    """
    data = fundamental_data(grid)
    if source.orientation * _CHART_ORIENTATION[source.model] < 0:
        data = FundamentalData("r3", grid, data.lam, -data.n, -data.H, -data.Omega)
    return data


def representation(data, target: str):
    """Re-express chart-grid fundamental data in another model's gauge.

    Keeps the chart coordinates; the jets are pushed through the relevant
    projection and the scalars through the transfer formulas, so the Gauss
    map orientation is the one induced by the source chart.
    """
    if target == data.model:
        return data
    g = data.grid
    if data.model == "r3":
        if target == "s3":
            jet = _jets.push_stereo_inv(g.jet)
            new_grid = ChartGrid("s3", g.u, g.v, jet, conf_tol=g.conf_tol)
            scal = transfer_r3_to_s3(data.lam, data.n, data.H, data.Omega, g.pos)
            nrm = normal_r3_to_s3(data.n, g.pos)
            return FundamentalData("s3", new_grid, scal.lam, nrm, scal.H, scal.Omega)
        if target == "h3":
            jet = _jets.push_hyper_inv(g.jet)
            new_grid = ChartGrid("h3", g.u, g.v, jet, conf_tol=g.conf_tol)
            scal = transfer_r3_to_h3(data.lam, data.n, data.H, data.Omega, g.pos)
            nrm = normal_r3_to_h3(data.n, g.pos)
            return FundamentalData("h3", new_grid, scal.lam, nrm, scal.H, scal.Omega)
    if target == "r3":
        jet = _jets.push_stereo(g.jet) if data.model == "s3" else _jets.push_hyper(g.jet)
        return oriented_r3_data(ChartGrid("r3", g.u, g.v, jet, conf_tol=g.conf_tol), data)
    # s3 <-> h3 goes through r3
    return representation(representation(data, "r3"), target)
