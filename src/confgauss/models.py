"""The three model spaces and their couplings.

Stereographic and hyperbolic projections between R^3, S^3 and H^3, each
a lift into the cone of R^{4,1} dehomogenized in the other model through
``lorentz.CHARTS``, and the transfer formulas for (conformal factor, mean
curvature, tracefree curvature) between the R^3 gauge and the S^3 / H^3
gauges.  All field-level functions broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets as _jets
from .grid import ChartGrid, FundamentalData, fundamental_data
from .lorentz import INFINITY, dehomogenize, dot, lift

__all__ = [
    "TransferredScalars",
    "stereo",
    "stereo_inv",
    "hyper",
    "hyper_inv",
    "transfer_r3_to_s3",
    "transfer_r3_to_h3",
    "oriented_r3_data",
]

NORTH_POLE_TOL = 1e-12


@dataclass
class TransferredScalars:
    """(conformal factor exponent, mean curvature, tracefree curvature)."""

    model: str
    lam: np.ndarray
    H: np.ndarray
    Omega: np.ndarray


def stereo(x):
    """Stereographic projection S^3 -> R^3 ∪ {INFINITY} from the north pole."""
    x = np.asarray(x, dtype=float).reshape(4)
    num, denom = dehomogenize(lift(x, "s3"), "r3")
    if denom <= NORTH_POLE_TOL:
        return INFINITY
    return num / denom


def stereo_inv(x):
    """Inverse stereographic projection R^3 ∪ {INFINITY} -> S^3."""
    if x is not INFINITY:
        x = np.asarray(x, dtype=float).reshape(3)
    num, denom = dehomogenize(lift(x, "r3"), "s3")
    return num / denom


def hyper(z):
    """Projection H^3 -> B_1(0) from the hyperboloid model."""
    z = np.asarray(z, dtype=float).reshape(4)
    q = z[0] ** 2 + z[1] ** 2 + z[2] ** 2 - z[3] ** 2
    if abs(q + 1.0) > 1e-10 or z[3] < 1.0 - 1e-10:
        raise ValueError("point is not on the upper hyperboloid")
    num, denom = dehomogenize(lift(z, "h3"), "r3")
    return num / denom


def hyper_inv(x):
    """Inverse projection B_1(0) -> H^3."""
    x = np.asarray(x, dtype=float).reshape(3)
    if float(np.dot(x, x)) >= 1.0:
        raise ValueError("outside Poincare ball")
    num, denom = dehomogenize(lift(x, "r3"), "h3")
    return num / denom


def _conformal_factor(phi, sign):
    """1 + sign |phi|^2: sign +1 for the S^3 gauge, -1 for H^3 (in the ball)."""
    conf = 1.0 + sign * dot(phi, phi)
    if np.any(conf <= 0.0):
        raise ValueError("not in ball")
    return conf


def _transfer(model, sign, lam, n, H, Omega, phi) -> TransferredScalars:
    phi = np.asarray(phi, dtype=float)
    conf = _conformal_factor(phi, sign)
    ndotphi = dot(np.asarray(n), phi)
    return TransferredScalars(model, np.asarray(lam) + np.log(2.0 / conf),
                              conf / 2.0 * np.asarray(H) + sign * ndotphi,
                              2.0 * np.asarray(Omega) / conf)


def transfer_r3_to_s3(lam, n, H, Omega, phi) -> TransferredScalars:
    """Transfer R^3 fundamental scalars to the S^3 gauge.

    e^{2 Lam} = 4 e^{2 lam} / (1+|phi|^2)^2,
    h = (|phi|^2+1)/2 H + <n, phi>,
    omega = 2 Omega / (1+|phi|^2).
    """
    return _transfer("s3", 1.0, lam, n, H, Omega, phi)


def transfer_r3_to_h3(lam, n, H, Omega, phi) -> TransferredScalars:
    """Transfer R^3 fundamental scalars to the H^3 gauge; needs |phi| < 1.

    The S^3 formulas with |phi|^2 -> -|phi|^2 and <n, phi> -> -<n, phi>.
    """
    return _transfer("h3", -1.0, lam, n, H, Omega, phi)


def _normal_from_r3(n, phi, sign) -> np.ndarray:
    """Gauss map of the S^3 (sign +1) or H^3 (sign -1) representation
    induced by the R^3 one: (n, 0) - 2 sign <n, phi> / (1 + sign |phi|^2)
    * (phi, -sign)."""
    phi = np.asarray(phi, dtype=float)
    n = np.asarray(n, dtype=float)
    conf = _conformal_factor(phi, sign)[..., None]
    last = np.full(phi.shape[:-1] + (1,), -sign)
    n4 = np.concatenate([n, np.zeros_like(last)], axis=-1)
    phi4 = np.concatenate([phi, last], axis=-1)
    return n4 - sign * 2.0 * dot(n, phi)[..., None] / conf * phi4


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
        data = FundamentalData(grid, data.lam, -data.n, -data.H, -data.Omega)
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
        push, sign = {"s3": (_jets.push_stereo_inv, 1.0),
                      "h3": (_jets.push_hyper_inv, -1.0)}[target]
        new_grid = ChartGrid(target, g.u, g.v, push(g.jet))
        scal = _transfer(target, sign, data.lam, data.n, data.H, data.Omega, g.pos)
        return FundamentalData(new_grid, scal.lam,
                               _normal_from_r3(data.n, g.pos, sign), scal.H, scal.Omega)
    if target == "r3":
        jet = _jets.push_stereo(g.jet) if data.model == "s3" else _jets.push_hyper(g.jet)
        return oriented_r3_data(ChartGrid("r3", g.u, g.v, jet), data)
    # s3 <-> h3 goes through r3
    return representation(representation(data, "r3"), target)
