"""The three model spaces and their couplings.

Stereographic and hyperbolic projections between R^3, S^3 and H^3, each
a lift into the cone of R^{4,1} dehomogenized in the other model through
``lorentz.CHARTS``.  A chart changes model by one jet pushforward
(``representation``); its (lam, n, H, Omega) there are read off the
pushed jets, so no curvature is transferred by formula.
"""

from __future__ import annotations

import numpy as np

from . import jets as _jets
from .grid import ChartGrid, FundamentalData, fundamental_data
from .lorentz import INFINITY, dehomogenize, lift

__all__ = [
    "stereo",
    "stereo_inv",
    "hyper",
    "hyper_inv",
    "oriented_data",
    "representation",
]

NORTH_POLE_TOL = 1e-12


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


# Sign of a chart's own normal against the normal that the projection
# from R^3 induces: stereographic projection keeps the chart orientation,
# the hyperbolic one reverses it.  Moebius words on R^3 keep it, inversions
# included: an inversion reverses the chart orientation, and its SO(4,1)
# matrix reverses the induced normal.
_CHART_ORIENTATION = {"r3": 1, "s3": 1, "h3": -1}


def oriented_data(grid: ChartGrid, source: FundamentalData) -> FundamentalData:
    """Fundamental data of an image of ``source``, with the induced normal.

    ``grid`` is the image chart of ``source`` under a projection or a
    Moebius word; its chart normal is flipped exactly when the source's
    normal and the two charts' orientations disagree.
    """
    data = fundamental_data(grid)
    sign = (source.orientation * _CHART_ORIENTATION[source.model]
            * _CHART_ORIENTATION[grid.model])
    if sign < 0:
        data = FundamentalData(grid, data.lam, -data.n, -data.H, -data.Omega)
        data.orientation = -1
    return data


def representation(data: FundamentalData, target: str) -> FundamentalData:
    """Re-express chart-grid fundamental data in another model.

    Keeps the chart coordinates: the jets are pushed once into ``target``
    and (lam, n, H, Omega) are read off the pushed chart, with the normal
    induced by the source's orientation.
    """
    if target == data.model:
        return data
    g, source = data.grid, data.model
    if source == "r3":
        jet = (_jets.push_stereo_inv if target == "s3" else _jets.push_hyper_inv)(g.jet)
    elif target == "r3":
        jet = (_jets.push_stereo if source == "s3" else _jets.push_hyper)(g.jet)
    else:
        jet = _jets._push(g.jet, source, target, message="chart leaves the Poincare ball")
    return oriented_data(ChartGrid(target, g.u, g.v, jet), data)
