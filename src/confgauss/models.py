"""The three model spaces and their couplings.

A chart changes model by one jet pushforward (``representation``) through
``lorentz.CHARTS``; its (lam, n, H, Omega) there are read off the pushed
jets, so no curvature is transferred by formula.
"""

from __future__ import annotations

from . import jets as _jets
from .grid import ChartGrid, FundamentalData

__all__ = [
    "oriented_data",
    "representation",
]


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
    normal and the two charts' orientations disagree.  Only the source's
    model and orientation are read, not its fields.
    """
    return FundamentalData(grid, source.orientation * _CHART_ORIENTATION[source.model]
                           * _CHART_ORIENTATION[grid.model])


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
    return oriented_data(g.with_jet(jet, target), data)
