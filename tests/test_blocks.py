"""Pointwise kernels run over row blocks: block boundaries change nothing."""

import tracemalloc

import numpy as np
import pytest

from confgauss import classify as CL
from confgauss import grid as G
from confgauss import jets as J
from confgauss import models
from confgauss.congruence import transform_immersion
from confgauss.lorentz import parse_word
from confgauss.zoo import make_surface, sample

N = 65
FEW_ROWS = 3 * N  # nodes per block: three rows of a 65-grid

# one chart per model pushed into another, and a word with an inversion
# between two similarity runs
CASES = [
    ("torus_revolution", {}, "s3"),
    ("torus_revolution", {"R": 0.3, "r": 0.1}, "h3"),
    ("clifford_torus", {}, "r3"),
    ("hyperbolic_cylinder", {}, "s3"),
    ("hyperbolic_cylinder", {}, "r3"),
    ("cylinder", {}, "dil:0.3 rot:z,1.2 tra:4,0,0 inv tra:0.5,0,0 dil:-0.2"),
]


def _run(name, params, target):
    """Pushed jets, fundamental data and report of one case, all fresh."""
    data = G.fundamental_data(sample(make_surface(name, **params), N))
    if target in ("r3", "s3", "h3"):
        moved = models.representation(data, target)
    else:
        moved = transform_immersion(data, parse_word(target))
    arrays = list(vars(moved.grid.jet).values())
    arrays += [moved.lam, moved.n, moved.H, moved.Omega]
    report = CL.classify_data(moved, name)
    return arrays, report.to_dict(), report.diagnostics


@pytest.mark.parametrize("name, params, target", CASES)
def test_few_row_blocks_equal_one_block(monkeypatch, name, params, target):
    assert len(list(J.row_blocks((N, N)))) == 1
    whole = _run(name, params, target)
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_ROWS)
    assert len(list(J.row_blocks((N, N)))) == 22
    blocked = _run(name, params, target)
    for a, b in zip(whole[0], blocked[0]):
        assert np.array_equal(a, b)
    assert whole[1:] == blocked[1:]


def test_non_finite_is_named_before_an_earlier_non_conformal_block(monkeypatch):
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_ROWS)
    g = sample(make_surface("cylinder"), N)
    jet = g.jet
    jet.du[1, 4] *= 2.0  # not conformal, first block
    with pytest.raises(ValueError, match="not conformal"):
        G.ChartGrid("r3", g.u, g.v, jet)
    jet.dvv[60, 7, 2] = np.nan  # last block
    with pytest.raises(ValueError, match="jet has non-finite values in dvv"):
        G.ChartGrid("r3", g.u, g.v, jet)


def test_immersion_is_named_before_an_earlier_non_conformal_block(monkeypatch):
    monkeypatch.setattr(J, "BLOCK_NODES", FEW_ROWS)
    g = sample(make_surface("cylinder"), N)
    jet = g.jet
    jet.du[1, 4] *= 2.0  # not conformal, first block
    jet.du[60, 7] = jet.dv[60, 7] = 0.0  # degenerate, last block
    with pytest.raises(ValueError, match="degenerate jet: immersion condition fails"):
        G.ChartGrid("r3", g.u, g.v, jet)


def test_push_peak_memory_is_its_outputs_and_one_block():
    """tracemalloc peak of a several-block push above its input: the six
    output arrays plus at most six 4-vectors of doubles per block node."""
    n = 257
    jet = sample(make_surface("torus_revolution"), n).jet
    assert len(list(J.row_blocks((n, n)))) == 5
    tracemalloc.start()
    try:
        pushed = J.push_stereo_inv(jet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in vars(pushed).values())
    assert peak <= outputs + 6 * 4 * 8 * J.BLOCK_NODES
