"""Order-2 jets of chart maps and their exact projective pushforward.

A ``Jet2`` carries position and derivatives up to order two of a map from
a planar chart (u, v) into an ambient R^d.  Every map between the model
spaces, and every inversion acting on R^3 ∪ {∞}, is pushed by the same
three steps:

1. lift the 2-jet to the light cone of R^{4,1} through ``lorentz.CHARTS``;
   the lift is quadratic for R^3, (x, (|x|^2-1)/2, (|x|^2+1)/2), and affine
   for S^3, (X, 1), and for H^3, (Z_h, -1, Z_4), so the lifted jet is exact;
2. multiply by the generator's SO(4,1) matrix (nothing for a projection);
3. dehomogenize once into the target model by the quotient rule, dividing
   by Y5 - Y4 for R^3, by Y5 for S^3 and by -Y4 for H^3.

A Moebius word is pushed in one affine pass x -> A x + t per maximal run
of similarities (``lorentz.word_steps``), and one exact pass per inversion.
Transformed surfaces therefore keep analytic (non-differenced) jets.  Each
pass runs over ``row_blocks`` of the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lorentz import CHARTS, Generator, dot, generator_matrix, word_steps

__all__ = [
    "Jet2",
    "push_stereo",
    "push_stereo_inv",
    "push_hyper",
    "push_hyper_inv",
    "push_word",
]

# Nodes per block of a pointwise kernel, so that a block's (rows, width, k)
# temporaries stay in a 4 MiB L2 cache; a grid of at most this many nodes
# is one block.  Where W threads classify a grid of more blocks
# (``classify._on_blocks``), each block has BLOCK_NODES // W nodes, so
# that the nodes in flight stay at BLOCK_NODES.
BLOCK_NODES = 16384

# Largest band height of a banded classification (``classify.classify_data``):
# at least 240, so that the two 6-row halos of each inner cut add under 5 %
# to the rows computed; a grid of at most this many rows is one band.
BAND_ROWS = 256


@dataclass
class Jet2:
    """2-jet of a chart map: value and derivatives, arrays (..., d)."""

    pos: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray


def row_blocks(lead: tuple, workers: int = 1):
    """Slices of whole rows along the first axis of node arrays of leading
    shape ``lead``, about ``BLOCK_NODES // workers`` nodes each, whose stop
    is at most ``lead[0]``; one ``...`` for a single node.  Every pointwise
    kernel runs block by block over them and writes into preallocated
    outputs, so each node's arithmetic is that of the whole-grid pass."""
    if not lead:
        yield ...
        return
    rows = max(1, BLOCK_NODES // workers // max(1, math.prod(lead[1:])))
    for start in range(0, lead[0], rows):
        yield slice(start, min(start + rows, lead[0]))


def row_bands(n: int) -> list:
    """Slices that split ``n`` grid rows into ceil(n / BAND_ROWS) bands of
    near-equal height."""
    count = -(-n // BAND_ROWS)
    cuts = [k * n // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def per_component(op, vectors, factor, out):
    """``op(vectors, factor[..., None], out=out)`` one component at a time:
    a per-node factor broadcast over the short component axis would make
    numpy's inner loop that short, several times slower."""
    for k in range(vectors.shape[-1]):
        op(vectors[..., k], factor, out=out[..., k])
    return out


def _rows(source: str, target: str, matrix=None):
    """``target``'s numerator rows, then its denominator row, times
    ``matrix``; with their parts ``lin``, ``const`` and ``cone`` on the lift
    E_K x + c + |x|^2/2 q of a ``source`` point."""
    src, dst = CHARTS[source], CHARTS[target]
    rows = np.vstack([np.eye(5)[dst.cols], dst.w])
    if matrix is not None:
        rows = rows @ matrix
    return rows @ np.eye(5)[:, src.cols], rows @ src.c, rows @ src.q


def _push(jet: Jet2, source: str, target: str, matrix=None,
          tol: float = 0.0, message: str = "image meets the point at infinity") -> Jet2:
    """Lift ``jet`` from ``source`` to the cone, apply ``matrix``, project to ``target``.

    Raises ``ValueError(message)`` where the denominator is at most ``tol``
    (in absolute value on R^3, where both signs of a lift are valid).  An
    overflow at far-out scales leaves inf or nan in the image, which
    ``ChartGrid``'s finiteness check names.
    """
    lin, const, cone = _rows(source, target, matrix)
    num_lin, den_lin = np.ascontiguousarray(lin[:-1].T), lin[-1]
    # the lift's |x|^2/2 q term drops out where the rows annihilate q
    quadratic = bool(cone.any())
    # at most one numerator row meets q (none for an inversion)
    cone_num = [(k, cone[k]) for k in np.flatnonzero(cone[:-1])]

    def image(t, quad):
        """rows @ (lift component): the numerator into the block's ``num``,
        the denominator returned; ``quad`` is the matching component of the
        jet of |x|^2/2."""
        den = t @ den_lin
        np.matmul(t, num_lin, out=num)
        if quadratic:
            for k, c in cone_num:
                num[..., k] += c * quad
            den += quad * cone[-1]
        return den

    def quotient(out, *terms):
        """(num - sum of g * d over terms) / den into ``out``, with the
        block's ``num`` and ``inv`` = 1 / den; every d is a derivative of
        den."""
        for g, d in terms:
            np.subtract(num, per_component(np.multiply, g, d, scratch), out=num)
        return per_component(np.multiply, num, inv, out)

    lead = jet.pos.shape[:-1]
    pushed = Jet2(*(np.empty(lead + (num_lin.shape[1],)) for _ in range(6)))
    with np.errstate(all="ignore"):
        for rows in row_blocks(lead):
            x, tangents = jet.pos[rows], (jet.du[rows], jet.dv[rows])
            num = np.empty(x.shape[:-1] + (num_lin.shape[1],))
            scratch = np.empty_like(num)
            den = image(x, 0.5 * dot(x, x) if quadratic else None)
            num += const[:-1]
            den += const[-1]
            if np.any((den if target != "r3" else np.abs(den)) <= tol):
                raise ValueError(message)
            inv = 1.0 / den
            f = quotient(pushed.pos[rows])
            # quotient rule for f = num / den:
            #   f_a = (num_a - f den_a) / den
            #   f_ab = (num_ab - f_a den_b - f_b den_a - f den_ab) / den
            firsts = []
            for t, out in zip(tangents, (pushed.du, pushed.dv)):
                den_a = image(t, dot(x, t) if quadratic else None)
                firsts.append((quotient(out[rows], (f, den_a)), den_a))
            for (a, b), t, out in (((0, 0), jet.duu, pushed.duu),
                                   ((0, 1), jet.duv, pushed.duv),
                                   ((1, 1), jet.dvv, pushed.dvv)):
                (f_a, den_a), (f_b, den_b) = firsts[a], firsts[b]
                t = t[rows]
                quad = dot(tangents[a], tangents[b]) + dot(x, t) if quadratic else None
                den_ab = image(t, quad)
                quotient(out[rows], (f_a, den_b), (f_b, den_a), (f, den_ab))
    return pushed


def push_stereo_inv(jet: Jet2) -> Jet2:
    """Pushforward through the inverse stereographic projection R^3 -> S^3."""
    return _push(jet, "r3", "s3")


def push_stereo(jet: Jet2) -> Jet2:
    """Pushforward through the stereographic projection S^3 -> R^3."""
    return _push(jet, "s3", "r3", tol=1e-10, message="chart meets the north pole")


def push_hyper(jet: Jet2) -> Jet2:
    """Pushforward through the hyperbolic projection H^3 -> B_1(0)."""
    return _push(jet, "h3", "r3")


def push_hyper_inv(jet: Jet2) -> Jet2:
    """Pushforward through the inverse hyperbolic projection B_1(0) -> H^3."""
    return _push(jet, "r3", "h3", message="chart leaves the Poincare ball")


def _push_similarities(jet: Jet2, s, rot, t) -> Jet2:
    """Pushforward of an R^3 jet through x -> s rot x + t; each derivative
    maps by s rot alone.  An overflow leaves inf or nan in the image, which
    ``ChartGrid``'s finiteness check names."""
    with np.errstate(all="ignore"):
        a_t = np.ascontiguousarray((s * rot).T)
        parts = vars(jet).values()
        pushed = Jet2(*(np.empty(p.shape) for p in parts))
        for rows in row_blocks(jet.pos.shape[:-1]):
            for p, out in zip(parts, vars(pushed).values()):
                np.matmul(p[rows], a_t, out=out[rows])
            pushed.pos[rows] += t
    return pushed


def push_word(jet: Jet2, word) -> Jet2:
    """Pushforward of an R^3 chart jet through a generator word, left-to-right.

    Each step of ``lorentz.word_steps`` is one pass: a run of similarities
    is one affine pass x -> A x + t, composed from the table's maps with no
    readout off an SO(4,1) matrix, so a dilation scales by e^lam exactly.
    Each inversion is its own exact pass: it divides by the exact -|x|^2 of
    its input, which a product matrix reaching across it would form by
    cancellation near the point that the word sends to infinity.
    """
    for step in word_steps(word):
        if isinstance(step, Generator):
            jet = _push(jet, "r3", "r3", generator_matrix(step), tol=1e-24,
                        message="inversion center on surface")
        else:
            jet = _push_similarities(jet, *step)
    return jet
