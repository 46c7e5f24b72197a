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
of similarities (dilations, rotations, translations), and one exact pass
per inversion.  Transformed surfaces therefore keep analytic
(non-differenced) jets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .lorentz import CHARTS, dot, generator_matrix

__all__ = [
    "Jet2",
    "push_stereo",
    "push_stereo_inv",
    "push_hyper",
    "push_hyper_inv",
    "push_word",
]


@dataclass
class Jet2:
    """2-jet of a chart map: value and derivatives, arrays (..., d)."""

    pos: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    duu: np.ndarray
    duv: np.ndarray
    dvv: np.ndarray


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
    (in absolute value on R^3, where both signs of a lift are valid).
    """
    lin, const, cone = _rows(source, target, matrix)
    num_lin, den_lin = np.ascontiguousarray(lin[:-1].T), lin[-1]
    # the lift's |x|^2/2 q term drops out where the rows annihilate q
    quadratic = bool(cone.any())
    # at most one numerator row meets q (none for an inversion)
    cone_num = [(k, cone[k]) for k in np.flatnonzero(cone[:-1])]

    def image(t, quad):
        """Numerator and denominator of rows @ (lift component); ``quad`` is
        the matching component of the jet of |x|^2/2."""
        num, den = t @ num_lin, t @ den_lin
        if quadratic:
            for k, c in cone_num:
                num[..., k] += c * quad
            den += quad * cone[-1]
        return num, den

    x, tangents = jet.pos, (jet.du, jet.dv)
    num, den = image(x, 0.5 * dot(x, x) if quadratic else None)
    num += const[:-1]
    den += const[-1]
    if np.any((den if target != "r3" else np.abs(den)) <= tol):
        raise ValueError(message)
    inv = (1.0 / den)[..., None]
    f = num * inv
    scratch = np.empty_like(f)

    def quotient(num, *terms):
        """(num - sum of g * d over terms) / den, in place on num; every d
        is a derivative of den."""
        for g, d in terms:
            num -= np.multiply(g, d, out=scratch)
        num *= inv
        return num

    # quotient rule for f = num / den:
    #   f_a = (num_a - f den_a) / den
    #   f_ab = (num_ab - f_a den_b - f_b den_a - f den_ab) / den
    firsts = []
    for t in tangents:
        num_a, den_a = image(t, dot(x, t) if quadratic else None)
        den_a = den_a[..., None]
        firsts.append((quotient(num_a, (f, den_a)), den_a))
    seconds = []
    for (a, b), t in (((0, 0), jet.duu), ((0, 1), jet.duv), ((1, 1), jet.dvv)):
        (f_a, den_a), (f_b, den_b) = firsts[a], firsts[b]
        quad = dot(tangents[a], tangents[b]) + dot(x, t) if quadratic else None
        num_ab, den_ab = image(t, quad)
        seconds.append(quotient(num_ab, (f_a, den_b), (f_b, den_a), (f, den_ab[..., None])))
    return Jet2(f, firsts[0][0], firsts[1][0], *seconds)


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


def _push_similarities(jet: Jet2, run) -> Jet2:
    """Pushforward of an R^3 jet through a run of similarity generators.

    A similarity fixes infinity: its image has a constant denominator and
    no |x|^2 term, so it is x -> A x + t, read off the generator's SO(4,1)
    matrix through the dehomogenizing rows.  The run composes these 3x3
    maps; read off the 5x5 product instead, A's scale would come from a
    cancellation between the cone entries that translations build up.
    Each derivative maps by A alone.
    """
    a, t = np.eye(3), np.zeros(3)
    for gen in run:
        lin, const, _ = _rows("r3", "r3", generator_matrix(gen))
        a_gen = lin[:-1] / const[-1]
        a, t = a_gen @ a, a_gen @ t + const[:-1] / const[-1]
    a_t = np.ascontiguousarray(a.T)
    parts = [p @ a_t for p in (jet.pos, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv)]
    parts[0] += t
    return Jet2(*parts)


def push_word(jet: Jet2, word) -> Jet2:
    """Pushforward of an R^3 chart jet through a generator word, left-to-right.

    Each maximal run of dilations, rotations and translations is one affine
    pass x -> A x + t.  Each inversion is its own exact pass: it divides by
    the exact -|x|^2 of its input, which a product matrix reaching across
    it would form by cancellation near the point that the word sends to
    infinity.
    """
    for inversions, run in groupby(word, key=lambda gen: gen.kind == "inv"):
        if not inversions:
            jet = _push_similarities(jet, run)
            continue
        for gen in run:
            jet = _push(jet, "r3", "r3", generator_matrix(gen), tol=1e-24,
                        message="inversion center on surface")
    return jet
