"""Linear algebra of R^{4,1}: the (4,1) product, vector taxonomy and SO(4,1).

The model space is R^5 with the Lorentzian product
``<u, v> = u1 v1 + u2 v2 + u3 v3 + u4 v4 - u5 v5``.  Conformal
diffeomorphisms of R^3 (and of S^3) are represented by SO(4,1) matrices
acting on isotropic lifts of points.  ``CHARTS`` is the one table of how
R^3, S^3 and H^3 sit in the light cone: every lift and projection of a
point, a field or a jet reads it.  ``GENERATOR_KINDS`` is the one table of
Moebius generator kinds: parameter count, the (s, R, t) of a similarity
x -> s R x + t (None for the inversion at the origin) and seeded draw.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import groupby

import numpy as np

__all__ = [
    "EPSILON",
    "V_L",
    "dot",
    "lorentz_product",
    "CHARTS",
    "lift",
    "dehomogenize",
    "classify_vector",
    "axis_angle_matrix",
    "is_so41",
    "Generator",
    "GeneratorKind",
    "GENERATOR_KINDS",
    "generator_matrix",
    "word_steps",
    "word_matrix",
    "parse_word",
    "random_word",
]

# Metric signature matrix of R^{4,1}.
EPSILON = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])

# The lightlike direction of R^3's point at infinity.
V_L = np.array([0.0, 0.0, 0.0, 1.0, 1.0])

# relative accuracy a word's matrix must keep through its products
WORD_MATRIX_TOL = 1e-10

MIN_WORD_LENGTH = 3
MAX_WORD_LENGTH = 6

SPACELIKE = "spacelike"
LIGHTLIKE = "lightlike"
TIMELIKE = "timelike"


def dot(a, b):
    """Euclidean product on the last axis; broadcasts, no conjugation.

    The one per-node contraction of the package: a single ``einsum`` pass
    instead of a product array reduced over a 3-to-5-long axis.
    """
    return np.einsum("...i,...i->...", a, b)


def lorentz_product(u, v):
    """Bilinear (4,1) product on the last axis; broadcasts, no conjugation."""
    u = np.asarray(u)
    v = np.asarray(v)
    return dot(u[..., :4], v[..., :4]) - u[..., 4] * v[..., 4]


def classify_vector(v, tol: float = 1e-9) -> str:
    """Type of a nonzero vector of R^{4,1}, with a tolerance band for lightlike.

    A vector counts as lightlike when ``|<v,v>| <= tol * |v|_euclid^2``.
    """
    v = np.asarray(v, dtype=float)
    norm2 = float(np.dot(v, v))
    if norm2 == 0.0:
        raise ValueError("degenerate vector")
    q = float(lorentz_product(v, v))
    if abs(q) <= tol * norm2:
        return LIGHTLIKE
    return SPACELIKE if q > 0.0 else TIMELIKE


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about ``axis`` by ``angle``, as a 3x3 matrix."""
    a = np.asarray(axis, dtype=float)
    norm = math.hypot(*a)  # no overflow or underflow at any finite scale
    if norm == 0.0:
        raise ValueError("zero rotation axis")
    a = a / norm
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _similarity_matrix(s, rot, t) -> np.ndarray:
    """SO(4,1) matrix of the similarity x -> s rot x + t, rot in SO(3), s > 0.

    It maps lift(x) to lift(s rot x + t) / s: on the cone, Y5 - Y4 scales
    by 1/s and Y5 + Y4 = |x|^2 goes to |s rot x + t|^2 / s.
    """
    u, h, g = t / s, (t @ t) / (2.0 * s), 1.0 / (2.0 * s)
    m = np.empty((5, 5))
    m[:3, :3] = rot
    m[:3, 3], m[:3, 4] = -u, u
    m[3:, :3] = rot.T @ t
    m[3, 3], m[3, 4] = s / 2.0 - h + g, s / 2.0 + h - g
    m[4, 3], m[4, 4] = s / 2.0 - h - g, s / 2.0 + h + g
    return m


def is_so41(m, tol: float = 1e-12) -> bool:
    """True iff m^T eps m = eps entrywise and det m = 1, both within tol."""
    m = np.asarray(m, dtype=float)
    if m.shape != (5, 5):
        return False
    if np.max(np.abs(m.T @ EPSILON @ m - EPSILON)) > tol:
        return False
    return abs(np.linalg.det(m) - 1.0) <= tol


_E = np.eye(5)

# The chart of a model space in the light cone: the cone components ``cols``
# (K) that hold a point's coordinates, the constant ``c``, the dehomogenizing
# row ``w`` and the coefficient ``q`` of |x|^2/2.  A point x lifts to
# Y = E_K x + c + |x|^2/2 q, and a cone vector Y projects to Y_K / <w, Y>;
# c and q vanish on K.
Chart = namedtuple("Chart", "cols c w q")

CHARTS = {
    "r3": Chart([0, 1, 2], (_E[4] - _E[3]) / 2.0, _E[4] - _E[3], V_L),
    "s3": Chart([0, 1, 2, 3], _E[4], _E[4], np.zeros(5)),
    "h3": Chart([0, 1, 2, 4], -_E[3], -_E[3], np.zeros(5)),
}


def lift(x, model: str, tangent=None) -> np.ndarray:
    """Isotropic lift p(x) of ``model`` points x (..., d) into the cone.

    With ``tangent`` vectors v at x, the derivative of the lift along v
    instead: E_K v + <x, v> q.
    """
    chart = CHARTS[model]
    x = np.asarray(x, dtype=float)
    v = x if tangent is None else np.asarray(tangent, dtype=float)
    off = [k for k in range(5) if k not in chart.cols]
    y = np.empty(v.shape[:-1] + (5,))
    y[..., chart.cols] = v
    if not chart.q.any():
        y[..., off] = chart.c[off] if tangent is None else 0.0
    elif tangent is None:
        y[..., off] = chart.c[off] + (0.5 * dot(x, x))[..., None] * chart.q[off]
    else:
        y[..., off] = dot(x, v)[..., None] * chart.q[off]
    return y


def dehomogenize(y, model: str):
    """Numerator Y_K and denominator <w, Y> of cone vectors y in ``model``;
    the caller divides, after guarding the denominator."""
    chart = CHARTS[model]
    y = np.asarray(y, dtype=float)
    return y[..., chart.cols], dot(y, chart.w)


@dataclass(frozen=True)
class Generator:
    """One factor of a Moebius word: kind plus its parameter tuple."""

    kind: str
    param: tuple = ()

    def __post_init__(self):
        spec = GENERATOR_KINDS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if len(self.param) != spec.nparams:
            raise ValueError(f"{self.kind} needs {spec.nparams} parameters,"
                             f" got {len(self.param)}")
        if not all(math.isfinite(p) for p in self.param):
            raise ValueError(f"{self.kind} parameters must be finite, got {self.param}")
        # the matrix raises on parameters it cannot use (a zero rotation axis)
        # and overflows on those too far out: e^lam, 1 / e^lam or |a|^2
        with np.errstate(all="ignore"):
            if not np.isfinite(generator_matrix(self)).all():
                raise ValueError(f"{self.kind} parameters {self.param}"
                                 " overflow its SO(4,1) matrix")


# parameter count; (s, R, t) of the similarity x -> s R x + t of a parameter
# tuple, or None for the inversion; seeded parameter draw
GeneratorKind = namedtuple("GeneratorKind", "nparams similarity draw")


def _draw_rotation(rng: np.random.Generator) -> tuple:
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    return tuple(axis) + (float(rng.uniform(-np.pi, np.pi)),)


# random_word picks kinds by index into this order: seeded words depend on it
GENERATOR_KINDS = {
    "dil": GeneratorKind(1, lambda p: (np.exp(p[0]), np.eye(3), np.zeros(3)),
                         lambda rng: (float(rng.uniform(-1.0, 1.0)),)),
    "rot": GeneratorKind(4, lambda p: (1.0, axis_angle_matrix(p[:3], p[3]), np.zeros(3)),
                         _draw_rotation),
    "tra": GeneratorKind(3, lambda p: (1.0, np.eye(3), np.array(p, dtype=float)),
                         lambda rng: tuple(rng.uniform(-1.0, 1.0, size=3))),
    "inv": GeneratorKind(0, None, lambda rng: ()),
}


def generator_matrix(gen: Generator) -> np.ndarray:
    """SO(4,1) matrix of one generator: a similarity's, or the inversion
    x -> x / |x|^2, which fixes Y4 and negates the other components."""
    similarity = GENERATOR_KINDS[gen.kind].similarity
    if similarity is None:
        return np.diag([-1.0, -1.0, -1.0, 1.0, -1.0])
    return _similarity_matrix(*similarity(gen.param))


def word_steps(word):
    """A word's generators left-to-right in steps: each maximal run of
    similarities as the (s, R, t) of its composed map x -> s R x + t, each
    inversion as its ``Generator``.  A composition that overflows is left
    to the caller's finiteness check."""
    for similar, run in groupby(
            word, key=lambda gen: GENERATOR_KINDS[gen.kind].similarity is not None):
        if not similar:
            yield from run
            continue
        s, rot, t = 1.0, np.eye(3), np.zeros(3)
        with np.errstate(all="ignore"):
            for gen in run:
                s_gen, rot_gen, t_gen = GENERATOR_KINDS[gen.kind].similarity(gen.param)
                s, rot, t = s_gen * s, rot_gen @ rot, s_gen * rot_gen @ t + t_gen
        yield s, rot, t


def word_matrix(word) -> np.ndarray:
    """SO(4,1) matrix of a generator word, one factor per ``word_steps`` step,
    so that similarities that cancel (dil:30 dil:-30) give the identity.
    Factors across an inversion can still cancel (dil:20 inv dil:20): a
    product too small for its eps-times-factor-sizes error is a ValueError."""
    m, bound = np.eye(5), 1.0
    with np.errstate(all="ignore"):
        for step in word_steps(word):
            factor = (generator_matrix(step) if isinstance(step, Generator)
                      else _similarity_matrix(*step))
            m = factor @ m
            bound *= np.max(np.abs(factor))
    if not np.isfinite(m).all():
        raise ValueError("the SO(4,1) matrix of the word overflows")
    size = np.max(np.abs(m))
    if not np.finfo(float).eps * bound <= WORD_MATRIX_TOL * size:
        raise ValueError("the SO(4,1) matrix of the word is lost to cancellation:"
                         f" factors whose sizes multiply to {bound:.1e} give one"
                         f" of size {size:.1e}")
    return m


_AXIS_NAMES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}


def parse_word(text: str) -> list:
    """Parse a word like ``"dil:0.5 rot:z,1.2 inv tra:1,0,0"``.

    Tokens are whitespace-separated and applied left-to-right.  Rotation
    parameters are either ``axisname,angle`` or ``ax,ay,az,angle``.
    """
    word = []
    for token in text.split():
        kind, colon, raw = token.partition(":")
        parts = raw.split(",") if colon else []
        spec = GENERATOR_KINDS.get(kind)
        if spec and spec.nparams == 4 and len(parts) == 2 and parts[0] in _AXIS_NAMES:
            parts = [*_AXIS_NAMES[parts[0]], parts[1]]
        try:
            word.append(Generator(kind, tuple(float(p) for p in parts)))
        except ValueError as exc:
            raise ValueError(f"bad generator {token!r}: {exc}") from None
    return word


def random_word(rng: np.random.Generator, allow_inversion: bool = True) -> list:
    """Random generator word with benign parameters (|lam| <= 1, |a| <= 1)."""
    length = int(rng.integers(MIN_WORD_LENGTH, MAX_WORD_LENGTH + 1))
    kinds = [k for k in GENERATOR_KINDS if allow_inversion or k != "inv"]
    word = []
    for _ in range(length):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        word.append(Generator(kind, GENERATOR_KINDS[kind].draw(rng)))
    return word
