"""Linear algebra of R^{4,1}: the (4,1) product, vector taxonomy and SO(4,1).

The model space is R^5 with the Lorentzian product
``<u, v> = u1 v1 + u2 v2 + u3 v3 + u4 v4 - u5 v5``.  Conformal
diffeomorphisms of R^3 (and of S^3) are represented by SO(4,1) matrices
acting on isotropic lifts of points.  ``CHARTS`` is the one table of how
R^3, S^3 and H^3 sit in the light cone: every lift and projection of a
point, a field or a jet reads it.  ``GENERATOR_KINDS`` is the one table of
Moebius generator kinds (dilations, rotations, the inversion at the origin
and translations): parameter count, SO(4,1) matrix and seeded draw.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPSILON",
    "V_S",
    "V_T",
    "V_L",
    "INFINITY",
    "dot",
    "lorentz_product",
    "CHARTS",
    "lift",
    "dehomogenize",
    "classify_vector",
    "dilation_matrix",
    "rotation_matrix",
    "axis_angle_matrix",
    "inversion_matrix",
    "translation_matrix",
    "is_so41",
    "act_on_r3",
    "act_on_s3",
    "Generator",
    "GeneratorKind",
    "GENERATOR_KINDS",
    "generator_matrix",
    "word_matrix",
    "parse_word",
    "random_word",
]

# Metric signature matrix of R^{4,1}.
EPSILON = np.diag([1.0, 1.0, 1.0, 1.0, -1.0])

# Distinguished normals: spacelike, timelike, lightlike.
V_S = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
V_T = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
V_L = np.array([0.0, 0.0, 0.0, 1.0, 1.0])

ORTHOGONALITY_TOL = 1e-10
INFINITY_TOL = 1e-12
MIN_WORD_LENGTH = 3
MAX_WORD_LENGTH = 6

SPACELIKE = "spacelike"
LIGHTLIKE = "lightlike"
TIMELIKE = "timelike"


class _Infinity:
    """Sentinel for the point at infinity of R^3 ∪ {∞}."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


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


def dilation_matrix(lam: float) -> np.ndarray:
    """SO(4,1) matrix of the dilation x -> e^lam x."""
    m = np.eye(5)
    c, s = np.cosh(lam), np.sinh(lam)
    m[3, 3] = c
    m[3, 4] = s
    m[4, 3] = s
    m[4, 4] = c
    return m


def rotation_matrix(theta: np.ndarray) -> np.ndarray:
    """SO(4,1) matrix of the rotation x -> theta x, theta in SO(3)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3, 3):
        raise ValueError("rotation parameter must be a 3x3 matrix")
    if np.max(np.abs(theta.T @ theta - np.eye(3))) > ORTHOGONALITY_TOL:
        raise ValueError("rotation parameter is not orthogonal")
    if np.linalg.det(theta) < 0.0:
        raise ValueError("orientation-reversing rotation not supported")
    m = np.eye(5)
    m[:3, :3] = theta
    return m


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about ``axis`` by ``angle``, as a 3x3 matrix."""
    a = np.asarray(axis, dtype=float)
    norm = math.hypot(*a)  # no overflow or underflow at any finite scale
    if norm == 0.0:
        raise ValueError("zero rotation axis")
    a = a / norm
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def inversion_matrix() -> np.ndarray:
    """SO(4,1) matrix of the inversion x -> x / |x|^2."""
    return np.diag([-1.0, -1.0, -1.0, 1.0, -1.0])


def translation_matrix(a) -> np.ndarray:
    """SO(4,1) matrix of the translation x -> x + a."""
    a = np.asarray(a, dtype=float).reshape(3)
    half = float(np.dot(a, a)) / 2.0
    m = np.eye(5)
    m[:3, 3] = -a
    m[:3, 4] = a
    m[3, :3] = a
    m[4, :3] = a
    m[3, 3] = 1.0 - half
    m[3, 4] = half
    m[4, 3] = -half
    m[4, 4] = 1.0 + half
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
    instead: E_K v + <x, v> q.  R^3's INFINITY lifts to V_L.
    """
    if x is INFINITY:
        return V_L.copy()
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


def act_on_r3(m, x, so41_tol: float = 1e-9):
    """Conformal action of m in SO(4,1) on x in R^3 ∪ {INFINITY}.

    Computes y = m p(x) and returns y[:3] / (y5 - y4), routing to INFINITY
    when |y5 - y4| <= INFINITY_TOL * max(1, |y|).
    """
    m = np.asarray(m, dtype=float)
    if not is_so41(m, so41_tol):
        raise ValueError("matrix is not in SO(4,1)")
    y = m @ lift(x, "r3")
    num, denom = dehomogenize(y, "r3")
    if abs(denom) <= INFINITY_TOL * max(1.0, float(np.linalg.norm(y))):
        return INFINITY
    return num / denom


def act_on_s3(m, x, tol: float = 1e-9):
    """Conformal action of m in SO(4,1) on a unit vector x of S^3."""
    m = np.asarray(m, dtype=float)
    if not is_so41(m, tol):
        raise ValueError("matrix is not in SO(4,1)")
    x = np.asarray(x, dtype=float).reshape(4)
    if abs(np.dot(x, x) - 1.0) > tol:
        raise ValueError("point is not on S^3")
    num, denom = dehomogenize(m @ lift(x, "s3"), "s3")
    return num / denom


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
        # the kind's matrix raises on parameters it cannot use (a zero rotation axis)
        spec.matrix(self.param)


# parameter count, SO(4,1) matrix of a parameter tuple, seeded parameter draw
GeneratorKind = namedtuple("GeneratorKind", "nparams matrix draw")


def _draw_rotation(rng: np.random.Generator) -> tuple:
    axis = rng.normal(size=3)
    axis = axis / np.linalg.norm(axis)
    return tuple(axis) + (float(rng.uniform(-np.pi, np.pi)),)


# random_word picks kinds by index into this order: seeded words depend on it
GENERATOR_KINDS = {
    "dil": GeneratorKind(1, lambda p: dilation_matrix(p[0]),
                         lambda rng: (float(rng.uniform(-1.0, 1.0)),)),
    "rot": GeneratorKind(4, lambda p: rotation_matrix(axis_angle_matrix(p[:3], p[3])),
                         _draw_rotation),
    "tra": GeneratorKind(3, translation_matrix,
                         lambda rng: tuple(rng.uniform(-1.0, 1.0, size=3))),
    "inv": GeneratorKind(0, lambda p: inversion_matrix(), lambda rng: ()),
}


def generator_matrix(gen: Generator) -> np.ndarray:
    return GENERATOR_KINDS[gen.kind].matrix(gen.param)


def word_matrix(word) -> np.ndarray:
    """SO(4,1) matrix of a generator word composed left-to-right."""
    m = np.eye(5)
    for gen in word:
        m = generator_matrix(gen) @ m
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
