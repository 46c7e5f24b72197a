"""Linear algebra of R^{4,1}: the (4,1) product, vector taxonomy and SO(4,1).

The model space is R^5 with the Lorentzian product
``<u, v> = u1 v1 + u2 v2 + u3 v3 + u4 v4 - u5 v5``.  Conformal
diffeomorphisms of R^3 (and of S^3) are represented by SO(4,1) matrices
acting on isotropic lifts of points; the generator matrices below realise
dilations, rotations, the inversion at the origin and translations.
"""

from __future__ import annotations

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
    "lift_r3",
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


def rotation_matrix(theta: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """SO(4,1) matrix of the rotation x -> theta x, theta in SO(3)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (3, 3):
        raise ValueError("rotation parameter must be a 3x3 matrix")
    if np.max(np.abs(theta.T @ theta - np.eye(3))) > tol:
        raise ValueError("rotation parameter is not orthogonal")
    if np.linalg.det(theta) < 0.0:
        raise ValueError("orientation-reversing rotation not supported")
    m = np.eye(5)
    m[:3, :3] = theta
    return m


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about ``axis`` by ``angle``, as a 3x3 matrix."""
    a = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(a)
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


def lift_r3(phi) -> np.ndarray:
    """Isotropic lift of R^3 points: (phi, (|phi|^2-1)/2, (|phi|^2+1)/2)."""
    if phi is INFINITY:
        return V_L.copy()
    phi = np.asarray(phi, dtype=float)
    r2 = dot(phi, phi)
    return np.concatenate(
        [phi, ((r2 - 1.0) / 2.0)[..., None], ((r2 + 1.0) / 2.0)[..., None]], axis=-1
    )


def act_on_r3(m, x, tol: float = 1e-12, so41_tol: float = 1e-9):
    """Conformal action of m in SO(4,1) on x in R^3 ∪ {INFINITY}.

    Computes y = m p(x) and returns y[:3] / (y5 - y4), routing to INFINITY
    when |y5 - y4| <= tol * max(1, |y|).
    """
    m = np.asarray(m, dtype=float)
    if not is_so41(m, so41_tol):
        raise ValueError("matrix is not in SO(4,1)")
    y = m @ lift_r3(x)
    denom = y[4] - y[3]
    if abs(denom) <= tol * max(1.0, float(np.linalg.norm(y))):
        return INFINITY
    return y[:3] / denom


def act_on_s3(m, x, tol: float = 1e-9):
    """Conformal action of m in SO(4,1) on a unit vector x of S^3."""
    m = np.asarray(m, dtype=float)
    if not is_so41(m, tol):
        raise ValueError("matrix is not in SO(4,1)")
    x = np.asarray(x, dtype=float).reshape(4)
    if abs(np.dot(x, x) - 1.0) > tol:
        raise ValueError("point is not on S^3")
    v = m @ np.concatenate([x, [1.0]])
    return v[:4] / v[4]


@dataclass(frozen=True)
class Generator:
    """One factor of a Moebius word: kind plus its parameter tuple."""

    kind: str
    param: tuple = ()


def generator_matrix(gen: Generator) -> np.ndarray:
    if gen.kind == "dil":
        return dilation_matrix(gen.param[0])
    if gen.kind == "rot":
        axis, angle = gen.param[:3], gen.param[3]
        return rotation_matrix(axis_angle_matrix(axis, angle))
    if gen.kind == "inv":
        return inversion_matrix()
    if gen.kind == "tra":
        return translation_matrix(gen.param)
    raise ValueError(f"unknown generator kind {gen.kind!r}")


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
        if ":" in token:
            kind, raw = token.split(":", 1)
            parts = raw.split(",")
        else:
            kind, parts = token, []
        if kind == "dil":
            if len(parts) != 1:
                raise ValueError(f"dil takes one parameter, got {token!r}")
            word.append(Generator("dil", (float(parts[0]),)))
        elif kind == "rot":
            if len(parts) == 2 and parts[0] in _AXIS_NAMES:
                axis = _AXIS_NAMES[parts[0]]
                angle = float(parts[1])
            elif len(parts) == 4:
                axis = tuple(float(p) for p in parts[:3])
                angle = float(parts[3])
            else:
                raise ValueError(f"rot takes axis,angle, got {token!r}")
            word.append(Generator("rot", axis + (angle,)))
        elif kind == "inv":
            if parts:
                raise ValueError("inv takes no parameter")
            word.append(Generator("inv"))
        elif kind == "tra":
            if len(parts) != 3:
                raise ValueError(f"tra takes three parameters, got {token!r}")
            word.append(Generator("tra", tuple(float(p) for p in parts)))
        else:
            raise ValueError(f"unknown generator {kind!r}")
    return word


def random_word(rng: np.random.Generator, min_len: int = 3, max_len: int = 6,
                allow_inversion: bool = True) -> list:
    """Random generator word with benign parameters (|lam| <= 1, |a| <= 1)."""
    length = int(rng.integers(min_len, max_len + 1))
    kinds = ["dil", "rot", "tra"] + (["inv"] if allow_inversion else [])
    word = []
    for _ in range(length):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "dil":
            word.append(Generator("dil", (float(rng.uniform(-1.0, 1.0)),)))
        elif kind == "rot":
            axis = rng.normal(size=3)
            axis = axis / np.linalg.norm(axis)
            word.append(Generator("rot", tuple(axis) + (float(rng.uniform(-np.pi, np.pi)),)))
        elif kind == "tra":
            word.append(Generator("tra", tuple(rng.uniform(-1.0, 1.0, size=3))))
        else:
            word.append(Generator("inv"))
    return word
