import functools

import numpy as np
import pytest

from confgauss.grid import fundamental_data
from confgauss.lorentz import EPSILON, dehomogenize, lift
from confgauss.zoo import make_surface, sample


@functools.lru_cache(maxsize=64)
def _cached_data(name, n, param_items, domain):
    spec = make_surface(name, **dict(param_items))
    grid = sample(spec, n, domain=domain)
    return fundamental_data(grid)


def data_for(name, n=128, domain=None, **params):
    """Sampled fundamental data, cached across tests."""
    key_domain = None
    if domain is not None:
        key_domain = (tuple(domain[0]), tuple(domain[1]))
    return _cached_data(name, n, tuple(sorted(params.items())), key_domain)


# how far a fit from merged band moments may move v and eta from the
# one-band fit (2.2e-11 measured at N = 513)
FIT_MOVE_TOL = 1e-10
# the rms's relative agreement with the direct sum over the samples
FIT_RMS_REL_TOL = 1e-4


def _interior_z(y):
    """z = (Y, -1) at the interior nodes of the Gauss map ``y``, (k, 6)."""
    z = np.empty(y[2:-2, 2:-2].shape[:-1] + (6,))
    z[..., :5] = y[2:-2, 2:-2]
    z[..., 5] = -1.0
    return z.reshape(-1, 6)


def direct_rms(y, plane):
    """The rms of <Y, v> - eta over the interior nodes of the Gauss map
    ``y``, summed directly, and its rounding floor: eps times the rms of
    the sum of |z_k w_k| over z = (Y, -1), w = (eps v, eta).  An rms at
    that floor (1e-16 on the minimal charts) moves by up to 16 % with the
    order in which <z, w> is added up."""
    z = _interior_z(y)
    w = np.append(EPSILON @ plane.v, plane.eta)
    floor = np.finfo(float).eps * np.sqrt(np.mean((np.abs(z) @ np.abs(w)) ** 2))
    return float(np.sqrt(np.mean((z @ w) ** 2))), float(floor)


def fit_rounding(y):
    """How far rounding alone may move the fit of the interior nodes of
    ``y``: eps sqrt(k) times the ratio of the largest to the second
    smallest eigenvalue of their 6x6 second moment, over k nodes, which
    bounds the move of its smallest eigenvector under a rounding of the
    moment's k-term sums.  The fits of four moved charts at N = 65 to 513
    moved by at most 1/25 of it."""
    z = _interior_z(y)
    flip = np.append(np.diag(EPSILON), 1.0)
    evals = np.linalg.eigvalsh((z.T @ z) * np.outer(flip, flip) / len(z))
    return float(np.finfo(float).eps * np.sqrt(len(z)) * evals[-1] / evals[1])


def assert_same_but_fit_digits(banded, whole, y, move_tol=FIT_MOVE_TOL):
    """Two reports of one chart whose bands differ: the same numbers,
    verdict, kappa, normal type and linear flag; v and eta within
    ``move_tol``; the rms within FIT_RMS_REL_TOL of the direct sum at the
    reported plane, or within that sum's rounding floor."""
    a, b = banded.hyperplane, whole.hyperplane
    assert banded.numbers == whole.numbers
    assert (banded.verdict, banded.kappa, a.vtype, a.linear) == (
        whole.verdict, whole.kappa, b.vtype, b.linear)
    assert np.max(np.abs(a.v - b.v)) <= move_tol
    assert abs(a.eta - b.eta) <= move_tol
    rms, floor = direct_rms(y, a)
    assert abs(a.rms - rms) <= FIT_RMS_REL_TOL * rms + floor, (a.rms, rms, floor)


def transfer_law(data, target):
    """The gauge-transfer law that moves R^3 data (lam, n, H, Omega) at
    phi = data.grid.pos to S^3 (s = +1) or H^3 (s = -1, needs |phi| < 1):

    e^{2 Lam} = 4 e^{2 lam} / (1 + s|phi|^2)^2,
    h = (1 + s|phi|^2) H / 2 + s <n, phi>,
    omega = 2 Omega / (1 + s|phi|^2),
    and the induced normal (n, 0) - 2 s <n, phi> / (1 + s|phi|^2) (phi, -s).
    """
    s = {"s3": 1.0, "h3": -1.0}[target]
    phi, n = data.grid.pos, data.n
    conf = 1.0 + s * np.sum(phi * phi, axis=-1)
    n_phi = np.sum(n * phi, axis=-1)
    last = np.full(conf.shape + (1,), -s)
    normal = (np.concatenate([n, np.zeros_like(last)], axis=-1)
              - (2.0 * s * n_phi / conf)[..., None] * np.concatenate([phi, last], axis=-1))
    return (data.lam + np.log(2.0 / conf), normal,
            conf / 2.0 * data.H + s * n_phi, 2.0 * data.Omega / conf)


def cone_map(x, source, target, m=np.eye(5)):
    """Points x of ``source`` lifted to the cone, moved by the SO(4,1) matrix
    m and dehomogenized in ``target``: a Moebius map or a change of model."""
    num, den = dehomogenize(lift(x, source) @ np.transpose(m), target)
    return num / np.asarray(den)[..., None]


# The point maps between the models in closed form, on the last axis; none
# reads lorentz.CHARTS.  Stereographic projection is from the north pole
# (0, 0, 0, 1) of S^3, hyperbolic projection from (0, 0, 0, -1) onto the
# Poincare ball, with H^3 the upper sheet z4 = sqrt(1 + |z|^2).
def stereo_inv(x):
    """R^3 -> S^3: (2x, |x|^2 - 1) / (1 + |x|^2)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    return np.concatenate([2.0 * x, r2 - 1.0], axis=-1) / (1.0 + r2)


def stereo(p):
    """S^3 minus the north pole -> R^3: p[:3] / (1 - p4)."""
    p = np.asarray(p, dtype=float)
    return p[..., :3] / (1.0 - p[..., 3:])


def hyper_inv(x):
    """Poincare ball -> H^3: (2x, 1 + |x|^2) / (1 - |x|^2)."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    return np.concatenate([2.0 * x, 1.0 + r2], axis=-1) / (1.0 - r2)


def hyper(z):
    """H^3 -> Poincare ball: z[:3] / (1 + z4)."""
    z = np.asarray(z, dtype=float)
    return z[..., :3] / (1.0 + z[..., 3:])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def savetxt_reference(path, grid, fields):
    """The np.savetxt call whose bytes grid.export_csv must reproduce."""
    uu, vv = np.meshgrid(grid.u, grid.v, indexing="ij")
    cols = [uu.ravel(), vv.ravel()]
    names = ["u", "v"]
    for name, f in fields.items():
        f = np.asarray(f)
        comps = ([(name, f)] if f.ndim == 2 else
                 [(f"{name}{k + 1}", f[..., k]) for k in range(f.shape[-1])])
        for cname, comp in comps:
            if np.iscomplexobj(comp):
                cols += [comp.real.ravel(), comp.imag.ravel()]
                names += [f"{cname}_re", f"{cname}_im"]
            else:
                cols += [comp.ravel()]
                names += [cname]
    np.savetxt(path, np.column_stack(cols), delimiter=",",
               header=",".join(names), comments="", fmt="%.17g")
