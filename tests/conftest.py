import functools

import numpy as np
import pytest

from confgauss.grid import fundamental_data
from confgauss.lorentz import dehomogenize, lift
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
