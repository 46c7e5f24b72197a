import functools

import numpy as np
import pytest

from confgauss.grid import fundamental_data
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
