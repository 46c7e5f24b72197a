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
