"""Property test: export_csv writes exactly the bytes of np.savetxt."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from confgauss import grid as G  # noqa: E402
from confgauss.zoo import make_surface  # noqa: E402
from conftest import savetxt_reference  # noqa: E402


@st.composite
def grids_and_fields(draw):
    nu, nv = draw(st.integers(9, 20)), draw(st.integers(9, 20))
    u0 = draw(st.floats(-100.0, 100.0))
    v0 = draw(st.floats(-100.0, 100.0))
    hu = draw(st.floats(1e-3, 10.0))
    hv = draw(st.floats(1e-3, 10.0))
    u = u0 + hu * np.arange(nu)
    v = v0 + hv * np.arange(nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    grid = G.ChartGrid("r3", u, v, make_surface("plane").jet_fn(uu, vv))
    values = arrays(np.float64, (nu, nv, 6), elements=st.floats(width=64))
    a = draw(values)
    omega = a[..., 4].astype(complex)
    omega.imag = a[..., 5]
    fields = {"H": a[..., 0], "n": a[..., 1:4], "Omega": omega}
    return grid, fields


@settings(max_examples=40, deadline=None)
@given(grids_and_fields())
def test_export_csv_matches_savetxt_property(tmp_path_factory, case):
    grid, fields = case
    tmp = tmp_path_factory.mktemp("export")
    G.export_csv(tmp / "got.csv", grid, fields)
    savetxt_reference(tmp / "want.csv", grid, fields)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
