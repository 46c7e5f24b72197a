"""Willmore operator, minimality of the congruence, and conservation laws.

The Willmore scalar in the data's own gauge, the harmonic-map residual
of Y, the conserved currents attached to translations, dilations, rotations
and inversions, their block extraction from the antisymmetric matrix
mu = grad(Y) Y^T - Y grad(Y)^T, Moebius equivariance and inversion exchange.
The residuals of the last three are reduced one row block at a time, each
node as on the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruence import CongruenceGrid, conformal_gauss_map, transform_immersion
from .grid import FundamentalData, interior_max, ChartGrid, rows_read
from .jets import row_blocks
from .lorentz import Generator, dot, word_matrix

__all__ = [
    "ConservedSet",
    "willmore_scalar",
    "harmonicity_residual",
    "conserved_matrix",
    "equivariance_residuals",
    "direct_currents",
    "extract_from_mu",
    "divergence_residual",
    "conserved_residuals",
    "inversion_exchange_check",
]


def willmore_scalar(data: FundamentalData) -> np.ndarray:
    """W = H_zzbar + (|Omega|^2 e^{-2lam} / 2) H in the data's own gauge.

    H_zzbar = (d_u H_u + d_v H_v) / 4 in real arithmetic, one more pass per
    axis over the kept ``grad_H``.
    """
    g = data.grid
    h_u, h_v = data.grad_H
    h_zzb = (g.d_u(h_u) + g.d_v(h_v)) / 4.0
    return h_zzb + 0.5 * np.abs(data.Omega) ** 2 * np.exp(-2.0 * data.lam) * data.H


def harmonicity_residual(cong: CongruenceGrid) -> np.ndarray:
    """Per-node euclidean norm of Delta Y + |grad Y|^2 Y, a real field:
    4 Y_zzbar + (<Y_u, Y_u> + <Y_v, Y_v>) Y."""
    res = 4.0 * cong.Yzzb + (2.0 * cong.e2L)[..., None] * cong.Y
    return np.sqrt(dot(res, res))


def _mu(y, y_d):
    """Y_d Y^T - Y Y_d^T, mu's 5x5 in one coordinate direction d."""
    return np.einsum("...i,...j->...ij", y_d, y) - np.einsum("...i,...j->...ij", y, y_d)


def conserved_matrix(cong: CongruenceGrid):
    """mu = grad(Y) Y^T - Y grad(Y)^T, one 5x5 per coordinate direction, on
    the rows of ``cong``, a whole congruence or a ``row_block``."""
    y_u, y_v = cong.grad_Y
    return _mu(cong.Y, y_u), _mu(cong.Y, y_v)


def _row_blocks(grid: ChartGrid):
    """The row blocks of the residuals below, ``BLOCK_NODES`` pairs of a
    node and a direction each; their maxima merge by the NaN-keeping
    ``np.maximum``."""
    return row_blocks(grid.shape + (2,))


def equivariance_residuals(cong: CongruenceGrid, moved: CongruenceGrid, m: np.ndarray):
    """Residuals (Y, mu) of Y_phi = M Y and mu_phi = M mu M^T.

    ``moved`` is the congruence of the surface moved by the Moebius
    transformation whose SO(4,1) matrix is ``m``.  The Y residual is the
    max over the whole grid, the mu residual the interior max over both
    coordinate directions, taken one row block and one direction at a time.
    """
    y_err = float(np.max(np.abs(moved.Y - cong.Y @ m.T)))
    n, mu_err = cong.grid.shape[0], 0.0
    for rows in _row_blocks(cong.grid):
        block, block_moved = cong.row_block(rows), moved.row_block(rows)
        for k in range(2):
            diff = (_mu(block_moved.Y, block_moved.grad_Y[k])
                    - m @ _mu(block.Y, block.grad_Y[k]) @ m.T)
            mu_err = np.maximum(mu_err, interior_max(diff, rows=rows, n=n))
    return y_err, float(mu_err)


@dataclass
class ConservedSet:
    """Conserved currents; leading axis 2 runs over the (x, y) directions,
    the next over the grid rows that they were taken on."""

    v_tra: np.ndarray  # (2, N, M, 3)
    v_dil: np.ndarray  # (2, N, M)
    v_rot: np.ndarray | None  # (2, N, M, 3); None when block-extracted
    v_rot_tilde: np.ndarray  # (2, N, M, 3)
    v_inv: np.ndarray  # (2, N, M, 3)


def direct_currents(data: FundamentalData, rows: slice = slice(None)) -> ConservedSet:
    """Currents from the explicit formulas of the R^3 gauge, on the grid
    rows ``rows``.

    V_tra = -2 (grad(H) n + H Atf grad(Phi)); V_dil = <V_tra, Phi>;
    V_rot = Phi x V_tra + 2 H perp(grad Phi);
    V~_rot = Phi x V_tra + 2 Atf grad(Phi) x n;
    V_inv = |Phi|^2 V_tra - 2 V_dil Phi + 4 Phi x (n x Atf grad Phi),
    the divergence-form inversion current (the sign that matches both the
    block decomposition of mu and the inversion exchange law).
    """
    if data.model != "r3":
        raise ValueError("currents are defined on R^3 data")
    g = data.grid
    phi = g.pos[rows]
    phi_x, phi_y = g.jet.du[rows], g.jet.dv[rows]
    n = data.n[rows]
    h_x, h_y = (h[rows] for h in data.grad_H)
    h = data.H[rows]
    a11, a12 = data.tracefree_form(rows)
    a_grad = np.stack(
        [
            a11[..., None] * phi_x + a12[..., None] * phi_y,
            a12[..., None] * phi_x - a11[..., None] * phi_y,
        ]
    )
    grad_h = np.stack([h_x, h_y])
    v_tra = -2.0 * (grad_h[..., None] * n + h[..., None] * a_grad)
    v_dil = dot(v_tra, phi)
    perp_grad_phi = np.stack([-phi_y, phi_x])
    v_rot = np.cross(phi, v_tra) + 2.0 * h[..., None] * perp_grad_phi
    v_rot_tilde = np.cross(phi, v_tra) + 2.0 * np.cross(a_grad, n)
    r2 = dot(phi, phi)
    v_inv = (
        r2[..., None] * v_tra
        - 2.0 * v_dil[..., None] * phi
        + 4.0 * np.cross(phi, np.cross(n, a_grad))
    )
    return ConservedSet(v_tra, v_dil, v_rot, v_rot_tilde, v_inv)


def extract_from_mu(mu_pair) -> ConservedSet:
    """Read the currents off the stated blocks of 2 mu."""
    b = 2.0 * np.stack(mu_pair)
    v_dil = b[..., 3, 4]
    v_tra = b[..., 0:3, 4] - b[..., 0:3, 3]
    v_inv = b[..., 0:3, 4] + b[..., 0:3, 3]
    v_rot_tilde = np.stack(
        [b[..., 2, 1], b[..., 0, 2], b[..., 1, 0]], axis=-1
    )
    return ConservedSet(v_tra, v_dil, None, v_rot_tilde, v_inv)


def divergence_residual(current, grid: ChartGrid) -> float:
    """Interior max norm of the discrete divergence of a current pair."""
    cur = np.asarray(current)
    div = grid.d_u(cur[0]) + grid.d_v(cur[1])
    return interior_max(div)


def _max_current_diff(a, b, rows: slice | None = None, n: int = 0) -> float:
    """``interior_max`` of a current difference, on rows ``rows`` of an
    ``n``-row grid if given."""
    return interior_max(np.moveaxis(np.asarray(a) - np.asarray(b), 0, 2), rows=rows, n=n)


def conserved_residuals(data: FundamentalData, cong: CongruenceGrid | None = None) -> dict:
    """Interior max norms of div V_tra, ``"div_tra"``, and, given the
    congruence ``cong`` of ``data``, of the currents read off mu
    (``extract_from_mu``) against the direct ones, ``"block_vs_direct"``.

    One row block at a time: each takes the direct currents on its rows
    and their ``rows_read`` halo, whose V_tra has one ``d_u_rows`` pass,
    and mu on its rows.  The values are ``divergence_residual`` and
    ``_max_current_diff`` of the whole-grid currents.
    """
    g = data.grid
    n = g.shape[0]
    worst = {"div_tra": 0.0}
    if cong is not None:
        worst["block_vs_direct"] = 0.0
    for rows in _row_blocks(g):
        halo = rows_read(rows, n)
        cur = direct_currents(data, halo)
        own = slice(rows.start - halo.start, rows.stop - halo.start)
        div = g.d_u_rows(cur.v_tra[0], rows) + g.d_v(cur.v_tra[1, own])
        worst["div_tra"] = np.maximum(worst["div_tra"], interior_max(div, rows=rows, n=n))
        if cong is None:
            continue
        ext = extract_from_mu(conserved_matrix(cong.row_block(rows)))
        for name in ("v_tra", "v_dil", "v_rot_tilde", "v_inv"):
            diff = _max_current_diff(getattr(ext, name), getattr(cur, name)[:, own], rows, n)
            worst["block_vs_direct"] = np.maximum(worst["block_vs_direct"], diff)
    return {key: float(value) for key, value in worst.items()}


def inversion_exchange_check(data: FundamentalData) -> dict:
    """Exchange law of the currents under the inversion at the origin.

    Builds the inverted surface from the same chart, computes both sets of
    currents and the mu transport one row block at a time, and reports the
    residuals of V_tra,i = V_inv, V_inv,i = V_tra, V_dil,i = -V_dil,
    V~_rot,i = V~_rot and mu_i = M mu M^T.
    """
    if data.model != "r3":
        raise ValueError("inversion exchange needs R^3 data")
    word = [Generator("inv")]
    data_inv = transform_immersion(data, word)  # raises when the surface meets 0
    n = data.grid.shape[0]
    res = dict.fromkeys(("tra_vs_inv", "inv_vs_tra", "dil_flip", "rot_tilde_fixed"), 0.0)
    for rows in _row_blocks(data.grid):
        cur, cur_inv = direct_currents(data, rows), direct_currents(data_inv, rows)
        for key, a, b in (("tra_vs_inv", cur_inv.v_tra, cur.v_inv),
                          ("inv_vs_tra", cur_inv.v_inv, cur.v_tra),
                          ("dil_flip", cur_inv.v_dil, -cur.v_dil),
                          ("rot_tilde_fixed", cur_inv.v_rot_tilde, cur.v_rot_tilde)):
            res[key] = np.maximum(res[key], _max_current_diff(a, b, rows, n))
    res = {key: float(value) for key, value in res.items()}
    res["mu_transport"] = equivariance_residuals(
        conformal_gauss_map(data), conformal_gauss_map(data_inv), word_matrix(word))[1]
    return res
