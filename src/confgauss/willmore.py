"""Willmore operator, minimality of the congruence, and conservation laws.

The Willmore scalar in the data's own gauge, the harmonic-map residual
of Y, the conserved currents attached to translations, dilations, rotations
and inversions, their block extraction from the antisymmetric matrix
mu = grad(Y) Y^T - Y grad(Y)^T, Moebius equivariance and inversion exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruence import CongruenceGrid, conformal_gauss_map, transform_immersion
from .grid import FundamentalData, interior_max, ChartGrid
from .lorentz import Generator, dot, inversion_matrix, lorentz_product

__all__ = [
    "ConservedSet",
    "willmore_scalar",
    "harmonicity_residual",
    "conserved_matrix",
    "equivariance_residuals",
    "direct_currents",
    "extract_from_mu",
    "divergence_residual",
    "inversion_exchange_check",
]


def willmore_scalar(data: FundamentalData) -> np.ndarray:
    """W = H_zzbar + (|Omega|^2 e^{-2lam} / 2) H in the data's own gauge."""
    g = data.grid
    h_zzb = g.dzbar(g.dz(data.H)).real
    return h_zzb + 0.5 * np.abs(data.Omega) ** 2 * np.exp(-2.0 * data.lam) * data.H


def harmonicity_residual(cong: CongruenceGrid) -> np.ndarray:
    """Per-node euclidean norm of Delta Y + <grad Y . grad Y> Y."""
    res = 4.0 * (cong.Yzzb + lorentz_product(cong.Yz, cong.Yzb)[..., None] * cong.Y)
    return np.sqrt(dot(res.real, res.real) + dot(res.imag, res.imag))


def conserved_matrix(cong: CongruenceGrid):
    """mu = grad(Y) Y^T - Y grad(Y)^T, one 5x5 per coordinate direction."""
    y = cong.Y
    y_u = 2.0 * cong.Yz.real
    y_v = -2.0 * cong.Yz.imag
    mu_x = np.einsum("...i,...j->...ij", y_u, y) - np.einsum("...i,...j->...ij", y, y_u)
    mu_y = np.einsum("...i,...j->...ij", y_v, y) - np.einsum("...i,...j->...ij", y, y_v)
    return mu_x, mu_y


def equivariance_residuals(cong: CongruenceGrid, moved: CongruenceGrid, m: np.ndarray):
    """Residuals (Y, mu) of Y_phi = M Y and mu_phi = M mu M^T.

    ``moved`` is the congruence of the surface moved by the Moebius
    transformation whose SO(4,1) matrix is ``m``.  The Y residual is the
    max over the whole grid, the mu residual the interior max over both
    coordinate directions.
    """
    y_err = float(np.max(np.abs(moved.Y - cong.Y @ m.T)))
    mu, mu_moved = conserved_matrix(cong), conserved_matrix(moved)
    mu_err = max(interior_max(mu_moved[k] - m @ mu[k] @ m.T) for k in range(2))
    return y_err, mu_err


@dataclass
class ConservedSet:
    """Conserved currents; leading axis 2 runs over the (x, y) directions."""

    v_tra: np.ndarray  # (2, N, M, 3)
    v_dil: np.ndarray  # (2, N, M)
    v_rot: np.ndarray | None  # (2, N, M, 3); None when block-extracted
    v_rot_tilde: np.ndarray  # (2, N, M, 3)
    v_inv: np.ndarray  # (2, N, M, 3)


def direct_currents(data: FundamentalData) -> ConservedSet:
    """Currents from the explicit formulas of the R^3 gauge.

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
    phi = g.pos
    phi_x, phi_y = g.jet.du, g.jet.dv
    n = data.n
    h_x, h_y = g.d_u(data.H), g.d_v(data.H)
    a11, a12 = data.tracefree_form()
    a_grad = np.stack(
        [
            a11[..., None] * phi_x + a12[..., None] * phi_y,
            a12[..., None] * phi_x - a11[..., None] * phi_y,
        ]
    )
    grad_h = np.stack([h_x, h_y])
    v_tra = -2.0 * (grad_h[..., None] * n + data.H[..., None] * a_grad)
    v_dil = dot(v_tra, phi)
    perp_grad_phi = np.stack([-phi_y, phi_x])
    v_rot = np.cross(phi, v_tra) + 2.0 * data.H[..., None] * perp_grad_phi
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


def _max_current_diff(a, b) -> float:
    return interior_max(np.moveaxis(np.asarray(a) - np.asarray(b), 0, 2))


def inversion_exchange_check(data: FundamentalData) -> dict:
    """Exchange law of the currents under the inversion at the origin.

    Builds the inverted surface from the same chart, computes both sets of
    currents and the mu transport, and reports the residuals of
    V_tra,i = V_inv, V_inv,i = V_tra, V_dil,i = -V_dil, V~_rot,i = V~_rot
    and mu_i = M mu M^T.
    """
    if data.model != "r3":
        raise ValueError("inversion exchange needs R^3 data")
    data_inv = transform_immersion(data, [Generator("inv")])  # raises when the surface meets 0
    cur = direct_currents(data)
    cur_inv = direct_currents(data_inv)
    res = {
        "tra_vs_inv": _max_current_diff(cur_inv.v_tra, cur.v_inv),
        "inv_vs_tra": _max_current_diff(cur_inv.v_inv, cur.v_tra),
        "dil_flip": _max_current_diff(cur_inv.v_dil, -cur.v_dil),
        "rot_tilde_fixed": _max_current_diff(cur_inv.v_rot_tilde, cur.v_rot_tilde),
    }
    res["mu_transport"] = equivariance_residuals(
        conformal_gauss_map(data), conformal_gauss_map(data_inv), inversion_matrix())[1]
    return res
