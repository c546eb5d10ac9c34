"""Concrete gamma-matrix representations in two and four Euclidean
dimensions, plus the polar-frame matrices used on the disk.

All matrices are small dense complex ndarrays; values are immutable by
convention (functions always return fresh arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GammaRep",
    "make_rep_2d",
    "make_rep_4d_boundary",
    "polar_gammas",
    "gamma_t",
    "anticommutator",
    "slash",
    "stack_2x2",
    "mats_close",
]

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

ALG_TOL = 1e-12  # default tolerance for algebraic identities


@dataclass(frozen=True)
class GammaRep:
    """A concrete Clifford representation.

    Attributes
    ----------
    nu : int
        Space dimension.
    k : int
        Spinor dimension (gammas are k x k).
    gammas : list of ndarray
        The gamma matrices; ``gammas[mu] gammas[al] + gammas[al] gammas[mu]
        = 2 delta_{mu al} Id``.
    gamma5 : ndarray or None
        Chirality matrix, when defined for the representation.
    """

    nu: int
    k: int
    gammas: list = field(default_factory=list)
    gamma5: np.ndarray | None = None


def make_rep_2d() -> GammaRep:
    """Two-dimensional representation built from the Pauli matrices.

    gamma_0 = sigma_1, gamma_1 = sigma_2 and gamma_5 = -i gamma_0 gamma_1
    = sigma_3, so positive-chirality spinors sit in the first component.
    """
    return GammaRep(nu=2, k=2,
                    gammas=[SIGMA_1.copy(), SIGMA_2.copy()],
                    gamma5=SIGMA_3.copy())


def make_rep_4d_boundary() -> GammaRep:
    """Four-dimensional representation adapted to a boundary point.

    gamma_n (normal direction) is the block matrix i [[0, I], [-I, 0]] and
    the tangential gamma_j (j = 1, 2, 3) are [[0, sigma_j], [sigma_j, 0]].
    The gammas are stored as [gamma_n, gamma_1, gamma_2, gamma_3]; gamma5
    is block diag(I, -I), anticommuting with all four.
    """
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    gamma_n = 1j * np.block([[zero, eye], [-eye, zero]])
    tangential = [np.block([[zero, s], [s, zero]]) for s in
                  (SIGMA_1, SIGMA_2, SIGMA_3)]
    gamma5 = np.block([[eye, zero], [zero, -eye]])
    return GammaRep(nu=4, k=4, gammas=[gamma_n] + tangential, gamma5=gamma5)


def stack_2x2(a00, a01, a10, a11) -> np.ndarray:
    """Complex [[a00, a01], [a10, a11]] over the entries' broadcast shape."""
    out = np.empty(np.broadcast(a00, a01, a10, a11).shape + (2, 2), complex)
    out[..., 0, 0], out[..., 0, 1] = a00, a01
    out[..., 1, 0], out[..., 1, 1] = a10, a11
    return out


def polar_gammas(theta):
    """Radial/angular frame matrices on the disk at polar angle theta.

    Returns
    -------
    (gamma_r, gamma_theta) : pair of 2x2 ndarray (``(..., 2, 2)`` stacks
        for an array of angles)
        gamma_r = [[0, e^{-i theta}], [e^{i theta}, 0]] and
        gamma_theta = [[0, -i e^{-i theta}], [i e^{i theta}, 0]]; both are
        unitary, Hermitian, and anticommute.
    """
    em = np.exp(-1j * theta)
    ep = np.exp(1j * theta)
    return stack_2x2(0.0, em, ep, 0.0), stack_2x2(0.0, -1j * em, 1j * ep, 0.0)


def gamma_t(theta) -> np.ndarray:
    """Gamma matrix of the inward normal coordinate t = R - r.

    The inward normal points along -r, so gamma_t = -gamma_r(theta).
    """
    return -polar_gammas(theta)[0]


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def slash(gammas, vector) -> np.ndarray:
    """Contraction sum_mu v_mu gamma_mu for a real or complex vector.

    ``vector`` may be a stack of shape ``(..., nu)``; the result then has
    shape ``(..., k, k)`` with entry ``[j]`` the contraction of row ``j``.
    """
    gammas = np.asarray(gammas, dtype=complex)
    vector = np.asarray(vector)
    if vector.shape[-1:] != (len(gammas),):
        raise ValueError("vector length must match the number of gammas")
    return (vector[..., None, None] * gammas).sum(axis=-3)


def mats_close(a: np.ndarray, b: np.ndarray, tol: float = ALG_TOL) -> bool:
    """Entrywise comparison with an explicit absolute tolerance."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol)
