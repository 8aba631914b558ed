"""Wilson-fermion lattice operator and BiCGStab solver (executable).

A faithful (if clover-less) miniature of the CCS-QCD benchmark kernel:

* 4D periodic lattice, spinor fields ``psi[t, z, y, x, spin(4), color(3)]``;
* SU(3) gauge links ``U[mu, t, z, y, x, 3, 3]`` (random but exactly
  unitary, built by QR);
* the Wilson-Dirac operator with the standard spin projectors
  ``(1 -+ gamma_mu)``;
* BiCGStab with true-residual verification.

The tests check gamma-algebra identities, gamma5-hermiticity of the
operator, and solver convergence — the same invariants the real benchmark's
verification stage checks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.miniapps.ccs_qcd.skeleton import DIRAC_FLOPS_PER_SITE

#: Dirac gamma matrices (Dirac basis), shape (4, 4, 4): gamma[mu].
GAMMA = np.zeros((4, 4, 4), dtype=np.complex128)
# gamma_1 (x)
GAMMA[0] = [[0, 0, 0, 1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [-1j, 0, 0, 0]]
# gamma_2 (y)
GAMMA[1] = [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
# gamma_3 (z)
GAMMA[2] = [[0, 0, 1j, 0], [0, 0, 0, -1j], [-1j, 0, 0, 0], [0, 1j, 0, 0]]
# gamma_4 (t)
GAMMA[3] = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]

# Euclidean gamma5 = gamma_1 gamma_2 gamma_3 gamma_4: Hermitian, squares to
# the identity, anticommutes with every gamma_mu.
GAMMA5 = np.ascontiguousarray(GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])

#: Axis of the field array each direction mu shifts (mu: x,y,z,t).
_MU_AXIS = {0: 3, 1: 2, 2: 1, 3: 0}


def random_su3_field(shape: tuple[int, int, int, int],
                     rng: np.random.Generator) -> np.ndarray:
    """Random unitary gauge field ``U[mu, t, z, y, x, 3, 3]``."""
    t, z, y, x = shape
    raw = rng.standard_normal((4, t, z, y, x, 3, 3)) \
        + 1j * rng.standard_normal((4, t, z, y, x, 3, 3))
    q, r = np.linalg.qr(raw)
    # fix the phase so the decomposition is unique and exactly unitary
    d = np.einsum("...ii->...i", r)
    q = q * (d / np.abs(d))[..., None, :]
    return q


def random_spinor(shape: tuple[int, int, int, int],
                  rng: np.random.Generator) -> np.ndarray:
    t, z, y, x = shape
    return (rng.standard_normal((t, z, y, x, 4, 3))
            + 1j * rng.standard_normal((t, z, y, x, 4, 3)))


def _shift(field: np.ndarray, mu: int, sign: int) -> np.ndarray:
    """Periodic shift of a site field along direction mu (+1 = forward)."""
    return np.roll(field, -sign, axis=_MU_AXIS[mu])


def wilson_dirac(psi: np.ndarray, gauge: np.ndarray, kappa: float) -> np.ndarray:
    """Apply the Wilson-Dirac operator ``D = 1 - kappa * H`` to ``psi``."""
    if psi.ndim != 6 or psi.shape[-2:] != (4, 3):
        raise ConfigurationError(f"bad spinor shape {psi.shape}")
    if gauge.shape != (4, *psi.shape[:4], 3, 3):
        raise ConfigurationError(f"bad gauge shape {gauge.shape}")
    if not 0.0 < kappa < 0.25:
        raise ConfigurationError("kappa must be in (0, 0.25) for stability")

    hop = np.zeros_like(psi)
    ident = np.eye(4)
    for mu in range(4):
        u = gauge[mu]
        # forward: (1 - gamma_mu) U_mu(x) psi(x + mu)
        fwd = _shift(psi, mu, +1)
        fwd = np.einsum("...ab,...sb->...sa", u, fwd)
        hop += np.einsum("st,...tc->...sc", ident - GAMMA[mu], fwd)
        # backward: (1 + gamma_mu) U_mu(x - mu)^dagger psi(x - mu)
        u_back = _shift(u, mu, -1)
        bwd = _shift(psi, mu, -1)
        bwd = np.einsum("...ba,...sb->...sa", np.conj(u_back), bwd)
        hop += np.einsum("st,...tc->...sc", ident + GAMMA[mu], bwd)
    return psi - kappa * hop


def apply_gamma5(psi: np.ndarray) -> np.ndarray:
    return np.einsum("st,...tc->...sc", GAMMA5, psi)


def _dot(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a, b))


def bicgstab(
    gauge: np.ndarray,
    b: np.ndarray,
    kappa: float,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> tuple[np.ndarray, int, float]:
    """Solve ``D x = b``; returns (x, iterations, relative residual).

    Standard (unpreconditioned) BiCGStab, matching the miniapp's solver.
    """
    x = np.zeros_like(b)
    r = b - wilson_dirac(x, gauge, kappa)
    r0 = r.copy()
    rho = alpha = omega = 1.0 + 0.0j
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0, 0.0

    for it in range(1, max_iter + 1):
        rho_new = _dot(r0, r)
        if rho_new == 0:
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        v = wilson_dirac(p, gauge, kappa)
        alpha = rho / _dot(r0, v)
        s = r - alpha * v
        if np.linalg.norm(s) / b_norm < tol:
            x = x + alpha * p
            return x, it, float(np.linalg.norm(s)) / b_norm
        t = wilson_dirac(s, gauge, kappa)
        omega = _dot(t, s) / _dot(t, t)
        x = x + alpha * p + omega * s
        r = s - omega * t
        rel = float(np.linalg.norm(r)) / b_norm
        if rel < tol:
            return x, it, rel
    return x, max_iter, float(np.linalg.norm(r)) / b_norm


def bicgstab_mixed(
    gauge: np.ndarray,
    b: np.ndarray,
    kappa: float,
    tol: float = 1e-10,
    inner_tol: float = 1e-5,
    max_outer: int = 20,
    max_inner: int = 200,
) -> tuple[np.ndarray, int, int, float]:
    """Mixed-precision solve: fp32 inner BiCGStab + fp64 iterative
    refinement (the production lattice-QCD strategy — most FLOPs run at
    twice the SIMD width).

    Returns (x, outer iterations, total inner iterations, relative
    residual, all measured in fp64).
    """
    if not 0.0 < inner_tol < 1.0:
        raise ConfigurationError("inner_tol must be in (0, 1)")
    gauge32 = gauge.astype(np.complex64)
    x = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0, 0, 0.0

    total_inner = 0
    rel = 1.0
    for outer in range(1, max_outer + 1):
        r = b - wilson_dirac(x, gauge, kappa)          # fp64 residual
        rel = float(np.linalg.norm(r)) / b_norm
        if rel < tol:
            return x, outer - 1, total_inner, rel
        # fp32 correction solve: D delta = r
        delta32, inner, _ = _bicgstab32(gauge32, r.astype(np.complex64),
                                        kappa, inner_tol, max_inner)
        total_inner += inner
        x = x + delta32.astype(np.complex128)
    r = b - wilson_dirac(x, gauge, kappa)
    return x, max_outer, total_inner, float(np.linalg.norm(r)) / b_norm


def _bicgstab32(gauge32: np.ndarray, b32: np.ndarray, kappa: float,
                tol: float, max_iter: int) -> tuple[np.ndarray, int, float]:
    """Single-precision BiCGStab (helper for the mixed solver)."""
    x = np.zeros_like(b32)
    r = b32 - wilson_dirac(x, gauge32, kappa).astype(np.complex64)
    r0 = r.copy()
    rho = alpha = omega = np.complex64(1.0)
    v = np.zeros_like(b32)
    p = np.zeros_like(b32)
    b_norm = float(np.linalg.norm(b32)) or 1.0
    for it in range(1, max_iter + 1):
        rho_new = complex(np.vdot(r0, r))
        if rho_new == 0:
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + np.complex64(beta) * (p - np.complex64(omega) * v)
        v = wilson_dirac(p, gauge32, kappa).astype(np.complex64)
        alpha = rho / complex(np.vdot(r0, v))
        s = r - np.complex64(alpha) * v
        if np.linalg.norm(s) / b_norm < tol:
            return x + np.complex64(alpha) * p, it, \
                float(np.linalg.norm(s)) / b_norm
        t = wilson_dirac(s, gauge32, kappa).astype(np.complex64)
        omega = complex(np.vdot(t, s)) / complex(np.vdot(t, t))
        x = x + np.complex64(alpha) * p + np.complex64(omega) * s
        r = s - np.complex64(omega) * t
        if np.linalg.norm(r) / b_norm < tol:
            return x, it, float(np.linalg.norm(r)) / b_norm
    return x, max_iter, float(np.linalg.norm(r)) / b_norm


def flops_per_site_dirac() -> float:
    """FLOPs per lattice site of one Wilson-Dirac application (the
    skeleton's :data:`~repro.miniapps.ccs_qcd.skeleton.DIRAC_FLOPS_PER_SITE`,
    kept out of this NumPy module so the simulator never imports it)."""
    return DIRAC_FLOPS_PER_SITE
