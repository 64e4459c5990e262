"""Dense complex linear algebra kernels for small matrices.

Everything here operates on plain complex numpy arrays of modest size
(channel matrices and transmit covariances, n <= 8 in practice).  The
Hermitian eigensolver is a validating wrapper over LAPACK ``eigh``;
log-determinants go through a Cholesky factor.

``capacity``, ``capacity_gradient`` and ``trace_real`` also take stacks
(leading axes broadcast); each entry equals its single-matrix result exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_ATOL = 1e-12


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of iterations; carries the residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array (copying only if needed)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def frobenius(a) -> float:
    """Frobenius norm: sqrt of the summed squared moduli, = sqrt(tr(A^H A))."""
    m = np.asarray(a, dtype=np.complex128)
    return float(np.sqrt((m.real * m.real + m.imag * m.imag).sum()))


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def _scalar_or_stack(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def trace_real(a):
    """Real part of the trace over the last two axes (the trace of any
    Hermitian matrix is real)."""
    return _scalar_or_stack(np.trace(np.asarray(a), axis1=-2, axis2=-1).real)


def symmetrize(a) -> np.ndarray:
    """Hermitian part (A + A^H) / 2; absorbs round-off before eig/Cholesky."""
    m = as_matrix(a)
    return 0.5 * (m + m.conj().T)


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    """Validate finiteness and Hermitian-ness and return the symmetrized copy.

    The entrywise deviation from A^H may be at most 1e-12 * max(1, max|a_ij|),
    so round-off on large-magnitude input is not mistaken for asymmetry.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    dev = float(np.max(np.abs(m - m.conj().T), initial=0.0))
    if dev > HERMITIAN_ATOL * max(1.0, float(np.max(np.abs(m), initial=0.0))):
        raise ValueError(f"{what} is not Hermitian (max deviation {dev:.3e})")
    return symmetrize(m)


@dataclass(frozen=True)
class HermEigen:
    """Eigendecomposition A = U^H diag(sigma) U of a Hermitian matrix.

    Rows of ``u`` are the eigenvectors (so ``u @ a @ u.conj().T`` is
    diagonal); ``sigma`` is real and in descending order.
    """

    u: np.ndarray
    sigma: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.u.conj().T @ np.diag(self.sigma) @ self.u

    def compose(self, loading: np.ndarray) -> np.ndarray:
        """Assemble U^H diag(loading) U, re-symmetrized against round-off."""
        q = self.u.conj().T @ (loading[:, None] * self.u)
        return 0.5 * (q + q.conj().T)


def herm_eig(a) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix by LAPACK (``np.linalg.eigh``).

    The input must be finite and Hermitian (see ``require_hermitian``); it
    is symmetrized first.  Eigenvalues come back in descending order.
    """
    w, v = np.linalg.eigh(require_hermitian(a, "eigensolver input"))
    return HermEigen(u=v[:, ::-1].conj().T, sigma=w[::-1].copy())


def _capacity_arg(h, q) -> tuple[np.ndarray, np.ndarray]:
    """Channel stack H (..., n_r, n_t), broadcast against the covariances,
    and I + H Q H^H, symmetrized."""
    hm = np.asarray(h, dtype=np.complex128)
    qm = np.asarray(q, dtype=np.complex128)
    if hm.ndim < 2 or qm.ndim < 2:
        raise ValueError(
            f"expected matrices or stacks of them, got ndim={hm.ndim} and ndim={qm.ndim}"
        )
    if qm.shape[-2] != qm.shape[-1]:
        raise ValueError(f"covariance must be square, got shape {qm.shape}")
    if hm.shape[-1] != qm.shape[-2]:
        raise ValueError(
            f"dimension mismatch: channel is {hm.shape}, covariance is {qm.shape}"
        )
    m = hm @ qm @ _ct(hm)
    m = np.eye(hm.shape[-2], dtype=np.complex128) + 0.5 * (m + _ct(m))
    return np.broadcast_to(hm, m.shape[:-2] + hm.shape[-2:]), m


def capacity(h, q):
    """log det(I + H Q H^H) in nats, via Cholesky of the positive definite argument.

    Nonnegative for any PSD Q.  A Cholesky failure means the argument was
    numerically indefinite, which valid inputs cannot produce.  Stacks give
    an array over their broadcast leading axes.
    """
    _, m = _capacity_arg(h, q)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "capacity argument I + H Q H^H is numerically indefinite; "
            "is the covariance PSD?"
        ) from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return _scalar_or_stack(2.0 * np.log(diag).sum(axis=-1))


def capacity_gradient(h, q) -> np.ndarray:
    """Gradient of Q -> log det(I + H Q H^H): H^H (I + H Q H^H)^{-1} H.

    The result is Hermitian PSD (symmetrized against round-off); stacks
    give a stack of gradients.
    """
    hm, m = _capacity_arg(h, q)
    d = _ct(hm) @ np.linalg.solve(m, hm)
    return 0.5 * (d + _ct(d))
