"""Dense complex linear algebra kernels for small matrices.

Everything here operates on plain complex numpy arrays of modest size
(channel matrices and transmit covariances, n <= 8 in practice).  The
Hermitian eigensolver is a validating wrapper over LAPACK ``eigh``;
log-determinants go through a Cholesky factor.
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


def trace_real(a) -> float:
    """Real part of the trace (the trace of any Hermitian matrix is real)."""
    return float(np.trace(np.asarray(a)).real)


def symmetrize(a) -> np.ndarray:
    """Hermitian part (A + A^H) / 2; absorbs round-off before eig/Cholesky."""
    m = as_matrix(a)
    return 0.5 * (m + m.conj().T)


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    """Validate finiteness and Hermitian-ness (entrywise 1e-12) and return
    the symmetrized copy."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    dev = float(np.max(np.abs(m - m.conj().T), initial=0.0))
    if dev > HERMITIAN_ATOL:
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

    The input must be finite and Hermitian to 1e-12 entrywise; it is
    symmetrized first.  Eigenvalues come back in descending order.
    """
    w, v = np.linalg.eigh(require_hermitian(a, "eigensolver input"))
    return HermEigen(u=v[:, ::-1].conj().T, sigma=w[::-1].copy())


def _gram_plus_identity(h: np.ndarray, q: np.ndarray) -> np.ndarray:
    """I + H Q H^H, symmetrized."""
    m = h @ q @ h.conj().T
    m = 0.5 * (m + m.conj().T)
    return np.eye(h.shape[0], dtype=np.complex128) + m


def _check_dims(h: np.ndarray, q: np.ndarray) -> None:
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"covariance must be square, got shape {q.shape}")
    if h.shape[1] != q.shape[0]:
        raise ValueError(
            f"dimension mismatch: channel is {h.shape}, covariance is {q.shape}"
        )


def capacity(h, q) -> float:
    """log det(I + H Q H^H) in nats, via Cholesky of the positive definite argument.

    Nonnegative for any PSD Q.  A Cholesky failure means the argument was
    numerically indefinite, which valid inputs cannot produce.
    """
    hm = as_matrix(h)
    qm = as_matrix(q)
    _check_dims(hm, qm)
    m = _gram_plus_identity(hm, qm)
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "capacity argument I + H Q H^H is numerically indefinite; "
            "is the covariance PSD?"
        ) from exc
    return float(2.0 * np.log(np.diag(chol).real).sum())


def capacity_gradient(h, q) -> np.ndarray:
    """Gradient of Q -> log det(I + H Q H^H): H^H (I + H Q H^H)^{-1} H.

    The result is Hermitian PSD (symmetrized against round-off).
    """
    hm = as_matrix(h)
    qm = as_matrix(q)
    _check_dims(hm, qm)
    m = _gram_plus_identity(hm, qm)
    x = np.linalg.solve(m, hm)
    d = hm.conj().T @ x
    return 0.5 * (d + d.conj().T)
