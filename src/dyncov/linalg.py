"""Dense complex linear algebra kernels for small matrices.

Everything here operates on plain complex numpy arrays of modest size
(channel matrices and transmit covariances, n <= ``MAX_ANTENNAS`` = 8).  Every
eigensolve is the stack-aware LAPACK ``eigh`` call of ``_eigh``, whose
ascending pair ``_eigh_desc`` reverses, but the ogd recursion's
(``controllers.ogd_step``), which calls the gufuncs itself, slot by slot;
every covariance built from a spectrum is ``_compose``'s; log-determinants
go through a Cholesky factor.  The eigensolve and the gradient's solve call
numpy's LAPACK gufuncs directly, under ``np.linalg``'s failure contract.  A
loop that steps one n x n matrix many times keeps the eigen-pair and every
temporary in one ``Workspace``; without one the kernels allocate.

``capacity``, ``capacity_gradient`` and ``trace_real`` also take stacks
(leading axes broadcast); each entry equals its single-matrix result exactly.

A value is checked in one place, the constructor of the dataclass that holds
it, whether it was built in code or loaded from JSON (where a config
section's keys are its dataclass's fields).  ``check_fields`` is the rule
for numbers, counts and number lists, ``matrix_stack`` the rule for
tables of matrices, and ``require_psd`` the further rule for covariances.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

HERMITIAN_ATOL = 1e-12

# the largest antenna count of a channel: the n that the kernels are checked up to
MAX_ANTENNAS = 8

# 1/2 as a read-only complex 0-d array: numpy multiplies by it faster than by a float
_HALF = np.broadcast_to(0.5 + 0j, ())


class ConvergenceError(RuntimeError):
    """An iterative routine ran out of iterations."""


def finite_number(x, key: str, error=ValueError) -> float:
    """x as a float: a real number, not a bool, and finite; ``key`` names it."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise error(f"{key!r} must be a number, got {x!r}")
    if not math.isfinite(x):
        raise error(f"{key!r} must be finite, got {x!r}")
    return float(x)


def _count(x, key: str, error) -> int:
    """x as an int: an integer or an integral float, not a bool."""
    if type(x) is int:  # the common case, ahead of the abstract-class tests
        return x
    if isinstance(x, float) and math.isfinite(x) and x.is_integer():
        return int(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise error(f"{key!r} must be an integer, got {x!r}")
    return int(x)


def _numbers(x, key: str, error) -> np.ndarray:
    """x as a 1-D float array: a list or tuple whose every entry passes
    ``finite_number``, or a finite 1-D array of a real numeric dtype."""
    if isinstance(x, (list, tuple)):
        return np.array([finite_number(v, key, error) for v in x], dtype=float)
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf" and x.ndim == 1):
        raise error(f"{key!r} must be a list of numbers, got {x!r}")
    if not np.isfinite(x).all():
        raise error(f"{key!r} must be finite")
    return np.asarray(x, dtype=float)


def check_fields(obj, finite=(), counts=(), arrays=(), error=ValueError) -> None:
    """Check and store the dataclass fields of obj named in ``finite`` (as a
    float, see ``finite_number``), ``counts`` (as an int: an integer or an
    integral float, not a bool) and ``arrays`` (as a 1-D float array: a list
    of such numbers, or a finite 1-D array of a real numeric dtype).
    A message names a field by its metadata ``key``, the JSON key where that
    differs from the field name."""
    for names, rule in ((finite, finite_number), (counts, _count), (arrays, _numbers)):
        for name in names:
            key = obj.__dataclass_fields__[name].metadata.get("key", name)
            object.__setattr__(obj, name, rule(getattr(obj, name), key, error))


def matrix_stack(mats, key: str) -> np.ndarray:
    """A sequence of matrices (or a (k, m, n) stack) as one new complex128
    stack, checked to be non-empty, of one shape and finite; ``key`` names
    the field in messages."""
    try:
        ms = [as_matrix(m) for m in mats]
    except (TypeError, ValueError):
        raise ValueError(f"{key!r} must be a list of matrices, got {mats!r}") from None
    if not ms:
        raise ValueError(f"{key!r} needs at least one matrix")
    shapes = sorted({m.shape for m in ms})
    if len(shapes) > 1:
        raise ValueError(f"{key!r} matrices must share dimensions, got {shapes}")
    stack = np.stack(ms)
    if not np.isfinite(stack).all():
        raise ValueError(f"{key!r} must be finite")
    return stack


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


def nearest_index(h, states: np.ndarray):
    """Index of the matrix in the stack ``states`` nearest to h in Frobenius
    distance, the first on a tie; each distance equals ``frobenius(h - s)``.
    A stack of matrices h (k, n_r, n_t) gives k indices, found in blocks of
    256 that bound the (block, states, n_r, n_t) temporaries however long a
    stack ``CdiPolicy.lookup`` is given."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim == 3 and len(h) > 256:
        return np.concatenate([nearest_index(h[i:i + 256], states) for i in range(0, len(h), 256)])
    e = h[..., None, :, :] - states
    k = np.argmin(np.sqrt((e.real * e.real + e.imag * e.imag).sum(axis=(-2, -1))), axis=-1)
    return int(k) if k.ndim == 0 else k


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def _scalar_or_stack(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def trace_real(a):
    """Real part of the trace over the last two axes (the trace of any
    Hermitian matrix is real)."""
    return _scalar_or_stack(np.trace(np.asarray(a), axis1=-2, axis2=-1).real)


def require_hermitian(a) -> np.ndarray:
    """Validate an eigensolver input's finiteness and Hermitian-ness and
    return its Hermitian part (A + A^H) / 2, which absorbs round-off, or the
    input itself when it is exactly Hermitian already (a ``_gram`` matrix).

    The entrywise deviation from A^H may be at most 1e-12 * max(1, max|a_ij|),
    so round-off on large-magnitude input is not mistaken for asymmetry.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"eigensolver input must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("eigensolver input has non-finite entries")
    dev = float(np.max(np.abs(m - m.conj().T), initial=0.0))
    if dev > HERMITIAN_ATOL * max(1.0, float(np.max(np.abs(m), initial=0.0))):
        raise ValueError(f"eigensolver input is not Hermitian (max deviation {dev:.3e})")
    return m if dev == 0.0 else 0.5 * (m + m.conj().T)


def require_psd(stack: np.ndarray, key: str) -> None:
    """Check each matrix of a finite stack (k, n, n) to be Hermitian within
    ``require_hermitian``'s tolerance and positive semidefinite: its least
    eigenvalue at least -1e-12 * max(1, max|a_ij|).  ``key`` names the field."""
    if stack.shape[-1] != stack.shape[-2]:
        raise ValueError(f"{key!r} must hold square matrices, got shape {stack.shape[-2:]}")
    # each matrix over max(1, max|a_ij|): both tolerances become HERMITIAN_ATOL
    unit = stack / np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))[:, None, None]
    adjoint = unit.conj().swapaxes(-2, -1)
    dev = float(np.abs(unit - adjoint).max())
    if dev > HERMITIAN_ATOL:
        raise ValueError(f"{key!r} must be Hermitian (relative deviation {dev:.3e})")
    least = float(np.linalg.eigvalsh(0.5 * (unit + adjoint))[:, 0].min())
    if least < -HERMITIAN_ATOL:
        raise ValueError(
            f"{key!r} must be positive semidefinite (relative least eigenvalue {least:.3e})"
        )


def _lapack_failed(err, flag):
    raise LinAlgError("LAPACK kernel failed: singular matrix or eigenvalues did not converge")


def _lapack_guard() -> np.errstate:
    """``np.linalg``'s state around its gufuncs: a failed kernel (singular
    system, unconverged eigensolve) raises LinAlgError.  The direct kernels
    run under it, entered per public call or once around a hot loop."""
    return np.errstate(call=_lapack_failed, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


class Workspace:
    """Scratch for loops that step one n x n matrix many times (the ogd
    recursion of a block, a FISTA solve): ``controllers.ogd_step`` forms
    G Q (``np.dot``) + I, then D^H, in ``sq`` and solves into ``sol``; ``_eigh``
    fills the pair ``eig``; and ``_compose`` forms conj(V), then Q's conjugate,
    in ``sq`` and puts the loading in ``theta``, the flat view of ``row``."""

    __slots__ = ("sq", "sol", "eig", "row", "theta")

    def __init__(self, n: int):
        self.sq, self.sol, v = np.empty((3, n, n), dtype=np.complex128)
        self.eig = np.empty(n), v
        self.row = np.empty((1, n))
        self.theta = self.row[0]


def _eigh(a: np.ndarray, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's ascending pair (w, v), A = V diag(w) V^H, of a finite, exactly
    Hermitian matrix or stack, unvalidated, each entry as if alone; into the
    two arrays ``out``, if given."""
    return _umath_linalg.eigh_lo(a, signature="D->dD", out=out)


def _eigh_desc(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending (sigma, v): ``_eigh``'s pair reversed, uncopied."""
    w, v = _eigh(a)
    return w[..., ::-1], v[..., ::-1]


def _real_diagonal(a: np.ndarray) -> np.ndarray:
    """A writable view of the real parts of the diagonal of a C-contiguous
    complex matrix (n,), or of each matrix of such a stack (..., n)."""
    n = a.shape[-1]
    return a.view(np.float64).reshape(*a.shape[:-2], 2 * n * n)[..., :: 2 * n + 2]


def _compose(v: np.ndarray, theta, out=None, work=None) -> np.ndarray:
    """V diag(theta) V^H for eigenvector columns v (..., n, n) and loadings theta
    (..., n), re-symmetrized in place, into ``out`` if given; each stacked entry
    equals its single-matrix result exactly.  Of one matrix, the temporaries
    go into the ``Workspace`` ``work``, if given.  V^H is the transpose of
    conj(V), which for LAPACK's columns, reversed or not, is the layout a new
    V^H would have, and conj(V) is formed and scaled contiguously.  One matrix
    takes ``np.dot``, a stack ``np.matmul``: the same zgemm, half the dispatch cost."""
    c = np.conjugate(v, out=None if work is None else work.sq)
    if work is None:
        row = np.asarray(theta)[..., None, :]
    else:
        work.theta[:] = theta
        row = work.row
    np.multiply(row, c, out=c)  # the transpose of diag(theta) V^H
    q = (np.matmul if v.ndim > 2 else np.dot)(v, c.swapaxes(-1, -2), out=out)
    q += np.conjugate(q, out=c).swapaxes(-1, -2)  # Q^H
    q *= _HALF
    return q


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(sigma) V^H of a Hermitian matrix by LAPACK:
    ``np.linalg.eigh``'s pair (sigma, v) in descending order, eigenvectors in
    the columns of v.

    The input must be finite and Hermitian (see ``require_hermitian``); it
    is symmetrized first.
    """
    with _lapack_guard():
        return _eigh_desc(require_hermitian(a))


@functools.cache
def _eye(n: int) -> np.ndarray:
    """The n x n complex identity, built once per size; read-only (a broadcast view)."""
    return np.broadcast_to(np.eye(n, dtype=np.complex128), (n, n))


def _capacity_arg(h, q) -> tuple[np.ndarray, np.ndarray]:
    """Channel stack H (..., n_r, n_t) and covariance stack Q (..., n_t, n_t)
    as finite complex arrays, checked to fit together."""
    hm = np.asarray(h, dtype=np.complex128)
    qm = np.asarray(q, dtype=np.complex128)
    if hm.ndim < 2 or qm.ndim < 2:
        raise ValueError(
            f"expected matrices or stacks of them, got ndim={hm.ndim} and ndim={qm.ndim}"
        )
    for what, m in (("channel", hm), ("covariance", qm)):
        if not np.isfinite(m).all():
            raise ValueError(f"{what} has non-finite entries")
    if qm.shape[-2] != qm.shape[-1]:
        raise ValueError(f"covariance must be square, got shape {qm.shape}")
    if hm.shape[-1] != qm.shape[-2]:
        raise ValueError(
            f"dimension mismatch: channel is {hm.shape}, covariance is {qm.shape}"
        )
    return hm, qm


def capacity(h, q):
    """log det(I + H Q H^H) in nats, via Cholesky of the positive definite argument.

    Nonnegative for any PSD Q.  A Cholesky failure means the argument was
    numerically indefinite, which valid inputs cannot produce.  Stacks give
    an array over their broadcast leading axes.
    """
    hm, qm = _capacity_arg(h, q)
    # one Q: H Q as one flat product, equal entry by entry to the stacked one
    # (as in _capacity_gradient) unless numpy multiplies one-row channels as vectors
    if qm.ndim == 2 and hm.ndim > 2 and hm.shape[-2] > 1:
        m = (hm.reshape(-1, qm.shape[0]) @ qm).reshape(hm.shape) @ _ct(hm)
    else:
        m = hm @ qm @ _ct(hm)
    m = _eye(hm.shape[-2]) + 0.5 * (m + _ct(m))
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "capacity argument I + H Q H^H is numerically indefinite; "
            "is the covariance PSD?"
        ) from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1).real
    return _scalar_or_stack(2.0 * np.log(diag).sum(axis=-1))


def _gram(h: np.ndarray) -> np.ndarray:
    """G = H^H H, symmetrized, of a channel (n_r, n_t) or a stack of them
    (unvalidated); each stacked entry equals its single-matrix result exactly."""
    g = _ct(h) @ h
    return 0.5 * (g + _ct(g))


def _capacity_gradient(g: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Capacity gradient from the channel's Gram G = H^H H (``_gram``) and Q,
    stacks broadcasting, unvalidated.

    Push-through: H^H (I + H Q H^H) = (I + H^H H Q) H^H, so
    H^H (I + H Q H^H)^{-1} = (I + G Q)^{-1} H^H, and the gradient
    H^H (I + H Q H^H)^{-1} H is (I + G Q)^{-1} G.  The system is n_t x n_t
    whatever n_r, and G, which does not depend on Q, is formed once by the
    caller.  One Q against a Gram stack is one flat (k n_t, n_t) @ (n_t, n_t)
    product, equal entry by entry to the stacked one.  The result is
    symmetrized against round-off, with D^H in the buffer of G Q + I, which
    the solve has freed.  ``controllers.ogd_step`` inlines it per slot.
    """
    n = q.shape[-1]
    if q.ndim == 2 and g.ndim > 2:
        gq = (g.reshape(-1, n) @ q).reshape(g.shape)
    else:
        gq = g @ q
    gq += _eye(n)
    if g.shape[:-2] != gq.shape[:-2]:  # solve needs the Gram stack in full
        g = np.broadcast_to(g, gq.shape)
    d = _umath_linalg.solve(gq, g, signature="DD->D")
    out = np.add(d, np.conjugate(d.swapaxes(-1, -2), out=gq))
    return np.multiply(_HALF, out, out=out)


def capacity_gradient(h, q) -> np.ndarray:
    """Gradient of Q -> log det(I + H Q H^H): H^H (I + H Q H^H)^{-1} H,
    computed as (I + G Q)^{-1} G with G = H^H H (see ``_capacity_gradient``).

    The result is Hermitian PSD (symmetrized against round-off); stacks
    give a stack of gradients.  A singular I + G Q (Q not PSD) raises
    LinAlgError.
    """
    hm, qm = _capacity_arg(h, q)
    with _lapack_guard():
        return _capacity_gradient(_gram(hm), qm)
