"""Dense complex Hermitian and density operators for small quantum systems.

Everything is stored dense; the toolkit targets subsystem dimensions of a few
and total dimensions up to a few thousand.  ``SUPPORT_CUTOFF`` defines the
support on which the divergences take fractional and negative powers:
eigenvalues below it, relative to the largest, count as exact zeros, so
``sigma ** (-1/2)`` means the pseudo-inverse square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import InvalidInputError

#: eigenvalues within this distance below zero are clamped to zero
EIGENVALUE_FLOOR = -1e-10
#: trace of a density operator must match 1 this tightly before renormalizing
TRACE_ATOL = 1e-10
#: relative eigenvalue cutoff defining the support of a PSD operator
SUPPORT_CUTOFF = 1e-12
#: largest total Hilbert-space dimension the toolkit will materialize
DIMENSION_CAP = 4096


def _as_square_complex(entries) -> np.ndarray:
    arr = np.array(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise InvalidInputError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise InvalidInputError("matrix has non-finite entries")
    return arr


def _sym(arr: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2; batched over leading axes."""
    return (arr + np.conj(np.swapaxes(arr, -2, -1))) / 2.0


@dataclass(frozen=True)
class HermitianOperator:
    """Square complex matrix, symmetrized to (A + A^dagger)/2 on construction."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _sym(_as_square_complex(self.entries))
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DensityOperator(HermitianOperator):
    """Positive semi-definite, unit-trace Hermitian operator.

    Built from an array or from a HermitianOperator, whose entries are
    already symmetrized and are taken as they are.  Eigenvalues in
    [EIGENVALUE_FLOOR, 0) are clamped to zero and the trace is renormalized,
    so round-off accumulated by iterative optimizers does not propagate.
    Anything more negative, or a trace off by more than TRACE_ATOL, is
    rejected.
    """

    def __post_init__(self):
        if isinstance(self.entries, HermitianOperator):
            arr = self.entries.entries
        else:
            arr = _sym(_as_square_complex(self.entries))
        w = np.linalg.eigvalsh(arr)
        if w[0] < EIGENVALUE_FLOOR:
            raise InvalidInputError(
                f"matrix is not positive semi-definite (min eigenvalue {w[0]:.3e})"
            )
        tr = float(w.sum())
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvalidInputError(f"trace {tr!r} is not 1 within {TRACE_ATOL}")
        if w[0] < 0.0:
            wfull, v = np.linalg.eigh(arr)
            wfull = np.clip(wfull, 0.0, None)
            arr = _sym((v * (wfull / wfull.sum())) @ v.conj().T)
        elif tr != 1.0:
            arr = arr / tr
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def _entries(op) -> np.ndarray:
    """Accept a HermitianOperator (density operators included) or a raw array."""
    if isinstance(op, HermitianOperator):
        return op.entries
    return _as_square_complex(op)


def trace_norm(arr: np.ndarray) -> float:
    """Trace norm of a Hermitian ndarray: sum of absolute eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(arr)).sum())


def tensor(ops: Sequence) -> HermitianOperator:
    """Kronecker product of the operators in list order."""
    mats = [_entries(op) for op in ops]
    if not mats:
        raise InvalidInputError("tensor of an empty list is undefined")
    return HermitianOperator(reduce(np.kron, mats))


# -- JSON wire format ---------------------------------------------------------
# Complex matrices travel as arrays of rows, each entry an [re, im] pair.


def matrix_to_json(op) -> list:
    arr = _entries(op)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(rows) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed matrix JSON: {exc}") from exc
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInputError(
            "matrix JSON must be a square array of rows of [re, im] pairs, "
            f"got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def random_density(rng: np.random.Generator, dim: int, *, mix: float = 0.0) -> DensityOperator:
    """Hilbert-Schmidt-style random state, optionally mixed with I/dim."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    if mix > 0.0:
        rho = (1.0 - mix) * rho + mix * np.eye(dim) / dim
    return DensityOperator(rho)


def random_pure(rng: np.random.Generator, dim: int) -> DensityOperator:
    """Haar-random pure state."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return DensityOperator(np.outer(psi, psi.conj()))
