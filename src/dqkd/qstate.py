"""Qubit states, operators and dense linear algebra shared by the whole package.

Conventions used everywhere:

* kets are 1-d complex numpy arrays, matrices are 2-d complex numpy arrays
  (the ``Ket`` / ``ComplexMatrix`` aliases below),
* composite systems are ordered big-endian, so ``np.kron(a, b)`` puts
  system ``a`` on the most significant index,
* spectra are returned sorted in descending order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Plumbing aliases: a Ket is a 1-d complex array, a ComplexMatrix a 2-d one,
# a Spectrum a real 1-d array sorted in descending order.
Ket = np.ndarray
ComplexMatrix = np.ndarray
Spectrum = np.ndarray

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_SLACK = -1e-10
ENTROPY_CUTOFF = 1e-12
# float slack on the [0, 1] domain of a probability argument
DOMAIN_ATOL = 1e-12

# Encoding flip |0><1| - |1><0|. Real antisymmetric; differs from the Pauli Y
# by a global phase, so conjugating a state with it is the same operation.
Y_GATE = np.array([[0, 1], [-1, 0]], dtype=complex)

STATE_LABELS = ("0", "1", "+", "-")
BASIS_OF = {"0": "Z", "1": "Z", "+": "X", "-": "X"}
COMPLEMENT = {"0": "1", "1": "0", "+": "-", "-": "+"}


class NotHermitianError(ValueError):
    """Matrix is not Hermitian within tolerance."""


class NotDensityMatrixError(ValueError):
    """Matrix fails a density-matrix invariant (trace or positivity)."""


def dagger(m: ComplexMatrix) -> ComplexMatrix:
    """Conjugate transpose."""
    return m.conjugate().T


def outer(v: Ket) -> ComplexMatrix:
    """Projector |v><v|."""
    return np.outer(v, v.conjugate())


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix over subsystems of dimensions ``dims``.

    Invariants checked on construction: square shape matching prod(dims),
    Hermitian within 1e-12, unit trace within 1e-12, eigenvalues >= -1e-10.
    The validated spectrum is kept (ascending, read-only) for later reads.
    """

    matrix: ComplexMatrix
    dims: tuple[int, ...]
    _ascending: Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        d = int(np.prod(self.dims))
        if m.ndim != 2 or m.shape != (d, d):
            raise NotDensityMatrixError(
                f"shape {m.shape} does not match dims {self.dims}"
            )
        if not np.max(np.abs(m - dagger(m))) <= HERMITIAN_ATOL:
            raise NotHermitianError("density matrix is not Hermitian within 1e-12")
        tr = np.trace(m).real
        if not abs(tr - 1.0) <= TRACE_ATOL:
            raise NotDensityMatrixError(f"trace {tr} is not 1 within 1e-12")
        w = np.linalg.eigvalsh(m)
        if not w.min() >= PSD_SLACK:
            raise NotDensityMatrixError(
                f"eigenvalue {w.min()} below the -1e-10 positivity slack"
            )
        w.flags.writeable = False
        object.__setattr__(self, "_ascending", w)

    def spectrum(self) -> Spectrum:
        """Eigenvalues, descending: a read-only view of the validated ones."""
        return self._ascending[::-1]


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...]) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` preserves the original relative order of the kept subsystems.
    """
    keep = tuple(int(k) for k in keep)
    dims = rho.dims
    n = len(dims)
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"keep={keep} is not a subset of subsystems 0..{n - 1}")
    if tuple(sorted(keep)) != keep:
        raise ValueError("keep indices must be strictly increasing")
    t = rho.matrix.reshape(dims + dims)
    # contract row/column indices of each traced subsystem, highest index first
    traced = [i for i in range(n) if i not in keep]
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    kept_dims = tuple(dims[k] for k in keep)
    d = int(np.prod(kept_dims)) if kept_dims else 1
    return DensityMatrix(matrix=t.reshape(d, d), dims=kept_dims)


def von_neumann_entropy(rho: DensityMatrix | ComplexMatrix) -> float:
    """S(rho) = -sum_i w_i log2 w_i with eigenvalues below 1e-12 dropped.

    A plain matrix is validated as a DensityMatrix first, so one that is not
    a density matrix (a NaN entry included) raises; eigenvalues in
    [-1e-10, 0) count as zero.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, dims=(len(rho),))
    return entropy_bits(rho._ascending)


def entropy_bits(w: Spectrum) -> float:
    """-sum w log2 w over the weights above 1e-12, so 0 log 0 = 0."""
    w = w[w > ENTROPY_CUTOFF]
    return float(-np.sum(w * np.log2(w)))


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    x = float(x)
    if not -DOMAIN_ATOL <= x <= 1.0 + DOMAIN_ATOL:
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def trace_distance(a: ComplexMatrix, b: ComplexMatrix) -> float:
    """(1/2) * trace norm of a - b for Hermitian a, b."""
    w = np.linalg.eigvalsh(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return float(0.5 * np.sum(np.abs(w)))
