"""Qubit states, operators and dense linear algebra shared by the whole package.

Conventions used everywhere:

* kets are 1-d complex numpy arrays, matrices are 2-d complex numpy arrays
  (the ``Ket`` / ``ComplexMatrix`` aliases below),
* composite systems are ordered big-endian, so ``np.kron(a, b)`` puts
  system ``a`` on the most significant index,
* spectra are returned sorted in descending order,
* a stack of k matrices is a (k, d, d) array; ``density_matrices``
  validates a whole stack with one eigensolver call.
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
# matrices per slice of the stacked Hermitian check
HERMITIAN_SLICE = 16

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


def outer(v: Ket) -> ComplexMatrix:
    """Projector |v><v|; a (k, d) stack of kets gives the (k, d, d) stack."""
    return v[..., :, None] * v.conjugate()[..., None, :]


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix over subsystems of dimensions ``dims``.

    Invariants checked on construction: square shape matching prod(dims),
    Hermitian within 1e-12, unit trace within 1e-12, eigenvalues >= -1e-10.
    The validated spectrum is kept (ascending, read-only) for later reads.
    Construction is the one-matrix case of ``density_matrices``.
    """

    matrix: ComplexMatrix
    dims: tuple[int, ...]
    _ascending: Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        (rho,) = density_matrices(np.asarray(self.matrix, dtype=complex)[None], self.dims)
        self.__dict__.update(rho.__dict__)

    def spectrum(self) -> Spectrum:
        """Eigenvalues, descending: a read-only view of the validated ones."""
        return self._ascending[::-1]


def density_matrices(stack: np.ndarray, dims: tuple[int, ...]) -> list[DensityMatrix]:
    """Validate a (k, d, d) stack in one pass and wrap each matrix.

    The checks and tolerances are those of DensityMatrix. Each invariant is
    tested on the whole stack before the next, as "not within" so that a
    NaN entry fails, and its error names the index of the first matrix that
    breaks it. The spectra come from one stacked ``eigvalsh`` call, which
    runs the same LAPACK routine on each matrix, so entry i equals the
    DensityMatrix of matrix i built alone, bit for bit.
    """
    stack = np.asarray(stack, dtype=complex)
    dims = tuple(int(d) for d in dims)
    d = int(np.prod(dims))
    if stack.ndim != 3 or stack.shape[1:] != (d, d):
        raise NotDensityMatrixError(f"shape {stack.shape[1:]} does not match dims {dims}")
    # slice by slice: small temporaries, faster than one pass over a 64-matrix stack
    skew = np.concatenate([
        np.max(np.abs(part - part.conj().swapaxes(1, 2)), axis=(1, 2))
        for part in np.split(stack, range(HERMITIAN_SLICE, len(stack), HERMITIAN_SLICE))
    ])
    bad = ~(skew <= HERMITIAN_ATOL)
    if bad.any():
        raise NotHermitianError(
            f"matrix {np.argmax(bad)} is not Hermitian within {HERMITIAN_ATOL:g}"
        )
    tr = np.trace(stack, axis1=1, axis2=2).real
    bad = ~(np.abs(tr - 1.0) <= TRACE_ATOL)
    if bad.any():
        i = np.argmax(bad)
        raise NotDensityMatrixError(f"matrix {i}: trace {tr[i]} is not 1 within {TRACE_ATOL:g}")
    spectra = np.linalg.eigvalsh(stack)
    bad = ~(spectra[:, 0] >= PSD_SLACK)
    if bad.any():
        i = np.argmax(bad)
        raise NotDensityMatrixError(
            f"matrix {i}: eigenvalue {spectra[i, 0]} below the {PSD_SLACK:g} positivity slack"
        )
    spectra.flags.writeable = False
    out = []
    for m, w in zip(stack, spectra):
        rho = object.__new__(DensityMatrix)
        rho.__dict__.update(matrix=m, dims=dims, _ascending=w)
        out.append(rho)
    return out


def trace_out(stack: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of every matrix of a (k, d, d) stack, unvalidated.

    ``keep`` names the subsystems to keep, strictly increasing; the result
    is the (k, d', d') stack over them in their original order.
    """
    keep = tuple(int(k) for k in keep)
    n = len(dims)
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if any(k < 0 or k >= n for k in keep) or len(set(keep)) != len(keep):
        raise ValueError(f"keep={keep} is not a subset of subsystems 0..{n - 1}")
    if tuple(sorted(keep)) != keep:
        raise ValueError("keep indices must be strictly increasing")
    t = stack.reshape((len(stack),) + dims + dims)
    # contract row/column indices of each traced subsystem, highest index
    # first; axis 0 is the stack
    for i in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=1 + i, axis2=1 + i + (t.ndim - 1) // 2)
    d = int(np.prod([dims[k] for k in keep]))
    return t.reshape(len(stack), d, d)


def partial_trace(rho: DensityMatrix, keep: tuple[int, ...]) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` preserves the original relative order of the kept subsystems.
    """
    reduced = trace_out(rho.matrix[None], rho.dims, keep)
    return DensityMatrix(matrix=reduced[0], dims=tuple(rho.dims[int(k)] for k in keep))


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


def trace_distance(a: ComplexMatrix, b: ComplexMatrix) -> float:
    """(1/2) * trace norm of a - b for Hermitian a, b."""
    w = np.linalg.eigvalsh(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))
    return float(0.5 * np.sum(np.abs(w)))
