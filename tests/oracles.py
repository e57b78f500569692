"""Independent reference routes that the tests compare the library against.

The library computes channel fidelities from the Gram matrix of the ancilla
kets alone. The oracle here takes the simulation route instead: it realizes
the attack as an explicit 8x8 unitary on qubit ox ancilla, sends a probe
state through it and measures the reduced qubit. The library places each
branch ket's qubit components by slicing; the oracle builds the same kets
from Kronecker products with the qubit basis. Tests import these with
``from oracles import ...``.
"""

import numpy as np

from dqkd.attack import AttackParams, AttackValidationError, branch_vectors, realize_ancilla
from dqkd.qstate import ComplexMatrix, DensityMatrix, Ket, outer, partial_trace

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2.0)
STATE_KETS = {"0": KET_0, "1": KET_1, "+": KET_PLUS, "-": KET_MINUS}


def kron_branch_vectors(params: AttackParams) -> tuple[Ket, Ket]:
    """U(|0> ox |E>) and U(|1> ox |E>) as sums of qubit ox ancilla products."""
    e00, e01, e11, e10 = realize_ancilla(params)
    phi0 = params.c00 * np.kron(KET_0, e00) + params.c01 * np.kron(KET_1, e01)
    phi1 = params.c11 * np.kron(KET_1, e11) + params.c10 * np.kron(KET_0, e10)
    return phi0, phi1


def build_unitary(params: AttackParams) -> ComplexMatrix:
    """8x8 unitary realizing the attack on qubit ox ancilla.

    The columns for inputs |0> ox |E> and |1> ox |E> (ancilla reference ket
    = first basis vector) are exactly the two branch vectors; the remaining
    columns are an orthonormal completion of the complement.
    """
    phi0, phi1 = branch_vectors(params)
    u = np.zeros((8, 8), dtype=complex)
    u[:, 0] = phi0
    u[:, 4] = phi1
    # orthonormal basis of the complement via the projector's eigenvectors
    proj = np.eye(8, dtype=complex) - outer(phi0) - outer(phi1)
    lam, vecs = np.linalg.eigh(proj)
    complement = vecs[:, lam > 0.5]
    if complement.shape[1] != 6:
        raise AttackValidationError("branch vectors do not span a 2-dim subspace")
    for col, idx in zip(complement.T, (1, 2, 3, 5, 6, 7)):
        u[:, idx] = col
    return u


def probe_outcome_probability(params: AttackParams, prepared: str, outcome: str) -> float:
    """P(measuring the attacked probe as `outcome`), by direct simulation.

    Sends the prepared state through a realized attack, traces out the
    ancilla, and projects the reduced qubit state onto the outcome state.
    With outcome == prepared this is the channel fidelity; it provides the
    simulation-route counterpart to the Gram-based forward_fidelities.
    """
    phi0, phi1 = branch_vectors(params)
    prep = STATE_KETS[prepared]
    attacked = prep[0] * phi0 + prep[1] * phi1
    rho = DensityMatrix(outer(attacked), dims=(2, 4))
    reduced = partial_trace(rho, keep=(0,))
    out = STATE_KETS[outcome]
    return float(np.real(np.conjugate(out) @ reduced.matrix @ out))
