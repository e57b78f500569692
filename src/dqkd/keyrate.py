"""Joint states and spectra of the attacked two-way protocol.

The source emits computational-basis qubits with equal probability, so the
travelling state is maximally mixed. After the forward attack the joint
qubit-ancilla state is an equal mixture of the two attacked branches; the
receiver encodes key bit 0 by doing nothing and key bit 1 by applying the
real antisymmetric flip Y = |0><1| - |1><0|. Averaging over the key bit and
keeping a classical copy of it yields a classical-quantum state on
key ox qubit ox ancilla whose entropy is exactly 2 bits for every valid
attack; the eavesdropper's uncertainty about the key is therefore governed
entirely by the entropy of the reduced qubit-ancilla state.

Each attack's ancilla kets are realized from the Gram matrix of its
overlaps, one eigendecomposition for a stack of attacks, and scaled into
its two branch vectors. The joint state is assembled block by block: the
key bit is its most significant factor, so it is block diagonal with the
two halved branches on the diagonal, and the key-1 branch is the key-0
branch with its qubit blocks [[A, B], [C, D]] rearranged to [[D, -C],
[-B, A]]. Only the joint state and its qubit-ancilla reduction are
validated as density matrices.
A stack of k attacks is two arrays, the (k, 4) amplitudes and (k, 6)
overlaps of ``attack_rows``, whose rows come from attacks AttackParams
accepted. ``realize_ancillas``, ``branch_stack`` and ``joint_states`` take
them, with one eigensolver call per matrix size for the whole stack;
``realize_ancilla``, ``branch_vectors`` and ``build_rho_abe`` are their
one-attack cases.

That reduced state is 1/4 sum_i |v_i><v_i| over v = (phi0, phi1, Y phi0,
Y phi1), phi0 and phi1 being the orthonormal attacked branches, so its four
nonzero eigenvalues are those of the Gram matrix 1/4 [[I, B], [B^+, I]]:
(1 +/- sigma_k)/4 with sigma_k the singular values of the 2x2 block

    B = <phi_i|Y|phi_j> = [[2i a, m], [-conj(m), -2i b]]
    m = c00 c11 p - c01 c10 q,  a = c00 c01 Im s,  b = c10 c11 Im r

in the overlap notation of the attack module. For every valid attack they
are (1 +/- D1 +/- D2)/4 with D1 >= D2 the values sqrt(|m|^2 + (a + b)^2)
and |a - b|. Maximizing the entropy over the unobserved overlaps, with the
observed fidelities pinning c00 c11 p0 + c01 c10 q0, gives 1 + h(xi) where
xi = fpm + f01 - 1 and h is the binary entropy; the privacy-amplification
rate is then 2 - (1 + h(xi)) = 1 - h(xi), positive only above the abort
boundary xi >= 1/2. The rates module evaluates these scalar formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import AttackParams, named_attack
from .qstate import (
    ComplexMatrix,
    DensityMatrix,
    Ket,
    density_matrices,
    outer,
    trace_out,
    trace_distance,
    von_neumann_entropy,
)

# entry (i, j) of the Gram matrix of (|E00>, |E01>, |E11>, |E10>) as an
# index into (1, s, u, p, r, v, q, conj(s), conj(u), ..., conj(q))
_GRAM_TABLE = np.array([[0, 1, 3, 2], [7, 0, 5, 6], [9, 11, 0, 4], [8, 12, 10, 0]])


def _gram_stack(overlaps: np.ndarray) -> np.ndarray:
    """The (k, 4, 4) Gram matrices of (k, 6) overlaps, each as gram_matrix's."""
    ones = np.ones((len(overlaps), 1))
    return np.concatenate([ones, overlaps, overlaps.conj()], axis=1)[:, _GRAM_TABLE]


def gram_matrix(params: AttackParams) -> ComplexMatrix:
    """Gram matrix of (|E00>, |E01>, |E11>, |E10>) with unit diagonal."""
    ov = [params.s, params.u, params.p, params.r, params.v, params.q]
    return _gram_stack(np.array([ov], dtype=complex))[0]


def attack_rows(attacks: list[AttackParams]) -> tuple[np.ndarray, np.ndarray]:
    """A stack of attacks as arrays: the (k, 4) amplitudes (c00, c01, c11,
    c10) and the (k, 6) overlaps in OVERLAP_NAMES order."""
    amps = np.array([(a.c00, a.c01, a.c11, a.c10) for a in attacks], dtype=float)
    overlaps = np.array([(a.s, a.u, a.p, a.r, a.v, a.q) for a in attacks], dtype=complex)
    return amps, overlaps


def realize_ancillas(overlaps: np.ndarray) -> np.ndarray:
    """Concrete ancilla kets reproducing each row of (k, 6) overlaps: a
    (k, 4, 4) array whose entry i has as rows the kets (|E00>, |E01>,
    |E11>, |E10>) of attack i.

    Factorizes every Gram matrix through one stacked eigendecomposition.
    Negative eigenvalues, within the slack of validation, are clamped to
    zero and each ket rescaled to unit norm, a change of ~1e-10 at most.
    """
    lam, vecs = np.linalg.eigh(_gram_stack(overlaps))
    b = np.conjugate(vecs * np.sqrt(np.clip(lam, 0.0, None))[:, None, :])
    # rows of b satisfy <row_i|row_j> = G_ij, whose diagonal is 1
    return b / np.linalg.norm(b, axis=2, keepdims=True)


def realize_ancilla(params: AttackParams) -> np.ndarray:
    """The (4, 4) ancilla kets of one attack: realize_ancillas for k = 1."""
    return realize_ancillas(attack_rows([params])[1])[0]


def branch_stack(amps: np.ndarray, overlaps: np.ndarray) -> np.ndarray:
    """The two attacked transmission branches of each attack, stacked.

    Takes the attack_rows layout and returns a (k, 2, 8) array whose entry
    i holds U(|0> ox |E>) and U(|1> ox |E>) of attack i as 8-dim
    qubit-ancilla kets built from realized ancillas, the qubit's |0>
    component in the first four entries, its |1> in the last.
    """
    # rows c00 E00, c01 E01, c11 E11, c10 E10; branch 0 is (c00 E00, c01 E01)
    # and branch 1 is (c10 E10, c11 E11)
    scaled = amps[:, :, None] * realize_ancillas(overlaps)
    return scaled[:, [0, 1, 3, 2]].reshape(len(amps), 2, 8)


def branch_vectors(params: AttackParams) -> tuple[Ket, Ket]:
    """(U(|0> ox |E>), U(|1> ox |E>)) of one attack: branch_stack for k = 1."""
    return tuple(branch_stack(*attack_rows([params]))[0])


@dataclass(frozen=True)
class JointStateBundle:
    """The joint states produced by one forward attack.

    Attributes:
        rho_abe: classical key bit ox qubit ox ancilla, dims (2, 2, 4); block
            diagonal in the key bit, each block half of that key's branch.
        rho_be: qubit ox ancilla after tracing out the key bit, dims (2, 4).
    """

    rho_abe: DensityMatrix
    rho_be: DensityMatrix


def joint_states(amps: np.ndarray, overlaps: np.ndarray) -> list[JointStateBundle]:
    """Assemble the joint key-qubit-ancilla states of many attacks at once.

    The forward channel turns the maximally mixed qubit into the key-0
    branch be0, an equal mixture of the two attacked branch vectors. The
    key-1 branch is be0 conjugated by Y on the qubit factor: with be0 split
    into qubit blocks [[A, B], [C, D]] of 4x4 ancilla blocks, that is
    [[D, -C], [-B, A]], filled in by slicing. The classical key bit is the
    most significant factor, so the two branches, halved, are the diagonal
    blocks of rho_abe.

    Every step runs on the whole (k, ...) stack: one eigendecomposition of
    the k Gram matrices realizes the ancillas, and the two returned states
    are validated as density matrices with one stacked eigensolver call
    each, rho_abe on assembly and rho_be after tracing out the key bit.
    Each stacked call runs the same routine on each matrix, so entry i
    equals the bundle of attack i built alone, bit for bit.

    Args:
        amps, overlaps: at least one valid attack, in the attack_rows layout.

    Returns:
        One JointStateBundle per attack, in order, with both states as
        validated density matrices.
    """
    phi = branch_stack(amps, overlaps)
    be0 = 0.5 * (outer(phi[:, 0]) + outer(phi[:, 1]))
    abe = np.zeros((len(amps), 16, 16), dtype=complex)
    abe[:, :8, :8] = 0.5 * be0
    # key 1 from key 0: qubit blocks [[A, B], [C, D]] -> [[D, -C], [-B, A]]
    abe[:, 8:12, 8:12] = abe[:, 4:8, 4:8]
    abe[:, 8:12, 12:] = -abe[:, 4:8, :4]
    abe[:, 12:, 8:12] = -abe[:, :4, 4:8]
    abe[:, 12:, 12:] = abe[:, :4, :4]
    dims = (2, 2, 4)
    rho_abe = density_matrices(abe, dims)
    rho_be = density_matrices(trace_out(abe, dims, keep=(1, 2)), dims[1:])
    return [JointStateBundle(rho_abe=a, rho_be=b) for a, b in zip(rho_abe, rho_be)]


def build_rho_abe(params: AttackParams) -> JointStateBundle:
    """The joint states of one attack: joint_states for k = 1."""
    return joint_states(*attack_rows([params]))[0]


def backward_indistinguishability() -> float:
    """Distinguishability of the two encodings on the return path alone.

    With no forward attack the returning qubit is maximally mixed, and
    encoding I or Y on it gives identical states: the two key blocks of the
    identity attack's rho_abe, each renormalized, are equal, so their trace
    distance is 0 and a backward-only eavesdropper learns nothing.

    Returns:
        Trace distance between the key-0 and key-1 qubit-ancilla states.
    """
    abe = build_rho_abe(named_attack("identity")).rho_abe.matrix
    return trace_distance(2 * abe[:8, :8], 2 * abe[8:, 8:])


def s_be_numeric(params: AttackParams) -> float:
    """Entropy of the averaged qubit-ancilla state by diagonalization."""
    return von_neumann_entropy(build_rho_abe(params).rho_be)
