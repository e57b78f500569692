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
A stack of k attacks enters as a list of AttackParams: ``joint_states``
reads it through ``attack_rows`` into two arrays, the (k, 4) amplitudes
and (k, 6) overlaps, that ``realize_ancillas`` and ``branch_stack`` take,
with one eigensolver call per matrix size for the whole stack;
``be_stack`` realizes the ancillas once and returns the (k, 2, 8)
branches with rho_be, the validated sum of the same key blocks, so it
never forms or diagonalizes a 16x16 state, and ``be_states`` is its
states alone. ``realize_ancilla`` and ``build_rho_abe`` are their
one-attack cases; the backward check reads the identity attack's two key
blocks without assembling its joint state.

The same spectrum needs no realized ancilla. The attack is the Choi state
of its forward channel (Choi, Linear Algebra Appl. 10, 285, 1975), rho_RQ
= D G^T D / 2 with D = diag(c00, c01, c10, c11) and G the Gram matrix in
that order, which ``choi_states`` reads off the attack's own fields
through one index table. In a purification of the reduced qubit-ancilla
state its complement is the key bit ox the reference, whose state omega
is a fixed linear image of rho_RQ with the same nonzero spectrum;
``omega_states`` forms and validates it for a whole stack with one 4x4
eigensolver call. The verify module reads this route; the backward
check, ``s_be_numeric`` and the tests' oracles read the realized one.

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
    DensityMatrix,
    density_matrices,
    outer,
    trace_distance,
    validated_stack,
    von_neumann_entropy,
)

# entry (i, j) of the Gram matrix of (|E00>, |E01>, |E11>, |E10>) as an
# index into (1, s, u, p, r, v, q, conj(s), conj(u), ..., conj(q))
_GRAM_TABLE = np.array([[0, 1, 3, 2], [7, 0, 5, 6], [9, 11, 0, 4], [8, 12, 10, 0]])
# entry (a, b) of the Choi state over c_a c_b / 2, <E_b|E_a> for a, b in the
# reference-major order (00, 01, 10, 11), as an index into the same values:
# _GRAM_TABLE reordered and transposed
_CHOI_TABLE = _GRAM_TABLE[np.ix_([0, 1, 3, 2], [0, 1, 3, 2])].T
# omega[k r, l r'] = (1/2) sum_q,a,b Y^k[q, a] Y^l[q, b] rho_RQ[r a, r' b], as
# the (16, 16) matrix of the flattened map, transposed to act on row stacks; Y^k
# is the receiver's encoding of key bit k
_Y_POWERS = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]]])
_OMEGA_T = (
    0.5 * np.einsum("kqa,lqb,rx,sy->krlsxayb", _Y_POWERS, _Y_POWERS, np.eye(2), np.eye(2))
).reshape(16, 16).T.astype(complex)


def _overlap_values(overlaps: np.ndarray) -> np.ndarray:
    """The (k, 13) values the tables index: 1, the (k, 6) overlaps, their conjugates."""
    ones = np.ones((len(overlaps), 1))
    return np.concatenate([ones, overlaps, overlaps.conj()], axis=1)


def _gram_stack(overlaps: np.ndarray) -> np.ndarray:
    """The (k, 4, 4) Gram matrices of (|E00>, |E01>, |E11>, |E10>), unit
    diagonal, of (k, 6) overlaps."""
    return _overlap_values(overlaps)[:, _GRAM_TABLE]


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


def _key_blocks(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (k, 8, 8) key-0 and key-1 diagonal blocks of each attack's rho_abe,
    from its (k, 2, 8) branch_stack.

    The forward channel turns the maximally mixed qubit into the key-0
    branch be0, an equal mixture of the two attacked branch vectors. The
    key-1 branch is be0 conjugated by Y on the qubit factor: with be0 split
    into qubit blocks [[A, B], [C, D]] of 4x4 ancilla blocks, that is
    [[D, -C], [-B, A]], filled in by slicing. Each block is half its branch.
    """
    be0 = 0.5 * (outer(phi[:, 0]) + outer(phi[:, 1]))
    key0 = 0.5 * be0
    key1 = np.empty_like(key0)
    key1[:, :4, :4] = key0[:, 4:, 4:]
    key1[:, :4, 4:] = -key0[:, 4:, :4]
    key1[:, 4:, :4] = -key0[:, :4, 4:]
    key1[:, 4:, 4:] = key0[:, :4, :4]
    return key0, key1


def joint_states(attacks: list[AttackParams]) -> list[JointStateBundle]:
    """Assemble the joint key-qubit-ancilla states of many attacks at once.

    The classical key bit is the most significant factor, so the two halved
    branches of _key_blocks are the diagonal blocks of rho_abe, and tracing
    out the key bit adds them.

    Every step runs on the whole (k, ...) stack of the attacks' attack_rows
    arrays: one eigendecomposition of the k Gram matrices realizes the
    ancillas, and the two returned states are validated as density
    matrices with one stacked eigensolver call each, rho_abe on assembly
    and rho_be after tracing out the key bit. Each stacked call runs the
    same routine on each matrix, so entry i equals the bundle of attack i
    built alone, bit for bit.

    Args:
        attacks: at least one AttackParams.

    Returns:
        One JointStateBundle per attack, in order, with both states as
        validated density matrices.
    """
    key0, key1 = _key_blocks(branch_stack(*attack_rows(attacks)))
    abe = np.zeros((len(attacks), 16, 16), dtype=complex)
    abe[:, :8, :8], abe[:, 8:, 8:] = key0, key1
    rho_abe = density_matrices(abe, (2, 2, 4))
    rho_be = density_matrices(key0 + key1, (2, 4))
    return [JointStateBundle(rho_abe=a, rho_be=b) for a, b in zip(rho_abe, rho_be)]


def be_stack(attacks: list[AttackParams]) -> tuple[np.ndarray, list[DensityMatrix]]:
    """The realized branches and the qubit-ancilla state rho_be of each
    attack, without rho_abe.

    The ancillas are realized once for the whole stack: the (k, 2, 8)
    branch_stack comes back as it is, and rho_be, the sum of its two key
    blocks, validated with one stacked eigensolver call. Entry i equals
    joint_states(attacks)[i].rho_be, bit for bit.
    """
    phi = branch_stack(*attack_rows(attacks))
    key0, key1 = _key_blocks(phi)
    return phi, density_matrices(key0 + key1, (2, 4))


def be_states(attacks: list[AttackParams]) -> list[DensityMatrix]:
    """The qubit-ancilla state rho_be of each attack: be_stack's states."""
    return be_stack(attacks)[1]


def build_rho_abe(params: AttackParams) -> JointStateBundle:
    """The joint states of one attack: joint_states for k = 1."""
    return joint_states([params])[0]


def backward_indistinguishability() -> float:
    """Distinguishability of the two encodings on the return path alone.

    With no forward attack the returning qubit is maximally mixed, and
    encoding I or Y on it gives identical states: the two key blocks of the
    identity attack's rho_abe, each renormalized, are equal, so their trace
    distance is 0 and a backward-only eavesdropper learns nothing.

    The blocks come from _key_blocks alone: the identity attack's 16x16
    state is never assembled or validated.

    Returns:
        Trace distance between the key-0 and key-1 qubit-ancilla states.
    """
    key0, key1 = _key_blocks(branch_stack(*attack_rows([named_attack("identity")])))
    return trace_distance(2 * key0[0], 2 * key1[0])


def choi_states(attacks: list[AttackParams]) -> np.ndarray:
    """The (k, 4, 4) Choi state rho_RQ of each attack's forward channel.

    rho_RQ is the reference-qubit state after the channel acts on half of
    a maximally entangled pair. Entry (a, b), in the order (00, 01, 10,
    11), is c_a c_b <E_b|E_a> / 2, read off the attack's own fields. Tr_Q
    rho_RQ = I/2 is amplitude normalization and branch orthogonality, and
    rho_RQ >= 0 is Gram positivity; the stack is returned unvalidated.
    """
    amps, overlaps = attack_rows(attacks)
    c = amps[:, [0, 1, 3, 2]]
    return 0.5 * (c[:, :, None] * c[:, None, :]) * _overlap_values(overlaps)[:, _CHOI_TABLE]


def omega_states(choi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The state omega on key ox reference, dims (2, 2), of each (k, 4, 4)
    Choi state: the validated (k, 4, 4) stack, with one stacked eigensolver
    call, and its (k, 4) spectra, each descending and read-only.

    omega = (1/2) sum_kl |k><l| ox Tr_Q[(I ox Y^k) rho_RQ (I ox Y^l)^+] is
    the complement of rho_BE in a purification, so its four eigenvalues
    are rho_BE's nonzero ones. The map is one product with a (16, 16)
    matrix, and each entry is the sum of two halved entries of rho_RQ, so
    its bits do not depend on the BLAS kernel.
    """
    k = len(choi)
    omega, spectra = validated_stack((choi.reshape(k, 16) @ _OMEGA_T).reshape(k, 4, 4), (2, 2))
    return omega, spectra[:, ::-1]


def s_be_numeric(params: AttackParams) -> float:
    """Entropy of the averaged qubit-ancilla state by diagonalization."""
    return von_neumann_entropy(be_states([params])[0])
