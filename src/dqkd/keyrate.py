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

The joint state is assembled block by block: the key bit is its most
significant factor, so it is block diagonal with the two halved branches on
the diagonal, and the key-1 branch is the key-0 branch with its qubit
blocks [[A, B], [C, D]] rearranged to [[D, -C], [-B, A]]. Only the joint
state and its qubit-ancilla reduction are validated as density matrices.
``joint_states`` builds the states of many attacks as one stack, with one
eigensolver call per matrix size for all of them; ``build_rho_abe`` is its
one-attack case.

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

import math
from dataclasses import dataclass

import numpy as np

from .attack import AttackParams, branch_stack, named_attack
from .qstate import (
    DensityMatrix,
    Spectrum,
    density_matrices,
    entropy_bits,
    outer,
    trace_out,
    trace_distance,
    von_neumann_entropy,
)

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


def joint_states(attacks: list[AttackParams]) -> list[JointStateBundle]:
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
        attacks: attack parameters, at least one.

    Returns:
        One JointStateBundle per attack, in order, with both states as
        validated density matrices.
    """
    phi = branch_stack(attacks)
    be0 = 0.5 * (outer(phi[:, 0]) + outer(phi[:, 1]))
    abe = np.zeros((len(attacks), 16, 16), dtype=complex)
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
    return joint_states([params])[0]


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


@dataclass(frozen=True)
class BeSpectrumClosedForm:
    """Closed-form nonzero spectrum of the averaged qubit-ancilla state.

    The four eigenvalues are (1 +/- delta1 +/- delta2)/4 with delta1 >=
    delta2 >= 0; the remaining four eigenvalues of the 8-dimensional state
    are exactly zero.
    """

    delta1: float
    delta2: float

    @classmethod
    def from_block(cls, m: complex, a: float, b: float) -> "BeSpectrumClosedForm":
        """The spectrum of the block B = [[2i a, m], [-conj(m), -2i b]]."""
        d_a = math.sqrt(abs(m) ** 2 + (a + b) ** 2)
        d_b = abs(a - b)
        return cls(delta1=max(d_a, d_b), delta2=min(d_a, d_b))

    def spectrum(self) -> Spectrum:
        """The four nonzero eigenvalues, sorted descending."""
        d1, d2 = self.delta1, self.delta2
        return np.array([1 + d1 + d2, 1 + d1 - d2, 1 - d1 + d2, 1 - d1 - d2]) / 4.0

    def entropy(self) -> float:
        """Entropy of the spectrum in bits, with 0 log 0 = 0."""
        return entropy_bits(self.spectrum())


def be_spectrum_closed_form(params: AttackParams) -> BeSpectrumClosedForm:
    """Closed-form spectrum of the averaged qubit-ancilla state.

    Args:
        params: any valid attack, symmetric or not; the module docstring
            derives delta1 and delta2 from the 2x2 block B.

    Returns:
        BeSpectrumClosedForm whose eigenvalues match brute-force
        diagonalization of the built state within 1e-10.
    """
    m = params.c00 * params.c11 * params.p - params.c01 * params.c10 * params.q
    a = params.c00 * params.c01 * params.s.imag
    b = params.c10 * params.c11 * params.r.imag
    return BeSpectrumClosedForm.from_block(m, a, b)


def s_be_numeric(params: AttackParams) -> float:
    """Entropy of the averaged qubit-ancilla state by diagonalization."""
    return von_neumann_entropy(build_rho_abe(params).rho_be)
