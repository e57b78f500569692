import numpy as np
import pytest

from dqkd.qstate import (
    DensityMatrix,
    NotDensityMatrixError,
    NotHermitianError,
    density_matrices,
    outer,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
)
from dqkd.rates import binary_entropy
from oracles import KET_0, KET_1, KET_MINUS, KET_PLUS, Y_GATE

# precomputed with 30-digit arithmetic
H_005 = 0.2863969571159561


def test_kron_basis_projector():
    got = np.kron(outer(KET_0), outer(KET_1))
    want = np.zeros((4, 4), dtype=complex)
    want[1, 1] = 1.0  # row-major ordering: |01> is index 1
    assert np.array_equal(got, want)


def test_kron_flip_on_first_factor():
    # Y|0> = -|1>, so (Y ox I)(|0> ox |0>) = -|1> ox |0>
    state = np.kron(KET_0, KET_0)
    flipped = np.kron(Y_GATE, np.eye(2)) @ state
    assert np.allclose(flipped, -np.kron(KET_1, KET_0))


def test_flip_gate_action():
    assert np.allclose(Y_GATE @ KET_0, -KET_1)
    assert np.allclose(Y_GATE @ KET_1, KET_0)
    assert np.allclose(Y_GATE @ KET_PLUS, KET_MINUS)
    assert np.allclose(Y_GATE @ KET_MINUS, -KET_PLUS)


def test_density_matrix_validates():
    rho = DensityMatrix(0.5 * np.eye(2, dtype=complex), dims=(2,))
    assert rho.dims == (2,)
    with pytest.raises(NotHermitianError):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex), dims=(2,))
    with pytest.raises(NotDensityMatrixError):
        DensityMatrix(np.eye(2, dtype=complex), dims=(2,))  # trace 2
    with pytest.raises(NotDensityMatrixError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex), dims=(2,))  # negative eig
    with pytest.raises(NotDensityMatrixError):
        DensityMatrix(0.25 * np.eye(4, dtype=complex), dims=(2,))  # dims mismatch
    with pytest.raises((NotHermitianError, NotDensityMatrixError)):
        DensityMatrix(np.full((2, 2), np.nan, dtype=complex), dims=(2,))


def test_density_matrices_validate_a_stack_at_once():
    rng = np.random.default_rng(5)
    stack = []
    for _ in range(20):  # several matrices, so each error must name the one it found
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = m @ m.conj().T
        stack.append(m / np.trace(m))
    stack = np.array(stack)
    for rho, m in zip(density_matrices(stack, dims=(2, 2)), stack):
        alone = DensityMatrix(m, dims=(2, 2))
        assert rho.dims == (2, 2)
        assert np.array_equal(rho.matrix, alone.matrix)
        assert np.array_equal(rho.spectrum(), alone.spectrum())
    # each error names the first matrix that breaks its invariant
    not_psd = stack.copy()
    not_psd[2] = not_psd[3] = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(NotDensityMatrixError, match="matrix 2:"):
        density_matrices(not_psd, dims=(2, 2))
    skewed = stack.copy()
    skewed[17, 0, 1] += 1e-6
    skewed[19, 0, 1] += 1e-6
    with pytest.raises(NotHermitianError, match="matrix 17 "):
        density_matrices(skewed, dims=(2, 2))
    scaled = stack.copy()
    scaled[3] *= 2.0
    with pytest.raises(NotDensityMatrixError, match="matrix 3:"):
        density_matrices(scaled, dims=(2, 2))
    with pytest.raises(NotDensityMatrixError):
        density_matrices(stack, dims=(2,))  # dims mismatch


@pytest.mark.parametrize("bad, first", [((15, 16, 63), 15), ((16, 63), 16), ((63,), 63)])
def test_hermitian_check_names_the_first_bad_matrix_of_a_stack(bad, first):
    # a 64-matrix stack, the omega states of 32 draws and their neighbours,
    # is checked in one pass: a skew entry anywhere, the last matrix
    # included, is found, and the error names the first such matrix
    stack = np.array([np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)] * 64)
    for i in bad:
        stack[i, 1, 2] += 1e-6j
    with pytest.raises(NotHermitianError, match=f"matrix {first} "):
        density_matrices(stack, dims=(2, 2))


def test_partial_trace_bell_state():
    bell = (np.kron(KET_0, KET_0) + np.kron(KET_1, KET_1)) / np.sqrt(2)
    rho = DensityMatrix(outer(bell), dims=(2, 2))
    reduced = partial_trace(rho, keep=(1,))
    assert np.allclose(reduced.matrix, 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_product_state():
    rho_a = outer(KET_PLUS)
    rho_b = np.diag([0.25, 0.75]).astype(complex)
    rho = DensityMatrix(np.kron(rho_a, rho_b), dims=(2, 2))
    assert np.allclose(partial_trace(rho, keep=(1,)).matrix, rho_b, atol=1e-12)
    assert np.allclose(partial_trace(rho, keep=(0,)).matrix, rho_a, atol=1e-12)


def test_partial_trace_preserves_trace_and_checks_indices():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m = m @ m.conj().T
    rho = DensityMatrix(m / np.trace(m), dims=(2, 2, 4))
    for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
        reduced = partial_trace(rho, keep=keep)
        assert abs(np.trace(reduced.matrix) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        partial_trace(rho, keep=(3,))
    with pytest.raises(ValueError):
        partial_trace(rho, keep=())
    with pytest.raises(ValueError, match="strictly increasing"):
        partial_trace(rho, keep=(1, 0))
    with pytest.raises(ValueError, match=r"keep=\(1, 1\) is not a subset"):
        partial_trace(rho, keep=(1, 1))


def _loop_partial_trace(mat, dims, keep):
    # index-by-index reference implementation, no reshape tricks
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    out_dim = int(np.prod(kept_dims))
    out = np.zeros((out_dim, out_dim), dtype=complex)

    def unravel(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def ravel(idx, which):
        flat = 0
        for i in which:
            flat = flat * dims[i] + idx[i]
        return flat

    total = int(np.prod(dims))
    for a in range(total):
        ia = unravel(a)
        for b in range(total):
            ib = unravel(b)
            if all(ia[t] == ib[t] for t in traced):
                out[ravel(ia, keep), ravel(ib, keep)] += mat[a, b]
    return out


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(23)
    for _ in range(5):
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m = m @ m.conj().T
        rho = DensityMatrix(m / np.trace(m), dims=(2, 2, 4))
        for keep in ((0,), (2,), (0, 1), (1, 2), (0, 2)):
            fast = partial_trace(rho, keep=keep).matrix
            slow = _loop_partial_trace(rho.matrix, (2, 2, 4), keep)
            assert np.max(np.abs(fast - slow)) <= 1e-12


def test_density_matrix_spectrum():
    rho = DensityMatrix(0.5 * np.eye(2, dtype=complex), dims=(2,))
    assert np.allclose(rho.spectrum(), [0.5, 0.5])
    rho = DensityMatrix(outer(KET_PLUS), dims=(2,))
    assert np.allclose(rho.spectrum(), [1.0, 0.0], atol=1e-12)
    # eigenvalue sum equals trace, values sorted descending
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = m @ m.conj().T
        w = DensityMatrix(m / np.trace(m), dims=(2, 4)).spectrum()
        assert np.all(np.diff(w) <= 0)
        assert abs(np.sum(w) - 1.0) <= 1e-10


def test_stored_spectrum_is_read_only():
    rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), dims=(2,))
    w = rho.spectrum()
    with pytest.raises(ValueError):
        w[0] = 0.0
    assert np.array_equal(rho.spectrum(), [0.75, 0.25])
    assert von_neumann_entropy(rho) == binary_entropy(0.25)


def test_von_neumann_entropy():
    assert von_neumann_entropy(DensityMatrix(0.5 * np.eye(2, dtype=complex), dims=(2,))) == pytest.approx(1.0)
    assert von_neumann_entropy(DensityMatrix(outer(KET_PLUS), dims=(2,))) == pytest.approx(0.0, abs=1e-12)
    # eigvalsh maps a NaN diagonal entry to finite eigenvalues (entropy -0.0)
    nan_diagonal = np.diag([np.nan, 0.5]).astype(complex)
    for bad in (np.full((2, 2), np.nan, dtype=complex), nan_diagonal):
        with pytest.raises((NotHermitianError, NotDensityMatrixError)):
            von_neumann_entropy(bad)
    with pytest.raises(NotDensityMatrixError):
        von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))  # negative eig


def test_entropy_is_basis_independent():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = m @ m.conj().T
    rho = m / np.trace(m)
    base = von_neumann_entropy(rho)
    for _ in range(10):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(g)
        assert abs(von_neumann_entropy(q @ rho @ q.conj().T) - base) <= 1e-9


def test_binary_entropy():
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.05) == pytest.approx(H_005, abs=1e-15)
    xs = np.linspace(0.0, 1.0, 101)
    for x in xs:
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) <= 1e-12
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    with pytest.raises(ValueError):
        binary_entropy(float("nan"))


def test_trace_distance():
    a = outer(KET_0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(outer(KET_0), outer(KET_1)) == pytest.approx(1.0)
    assert trace_distance(outer(KET_PLUS), outer(KET_MINUS)) == pytest.approx(1.0)
