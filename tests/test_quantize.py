"""Quantization layer: generalized DFT, standard open quantization,
the Walsh tensor model, parity splitting, and diagonal perturbations.

Matrix-level claims are checked against literal loop evaluations of the
defining formulas and against closed-form eigenvalues where the blocks
are small enough to solve by hand (2x2 quadratic formula).  The FFT
build of the standard map is checked against the dense Fourier-matrix
product it replaced, its kept-column build against the full-U build it
replaced, and the Walsh build against an entry-by-entry scatter.  The
parity split, which checks the reflection symmetry of the standard map
with Bloch phases (1/2, 1/2), lives here as a helper.
"""

import cmath
import dataclasses
import inspect
import math
import textwrap
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from oqmap import (
    QuantizationConfig,
    apply_diagonal_phases,
    eigen_decompose,
    match_spectra,
    quantize_open,
    symmetric_spec,
    walsh_open,
)
from oqmap.errors import (
    DimensionGuard,
    DivisibilityError,
    EndpointMismatch,
    LengthMismatch,
    NumericalError,
    SolverFailure,
    ValidationError,
)

import oqmap.quantize
import oqmap.spectral
from oqmap.quantize import (
    _block_sizes,
    _block_inverse,
    _gdft_apply,
    _kept_block,
    _kept_columns,
    _open_columns,
)

from conftest import (
    get_quantization,
    get_spec,
    get_walsh,
    get_walsh_spectrum,
    use_removed_digit_core,
)


def unitarity_defect(U: np.ndarray) -> float:
    N = U.shape[0]
    return float(np.abs(U.conj().T @ U - np.eye(N)).max())


def walsh_scatter(omega: np.ndarray, k: int) -> np.ndarray:
    """Reference Walsh map, entry by entry: the column for the big-endian
    word (d0 d1 ... d_{k-1}) holds Omega[a, d0] at row (d1 ... d_{k-1} a)."""
    D = omega.shape[0]
    N = D ** k
    cols = np.arange(N)
    high = D ** (k - 1)
    lead = cols // high
    base = (cols % high) * D
    M = np.zeros((N, N), dtype=complex)
    for a in range(D):
        M[base + a, cols] = omega[a, lead]
    return M


WALSH_BUILD_CASES = [
    (3, (0, 2), 4), (3, (0, 2), 7), (4, (0, 2), 3), (4, (0, 1, 3), 5),
    (5, (1, 3), 4), (6, (1, 4), 4), (6, (0, 2, 4), 4),
    *[(3, (0, 2), k) for k in range(1, 7)],
    (2, (0,), 12),  # N = 4096, the largest D^k under the dense guard
]


def gdft(N: int, bloch=(0.0, 0.0)) -> np.ndarray:
    """Dense generalized DFT F[j,k] = N^{-1/2} e^{-2 pi i (j+txi)(k+tx)/N},
    with the jk term reduced mod N in integer arithmetic."""
    theta_x, theta_xi = bloch
    idx = np.arange(N)
    quad = np.mod(np.outer(idx, idx), N).astype(float)
    cross = (idx[:, None] * theta_x + idx[None, :] * theta_xi
             + theta_xi * theta_x)
    return np.exp((-2j * np.pi / N) * (quad + cross)) / np.sqrt(N)


def matmul_unitary(sizes, bloch) -> np.ndarray:
    """U = F_N^dagger @ blockdiag(F_size): the O(N^3) dense-matrix build."""
    N = sum(sizes)
    inner = np.zeros((N, N), dtype=complex)
    offset = 0
    for size in sizes:
        inner[offset:offset + size, offset:offset + size] = gdft(size, bloch)
        offset += size
    return gdft(N, bloch).conj().T @ inner


def full_unitary_build(spec, N: int, bloch):
    """(U, Pi, M) as quantize_open built them before it kept only the
    kept columns: the full blockdiag(F_size) 'inner', then U, then U Pi."""
    sizes = _block_sizes(spec, N)
    inner = np.zeros((N, N), dtype=complex)
    diag = np.zeros(N)
    offset = 0
    for i, size in enumerate(sizes):
        inner[offset:offset + size, offset:offset + size] = _gdft_apply(
            np.eye(size), bloch)
        if i in spec.keep:
            diag[offset:offset + size] = 1.0
        offset += size
    U = _gdft_apply(inner, bloch, inverse=True)
    return U, diag, U * diag[None, :]


def fft_build_deviation(tag: str, N: int, bloch) -> float:
    """Max entry deviation of quantize_open's U from the matmul build."""
    quant = quantize_open(get_spec(tag), QuantizationConfig(N, bloch))
    U = quant.unitary  # built on each access, so read once
    return float(np.abs(U.matrix - matmul_unitary(U.block_sizes, bloch)).max())


class AsymmetricSpec(ValidationError):
    """Parity splitting needs a partition and keep set symmetric under
    the reflection i -> D-1-i."""


class ParityNotExact(NumericalError):
    """The reflection operator does not commute with the map to tolerance.

    Carries the measured commutator norm; signals that the chosen Bloch
    phases do not support exact parity (use (1/2, 1/2) for that).
    """

    def __init__(self, commutator_norm: float):
        self.commutator_norm = float(commutator_norm)
        super().__init__(
            f"reflection commutator norm {self.commutator_norm:.3e} exceeds 1e-8"
        )


def parity_split(qmap):
    """Compress an open map onto the +-1 eigenspaces of the reflection.

    Requires a reflection-symmetric rectangle structure; reports the
    commutator norm ||MR - RM||_2 and raises ParityNotExact when it
    exceeds 1e-8 (plain-DFT boundary conditions break parity; Bloch
    phases (1/2, 1/2) restore it to machine precision).  On success the
    two compressions' spectra are verified to reassemble spec(M) within
    1e-6; returns (M_even, M_odd, commutator_norm).
    """
    if qmap.block_sizes is None:
        raise AsymmetricSpec("map carries no rectangle structure to reflect")
    sizes = qmap.block_sizes
    D = len(sizes)
    if tuple(reversed(sizes)) != sizes:
        raise AsymmetricSpec(f"block sizes {sizes} not reflection-symmetric")
    if tuple(sorted(D - 1 - i for i in qmap.keep)) != qmap.keep:
        raise AsymmetricSpec(f"keep set {qmap.keep} not reflection-symmetric")

    M = qmap.matrix
    N = M.shape[0]
    # M @ R reverses columns, R @ M reverses rows
    commutator_norm = float(np.linalg.norm(M[:, ::-1] - M[::-1, :], 2))
    if commutator_norm > 1e-8:
        raise ParityNotExact(commutator_norm)

    half = N // 2
    n_even = half + (N % 2)
    basis_even = np.zeros((N, n_even))
    basis_odd = np.zeros((N, half))
    root_half = np.sqrt(0.5)
    for col, j in enumerate(range(half)):
        basis_even[j, col] = root_half
        basis_even[N - 1 - j, col] = root_half
        basis_odd[j, col] = root_half
        basis_odd[N - 1 - j, col] = -root_half
    if N % 2:
        basis_even[half, n_even - 1] = 1.0  # the fixed middle site is even

    m_even = basis_even.T @ M @ basis_even
    m_odd = basis_odd.T @ M @ basis_odd

    # the split must be lossless: spectra of the blocks reassemble spec(M)
    full = np.sort_complex(np.linalg.eigvals(M))
    parts = np.sort_complex(np.concatenate([
        np.linalg.eigvals(m_even), np.linalg.eigvals(m_odd)]))
    _, lost, extra = oqmap.spectral.match_spectra(full, parts, tol=1e-6)
    unmatched = len(lost) + len(extra)
    if unmatched:
        raise SolverFailure(
            f"parity blocks lost {unmatched} eigenvalues beyond tolerance 1e-6")
    return m_even, m_odd, commutator_norm


# ---------------------------------------------------------------------------
# generalized DFT, applied by FFT
# ---------------------------------------------------------------------------

class TestGdft:
    def test_trivial_dimension(self):
        assert np.allclose(_gdft_apply(np.eye(1), (0.0, 0.0)), [[1.0]], atol=1e-15)

    def test_two_by_two_exact(self):
        want = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.abs(_gdft_apply(np.eye(2), (0.0, 0.0)) - want).max() <= 1e-15

    def test_loop_formula_oracle(self):
        N, tx, txi = 7, 0.3, 0.6
        got = _gdft_apply(np.eye(N), (tx, txi))
        got_inverse = _gdft_apply(np.eye(N), (tx, txi), inverse=True)
        for j in range(N):
            for k in range(N):
                want = cmath.exp(-2j * cmath.pi * (j + txi) * (k + tx) / N) \
                    / math.sqrt(N)
                assert abs(got[j, k] - want) <= 1e-14
                # F^dagger[k, j] = conj(F[j, k])
                assert abs(got_inverse[k, j] - want.conjugate()) <= 1e-14

    def test_unitary_with_bloch_phases(self):
        assert unitarity_defect(_gdft_apply(np.eye(4), (0.5, 0.5))) <= 1e-14
        assert unitarity_defect(_gdft_apply(np.eye(12), (0.17, 0.83))) <= 1e-13

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            _gdft_apply(np.zeros((0, 0)), (0.0, 0.0))


BUILD_CASES = [("D3", 243), ("D3", 972), ("D5", 500), ("D5", 1000), ("asym", 256)]
BLOCH_CASES = [(0.0, 0.0), (0.5, 0.5), (0.3, 0.7)]


class TestFftBuild:
    @pytest.mark.parametrize("bloch", BLOCH_CASES, ids=lambda b: f"{b[0]},{b[1]}")
    @pytest.mark.parametrize("tag,N", BUILD_CASES)
    def test_matches_matmul_build(self, tag, N, bloch):
        assert fft_build_deviation(tag, N, bloch) <= 1e-14

    @pytest.mark.parametrize("original,replacement", [
        ("twiddle_in = np.exp(", "twiddle_in = 1 + 0 * np.exp("),
        ("twiddle_out = np.exp(", "twiddle_out = 1 + 0 * np.exp("),
        ("np.fft.ifft(", "np.fft.fft("),
    ], ids=["no input twiddle", "no output twiddle", "fft for ifft"])
    def test_mutant_is_caught(self, original, replacement, monkeypatch):
        source = textwrap.dedent(inspect.getsource(oqmap.quantize._gdft_apply))
        mutant = source.replace(original, replacement)
        assert mutant != source
        namespace = dict(vars(oqmap.quantize))
        exec(mutant, namespace)
        monkeypatch.setattr(oqmap.quantize, "_gdft_apply", namespace["_gdft_apply"])
        assert fft_build_deviation("D3", 27, (0.3, 0.7)) > 1e-3


# ---------------------------------------------------------------------------
# standard quantization
# ---------------------------------------------------------------------------

class TestQuantizeOpen:
    def test_smallest_case_projector(self, spec3):
        quant = quantize_open(spec3, QuantizationConfig(3))
        assert np.array_equal(quant.projector, [1.0, 0.0, 1.0])
        assert np.linalg.matrix_rank(quant.open_map.matrix) == 2
        # open map is the unitary with the removed column zeroed
        assert np.abs(quant.open_map.matrix[:, 1]).max() == 0.0
        assert np.abs(quant.open_map.matrix[:, 0]
                      - quant.unitary.matrix[:, 0]).max() == 0.0

    def test_unitarity_sweep(self, spec3, spec5):
        for spec, dims in ((spec3, (3, 27, 81)), (spec5, (5, 25, 100))):
            for N in dims:
                U = quantize_open(spec, QuantizationConfig(N)).unitary.matrix
                assert unitarity_defect(U) <= 1e-12

    def test_singular_values_split(self, spec3):
        quant = get_quantization("D3", 81)
        sv = np.linalg.svd(quant.open_map.matrix, compute_uv=False)
        ones = int(np.sum(np.abs(sv - 1.0) <= 1e-10))
        zeros = int(np.sum(np.abs(sv) <= 1e-10))
        assert ones == 54 and zeros == 27
        assert ones + zeros == 81

    def test_divisibility_required(self, spec3):
        with pytest.raises(DivisibilityError):
            quantize_open(spec3, QuantizationConfig(10))

    def test_dense_guard(self, spec3):
        with pytest.raises(DimensionGuard):
            quantize_open(spec3, QuantizationConfig(5001))

    def test_block_sizes_must_fill_N(self):
        # widths summing to 1/2 leave half of the lattice unassigned
        half = SimpleNamespace(lengths=(Fraction(1, 4), Fraction(1, 4)))
        with pytest.raises(EndpointMismatch):
            _block_sizes(half, 8)

    def test_spectrum_subunitary(self, spec3):
        eigs = eigen_decompose(get_quantization("D3", 81).open_map).eigenvalues
        assert np.abs(eigs).max() <= 1.0 + 1e-8

    def test_metadata(self, spec5):
        quant = quantize_open(spec5, QuantizationConfig(25, (0.5, 0.5)))
        assert quant.open_map.kind == "open_standard"
        assert quant.unitary.kind == "closed_unitary"
        assert quant.open_map.block_sizes == (5, 5, 5, 5, 5)
        assert quant.open_map.bloch == (0.5, 0.5)
        assert quant.open_map.dimension == 25


class TestKeptColumnBuild:
    """quantize_open builds only the kept blocks' columns, and .unitary
    runs the same block-column build over every block on demand."""

    @pytest.mark.parametrize("bloch", BLOCH_CASES, ids=lambda b: f"{b[0]},{b[1]}")
    @pytest.mark.parametrize("tag,N", BUILD_CASES)
    def test_bitwise_full_unitary_build(self, tag, N, bloch):
        spec = get_spec(tag)
        quant = quantize_open(spec, QuantizationConfig(N, bloch))
        U, diag, M = full_unitary_build(spec, N, bloch)
        assert np.array_equal(quant.projector, diag)
        assert np.array_equal(quant.open_map.matrix, M)
        kept = diag == 1.0
        assert quant.open_map.matrix[:, kept].tobytes() == M[:, kept].tobytes()
        assert quant.unitary.matrix.tobytes() == U.tobytes()

    @pytest.mark.parametrize("tag,N", BUILD_CASES)
    def test_removed_columns_hold_positive_zeros(self, tag, N):
        # U * 0.0 left -0.0 wherever U had a negative part; a direct build
        # writes +0.0, as walsh_open does
        quant = quantize_open(get_spec(tag), QuantizationConfig(N, (0.3, 0.7)))
        removed = quant.open_map.matrix[:, quant.projector == 0.0]
        assert removed.size and not np.any(removed)
        assert not np.signbit(removed.real).any()
        assert not np.signbit(removed.imag).any()

    def test_unitary_is_built_on_demand(self, spec5):
        quant = quantize_open(spec5, QuantizationConfig(25, (0.5, 0.5)))
        assert [f.name for f in dataclasses.fields(quant)] == ["projector", "open_map"]
        first, second = quant.unitary, quant.unitary
        assert first.matrix is not second.matrix
        assert np.array_equal(first.matrix, second.matrix)
        assert (first.digest, first.keep, first.block_sizes, first.bloch) == (
            quant.open_map.digest, quant.open_map.keep,
            quant.open_map.block_sizes, quant.open_map.bloch)

    def test_holds_one_dense_matrix(self, spec3):
        # M plus the transients of one 64-column chunk (N x 64 each); the
        # full-U build peaked at three N x N arrays, the block-column
        # build at 1.68 of one
        N = 972
        quantize_open(spec3, QuantizationConfig(N, (0.3, 0.7)))  # FFT plans
        tracemalloc.start()
        try:
            quant = quantize_open(spec3, QuantizationConfig(N, (0.3, 0.7)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert quant.open_map.matrix.nbytes == 16 * N * N
        assert peak <= 1.25 * 16 * N * N


class TestKeptBlock:
    """_kept_block is M[nz, nz] on the kept indices nz, _kept_columns
    M[:, nz] and _open_columns M's columns in chunks, built from the same
    inverse transforms as quantize_open without an N x N array."""

    @pytest.mark.parametrize("tag,N", [*BUILD_CASES, ("D3", 162), ("D5", 250),
                                       ("asym", 12)])
    def test_bitwise_open_map_block(self, tag, N):
        rng = np.random.default_rng(N)
        for _ in range(2):
            config = QuantizationConfig(N, tuple(rng.uniform(0.0, 1.0, 2)))
            quant = quantize_open(get_spec(tag), config)
            nz = np.flatnonzero(quant.projector)
            want = quant.open_map.matrix[np.ix_(nz, nz)]
            got = _kept_block(get_spec(tag), config)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            kept, chunks = _kept_columns(get_spec(tag), config)
            chunks = list(chunks)
            assert np.array_equal(kept, nz)
            assert all(c.shape[0] == N and c.shape[1] <= 64 for c in chunks)
            assert np.hstack(chunks).tobytes() == \
                quant.open_map.matrix[:, nz].tobytes()
            # the removed columns' +0.0 included
            chunks = list(_open_columns(get_spec(tag), config))
            assert all(c.shape[0] == N and c.shape[1] <= 64 for c in chunks)
            assert np.hstack(chunks).tobytes() == quant.open_map.matrix.tobytes()

    @pytest.mark.parametrize("width", [1, 7, 64, 1000])
    def test_column_chunks_move_no_bit(self, width):
        sizes, bloch = (128, 64, 64), (0.3, 0.7)
        # each block's columns from one full-width inverse transform
        U = np.hstack([_block_inverse(sizes, i, bloch) for i in range(3)])
        chunks = [_block_inverse(sizes, i, bloch, lo, min(lo + width, size))
                  for i, size in enumerate(sizes)
                  for lo in range(0, size, width)]
        assert max(c.shape[1] for c in chunks) == min(width, 128)
        assert np.hstack(chunks).tobytes() == U.tobytes()

    def test_holds_no_dense_matrix(self, spec3):
        N = 972
        config = QuantizationConfig(N, (0.3, 0.7))
        _kept_block(spec3, config)  # FFT plans
        tracemalloc.start()
        try:
            block = _kept_block(spec3, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block.shape == (648, 648)
        assert peak < 16 * N * N

    def test_dense_guard(self, spec3):
        with pytest.raises(DimensionGuard):
            _kept_block(spec3, QuantizationConfig(5001))
        # before the call returns, not when the first chunk is drawn
        with pytest.raises(DimensionGuard):
            _kept_columns(spec3, QuantizationConfig(5001))


# ---------------------------------------------------------------------------
# Walsh tensor model
# ---------------------------------------------------------------------------

class TestWalsh:
    def test_word_length_one_is_omega(self):
        model = get_walsh(3, (0, 2), 1)
        assert np.abs(model.open_map.matrix - model.omega).max() == 0.0

    def test_omega_structure(self):
        model = get_walsh(3, (0, 2), 1)
        # removed column zeroed, kept columns are inverse-DFT columns
        assert np.abs(model.omega[:, 1]).max() == 0.0
        root3 = math.sqrt(3.0)
        for j in range(3):
            for k in (0, 2):
                want = cmath.exp(2j * cmath.pi * j * k / 3) / root3
                assert abs(model.omega[j, k] - want) <= 1e-15

    def test_omega_tilde_entries(self):
        model = get_walsh(3, (0, 2), 1)
        omega = cmath.exp(2j * cmath.pi / 3)
        want = np.array([[1, 1], [1, omega]]) / math.sqrt(3)
        assert np.abs(model.omega_tilde - want).max() <= 1e-15

    def test_omega_tilde_eigenvalues_quadratic_oracle(self):
        # independent 2x2 quadratic-formula solution of the kept block
        model = get_walsh(3, (0, 2), 1)
        a = 1 / math.sqrt(3)
        omega = cmath.exp(2j * cmath.pi / 3)
        tr = a * (1 + omega)
        det = a * a * (omega - 1)
        disc = cmath.sqrt(tr * tr - 4 * det)
        want = sorted([(tr + disc) / 2, (tr - disc) / 2], key=abs)
        got = sorted(np.linalg.eigvals(model.omega_tilde), key=abs)
        for w, g in zip(want, got):
            assert abs(w - g) <= 1e-12
        # geometric mean of the nontrivial moduli is |det|^(1/2) = 3^(-1/4)
        assert abs(abs(det) - 1 / math.sqrt(3)) <= 1e-15

    def test_power_identity_externally(self):
        for D, keep, k in ((3, (0, 2), 4), (4, (0, 1, 3), 4), (5, (1, 3), 3)):
            model = get_walsh(D, keep, k)
            tensor = model.omega
            for _ in range(k - 1):
                tensor = np.kron(tensor, model.omega)
            power = np.linalg.matrix_power(model.open_map.matrix, k)
            assert np.abs(power - tensor).max() <= 1e-12

    @pytest.mark.parametrize("D,keep,k", WALSH_BUILD_CASES)
    def test_apply_build_matches_scatter(self, D, keep, k):
        model = walsh_open(D, keep, k)
        want = walsh_scatter(model.omega, k)
        got = model.open_map.matrix
        assert np.array_equal(got, want)
        # same bits, signed zeros included
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("D,keep,k", WALSH_BUILD_CASES)
    def test_core_block_is_the_open_map_core(self, D, keep, k):
        model = walsh_open(D, keep, k)
        M = model.open_map.matrix
        core, _ = oqmap.spectral._core(M)
        assert np.array_equal(model.core, core)
        assert len(core) == len(model.keep) ** k
        want = M[np.ix_(core, core)]
        assert model.core_block.tobytes() == want.tobytes()

    def test_removed_digit_core_fails_the_oracle(self, monkeypatch):
        # D6 keep (0, 2, 4) has as many removed digits as kept ones
        use_removed_digit_core(monkeypatch)
        with pytest.raises(AssertionError):
            self.test_core_block_is_the_open_map_core(6, (0, 2, 4), 3)

    def test_open_map_is_built_on_demand(self):
        model = walsh_open(3, (0, 2), 3)
        assert "open_map" not in [f.name for f in dataclasses.fields(model)]
        first, second = model.open_map, model.open_map
        assert first.matrix is not second.matrix
        assert first.matrix.tobytes() == second.matrix.tobytes()
        assert (first.digest, first.keep) == (model.digest, model.keep)

    def test_corrupted_apply_fails_self_check(self, monkeypatch):
        # Omega_D on the leading digit without the digit shift builds
        # Omega_D (x) I, whose k-th power is not Omega_D^{(x) k}
        def no_shift(omega, X):
            D = omega.shape[0]
            N, m = X.shape
            return np.tensordot(omega, X.reshape(D, N // D, m),
                                axes=(1, 0)).reshape(N, m)

        monkeypatch.setattr("oqmap.quantize._walsh_apply", no_shift)
        with pytest.raises(SolverFailure):
            walsh_open(3, (0, 2), 3)

    def test_corrupted_last_block_fails_self_check(self, monkeypatch):
        # doubling only the image of the last basis vector spoils the last
        # column block alone; the check must still see it
        real_apply = oqmap.quantize._walsh_apply
        widths = []

        def corrupt_last_column(omega, X):
            out = real_apply(omega, X)
            if X[-1, -1] == 1.0 and np.count_nonzero(X[:, -1]) == 1:
                widths.append(X.shape[1])
                out[:, -1] *= 2.0
            return out

        monkeypatch.setattr(oqmap.quantize, "_walsh_apply", corrupt_last_column)
        with pytest.raises(SolverFailure):
            walsh_open(3, (0, 2), 7)
        # one block of D^(k - t) <= 64 columns, t = 4 >= k // 2
        assert widths == [3 ** 3]

    def test_reversed_head_digits_are_caught(self):
        source = textwrap.dedent(inspect.getsource(oqmap.quantize.walsh_open))
        original = "np.unravel_index(b, (D,) * t)"
        mutant = source.replace(original, original + "[::-1]")
        assert mutant != source
        namespace = dict(vars(oqmap.quantize))
        exec(mutant, namespace)
        with pytest.raises(SolverFailure):
            namespace["walsh_open"](3, (0, 2), 4)

    def test_build_holds_no_dense_matrix(self):
        # the check holds a few N x D^(k-t) <= N x 64 blocks at a time and
        # keeps none: about 0.05 of the 16 N^2 bytes of M at D3 k=7
        N = 3 ** 7
        tracemalloc.start()
        try:
            model = walsh_open(3, (0, 2), 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.08 * 16 * N * N
        tracemalloc.start()
        try:
            assert model.open_map.matrix.nbytes == 16 * N * N
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # M itself plus the blocks it is built from
        assert peak < 1.25 * 16 * N * N

    def test_more_branches_than_a_block_is_wide(self, monkeypatch):
        # D = 70 > 64 at k = 1: every digit leads, so each block is one
        # column and the tail Omega^{(x) 0} is the 1 x 1 identity
        real_apply = oqmap.quantize._walsh_apply
        widths = []

        def record(omega, X):
            widths.append(X.shape[1])
            return real_apply(omega, X)

        monkeypatch.setattr(oqmap.quantize, "_walsh_apply", record)
        model = walsh_open(70, (0, 2), 1)
        assert set(widths) == {1} and len(widths) == 70
        monkeypatch.undo()
        assert np.abs(model.open_map.matrix - model.omega).max() <= 1e-15

    def test_nontrivial_count_small(self):
        for k in (1, 2, 3):
            eigs = get_walsh_spectrum(3, (0, 2), k).eigenvalues
            assert int(np.sum(np.abs(eigs) > 1e-8)) == 2 ** k

    def test_spectrum_is_moduli_of_block_spectrum_at_k1(self):
        eigs = get_walsh_spectrum(3, (0, 2), 1).eigenvalues
        block = np.linalg.eigvals(get_walsh(3, (0, 2), 1).omega_tilde)
        pairs, missed_ref, missed_cand = match_spectra(
            sorted(block, key=abs), sorted(eigs, key=abs)[-2:], tol=1e-10)
        assert not missed_ref and not missed_cand

    def test_four_branch_block_is_rank_one(self):
        model = get_walsh(4, (0, 2), 1)
        # e^{2 pi i jk/4} = 1 on {0,2}x{0,2}, so the kept block is flat
        assert np.abs(model.omega_tilde - 0.25 * 2 * np.ones((2, 2))).max() \
            <= 1e-15
        moduli = np.sort(np.abs(np.linalg.eigvals(model.omega_tilde)))
        assert moduli[0] <= 1e-15
        assert abs(moduli[1] - 1.0) <= 1e-15

    def test_radius_constancy_in_word_length(self):
        radii = [float(np.abs(get_walsh_spectrum(3, (0, 2), k).eigenvalues).max())
                 for k in (1, 2, 3)]
        assert max(radii) - min(radii) <= 1e-8
        assert radii[0] <= 2 / math.sqrt(3) + 1e-8

    def test_dimension_guard(self):
        with pytest.raises(DimensionGuard):
            walsh_open(3, (0, 2), 10)  # 3^10 > guard

    def test_dimension_guard_before_allocation(self):
        # 3^8 = 6561 exceeds the dense guard; refused before any matrix
        tracemalloc.start()
        try:
            with pytest.raises(DimensionGuard):
                walsh_open(3, (0, 2), 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_dimension_guard_before_the_spec(self):
        # D = 20000 is refused before its D + 1 partition points are built
        tracemalloc.start()
        try:
            with pytest.raises(DimensionGuard, match="D=20000, k=1"):
                walsh_open(20000, (0, 2), 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_word_length_validation(self):
        with pytest.raises(ValueError):
            walsh_open(3, (0, 2), 0)

    def test_model_metadata(self):
        model = get_walsh(3, (0, 2), 3)
        assert model.dimension == 27
        assert model.open_map.kind == "open_walsh"
        assert model.open_map.block_sizes is None


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

class TestParity:
    def test_commutator_small_dimensions_first(self):
        # establish the phenomenon at hand-checkable sizes before relying
        # on it at production sizes
        spec = symmetric_spec(5, (1, 3))
        for N in (5, 10, 20):
            qmap = quantize_open(spec, QuantizationConfig(N, (0.5, 0.5))).open_map
            M = qmap.matrix
            comm = np.linalg.norm(M[:, ::-1] - M[::-1, :], 2)
            assert comm <= 1e-12

    def test_split_production_size(self):
        qmap = get_quantization("D5", 100, (0.5, 0.5)).open_map
        m_even, m_odd, comm = parity_split(qmap)
        assert comm <= 1e-12
        assert m_even.shape == (50, 50)
        assert m_odd.shape == (50, 50)
        full = np.linalg.eigvals(qmap.matrix)
        parts = np.concatenate([np.linalg.eigvals(m_even),
                                np.linalg.eigvals(m_odd)])
        pairs, missed_ref, missed_cand = match_spectra(full, parts, tol=1e-6)
        assert not missed_ref and not missed_cand

    def test_odd_dimension_middle_site(self, spec3):
        qmap = get_quantization("D3", 27, (0.5, 0.5)).open_map
        m_even, m_odd, comm = parity_split(qmap)
        assert comm <= 1e-12
        assert m_even.shape == (14, 14)
        assert m_odd.shape == (13, 13)

    def test_plain_boundary_breaks_parity(self, spec3):
        qmap = get_quantization("D3", 27, (0.0, 0.0)).open_map
        with pytest.raises(ParityNotExact) as err:
            parity_split(qmap)
        assert err.value.commutator_norm > 1e-8

    def test_asymmetric_keep_rejected(self):
        spec = symmetric_spec(5, (0, 1))  # reflects onto {3, 4}
        qmap = quantize_open(spec, QuantizationConfig(25, (0.5, 0.5))).open_map
        with pytest.raises(AsymmetricSpec):
            parity_split(qmap)

    def test_asymmetric_partition_rejected(self, asym_spec):
        qmap = quantize_open(asym_spec, QuantizationConfig(16, (0.5, 0.5))).open_map
        with pytest.raises(AsymmetricSpec):
            parity_split(qmap)

    def test_lost_eigenvalue_fails_the_split(self, monkeypatch):
        # the reassembly check runs through spectral.match_spectra
        import oqmap.spectral

        def lose_one(reference, candidate, tol):
            return [], [reference[0]], []

        monkeypatch.setattr(oqmap.spectral, "match_spectra", lose_one)
        qmap = get_quantization("D3", 27, (0.5, 0.5)).open_map
        with pytest.raises(SolverFailure, match="lost 1 eigenvalues"):
            parity_split(qmap)

    def test_walsh_map_has_no_rectangles_to_reflect(self):
        with pytest.raises(AsymmetricSpec):
            parity_split(get_walsh(3, (0, 2), 2).open_map)


# ---------------------------------------------------------------------------
# diagonal phase perturbations
# ---------------------------------------------------------------------------

class TestDiagonalPhases:
    def test_zero_phases_identity(self):
        model = get_walsh(3, (0, 2), 2)
        out = apply_diagonal_phases(model.open_map, phases=np.zeros(9))
        assert np.abs(out.matrix - model.open_map.matrix).max() == 0.0
        assert out.kind == model.open_map.kind

    def test_plain_array_accepted(self):
        M = get_walsh(3, (0, 2), 2).open_map.matrix
        out = apply_diagonal_phases(M, seed=3)
        assert isinstance(out, np.ndarray)
        assert out.shape == M.shape

    def test_singular_values_preserved(self):
        M = get_quantization("D3", 27).open_map.matrix
        out = apply_diagonal_phases(M, seed=11)
        sv_before = np.linalg.svd(M, compute_uv=False)
        sv_after = np.linalg.svd(out, compute_uv=False)
        assert np.abs(sv_before - sv_after).max() <= 1e-12

    def test_constant_phase_rotates_spectrum(self):
        # e^{i theta} I commutes with everything: eigenvalues rotate rigidly
        theta = 0.7
        M = get_walsh(3, (0, 2), 2).open_map.matrix
        out = apply_diagonal_phases(M, phases=np.full(9, theta))
        want = np.exp(1j * theta) * np.linalg.eigvals(M)
        got = np.linalg.eigvals(out)
        pairs, missed_ref, missed_cand = match_spectra(want, got, tol=1e-10)
        assert not missed_ref and not missed_cand

    def test_seed_reproducible(self):
        M = get_walsh(3, (0, 2), 2).open_map.matrix
        a = apply_diagonal_phases(M, seed=42)
        b = apply_diagonal_phases(M, seed=42)
        assert np.array_equal(a, b)
        c = apply_diagonal_phases(M, seed=43)
        assert not np.allclose(a, c)

    def test_length_mismatch(self):
        M = get_walsh(3, (0, 2), 2).open_map.matrix
        with pytest.raises(LengthMismatch):
            apply_diagonal_phases(M, phases=np.zeros(4))

    def test_needs_phases_or_seed(self):
        M = get_walsh(3, (0, 2), 2).open_map.matrix
        with pytest.raises(LengthMismatch):
            apply_diagonal_phases(M)

    def test_lifts_degeneracy_of_flat_block(self):
        # the four-branch keep {0,2} model has a single nontrivial
        # eigenvalue at every word length; generic diagonal phases break
        # that collapse as soon as the word carries more than one digit
        eigs = eigen_decompose(get_walsh(4, (0, 2), 3).open_map).eigenvalues
        assert int(np.sum(np.abs(eigs) > 1e-2)) == 1
        perturbed = apply_diagonal_phases(get_walsh(4, (0, 2), 3).open_map,
                                          seed=7)
        eigs_p = eigen_decompose(perturbed).eigenvalues
        assert int(np.sum(np.abs(eigs_p) > 1e-2)) > 1
