"""Quantization layer: generalized DFT, standard open quantization,
the Walsh tensor model, parity splitting, and diagonal perturbations.

Matrix-level claims are checked against literal loop evaluations of the
defining formulas and against closed-form eigenvalues where the blocks
are small enough to solve by hand (2x2 quadratic formula).  The FFT
build of the standard map is checked against the dense Fourier-matrix
product it replaced.
"""

import cmath
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
    parity_split,
    quantize_open,
    symmetric_spec,
    walsh_open,
)
from oqmap.errors import (
    AsymmetricSpec,
    DimensionGuard,
    DivisibilityError,
    EndpointMismatch,
    LengthMismatch,
    ParityNotExact,
    SolverFailure,
)

import oqmap.quantize
from oqmap.quantize import _block_sizes, _gdft_apply

from conftest import get_quantization, get_spec, get_walsh, get_walsh_spectrum


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


def fft_build_deviation(tag: str, N: int, bloch) -> float:
    """Max entry deviation of quantize_open's U from the matmul build."""
    quant = quantize_open(get_spec(tag), QuantizationConfig(N, bloch))
    U = quant.unitary.matrix
    return float(np.abs(U - matmul_unitary(quant.unitary.block_sizes, bloch)).max())


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

    @pytest.mark.parametrize("D,keep,k", [
        (3, (0, 2), 4), (3, (0, 2), 7), (4, (0, 2), 3), (4, (0, 1, 3), 5),
        (5, (1, 3), 4), (6, (1, 4), 4), (6, (0, 2, 4), 4),
        *[(3, (0, 2), k) for k in range(1, 7)],
    ])
    def test_apply_build_matches_scatter(self, D, keep, k):
        model = walsh_open(D, keep, k)
        want = walsh_scatter(model.omega, k)
        got = model.open_map.matrix
        assert np.array_equal(got, want)
        # same bits, signed zeros included
        assert got.tobytes() == want.tobytes()

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
