"""Spectral layer: decomposition and ordering, disk counts, Weyl-exponent
fits, trapped-set quasiprojectors, residual decay, and the Schur
effective-Hamiltonian reduction with its determinant identity.
"""

import math

import numpy as np
import pytest

from oqmap import (
    QuantizationConfig,
    count_profile,
    effective_hamiltonian,
    eigen_decompose,
    lifetimes,
    match_spectra,
    residual_decay,
    spectral_radius,
    symmetric_spec,
    trapped_quasiprojector,
    weyl_fit,
)
from oqmap.errors import (
    CoverTooFine,
    DimensionGuard,
    DivisibilityError,
    InsufficientSamples,
    ProbeInsideBulkSpectrum,
    SingularResolvent,
)
import oqmap.spectral
from oqmap.spectral import (
    _blocks,
    _effective_pieces,
    _nonzero_columns,
)

from conftest import get_open_spectrum, get_quantization


def probe_ring(radius: float, count: int = 8):
    return [radius * np.exp(2j * np.pi * t / count) for t in range(count)]


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

class TestEigenDecompose:
    def test_diagonal_exact(self):
        spectrum = eigen_decompose(np.diag([1.0, 0.0, 1.0]))
        assert np.array_equal(spectrum.eigenvalues, [1.0, 1.0, 0.0])

    def test_ordering_descending_modulus_then_real_then_imag(self):
        spectrum = eigen_decompose(np.diag([1.0, -1.0, 1.0j, 0.5]))
        want = np.array([-1.0, 1.0j, 1.0, 0.5], dtype=complex)
        assert np.abs(spectrum.eigenvalues - want).max() <= 1e-15

    def test_vectors_on_request(self):
        M = np.diag([0.25, 0.75]).astype(complex)
        spectrum = eigen_decompose(M, want_vectors=True)
        assert spectrum.vectors is not None
        for col, lam in enumerate(spectrum.eigenvalues):
            v = spectrum.vectors[:, col]
            assert np.abs(M @ v - lam * v).max() <= 1e-14

    def test_accepts_quantized_map(self):
        spectrum = get_open_spectrum("D3", 27)
        assert spectrum.dimension == 27
        assert spectrum.backward_error > 0.0
        assert spectrum.backward_error < 1e-10

    def test_dimension_guard(self):
        with pytest.raises(DimensionGuard):
            eigen_decompose(np.zeros((5001, 5001)))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigen_decompose(np.zeros((3, 4)))

    def test_spectral_radius_helper(self):
        assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9)

    def test_lifetimes(self):
        taus = lifetimes(np.array([math.exp(-1.0), 1.0, 0.0]))
        assert taus[0] == pytest.approx(2.0, abs=1e-14)
        assert taus[1] == pytest.approx(0.0, abs=1e-14)
        assert taus[2] == math.inf


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

class TestCountProfile:
    def test_nothing_beyond_unit_circle(self):
        report = count_profile(get_open_spectrum("D3", 81), [1.01], nu=0.63)
        assert report.counts[0] == 0

    def test_rank_bound(self):
        # UPi has rank 54 at N=81, so at most 54 nonzero eigenvalues
        report = count_profile(get_open_spectrum("D3", 81), [1e-8], nu=0.63)
        assert report.counts[0] <= 54

    def test_counts_monotone_in_radius(self):
        grid = np.linspace(0.05, 1.0, 20)
        report = count_profile(get_open_spectrum("D3", 81), grid, nu=0.63)
        assert all(a >= b for a, b in zip(report.counts, report.counts[1:]))

    def test_rescaled_definition(self):
        report = count_profile(get_open_spectrum("D3", 81), [0.5], nu=0.63)
        assert report.rescaled[0] == pytest.approx(
            report.counts[0] / 81 ** 0.63, rel=1e-12)

    def test_lifetime_two_at_inverse_e(self):
        report = count_profile(np.array([math.exp(-1.0)]), [0.3], nu=0.5)
        assert report.lifetimes[0] == pytest.approx(2.0, abs=1e-14)

    def test_count_semantics_closed_at_r(self):
        report = count_profile(np.array([0.5, 0.25]), [0.25, 0.5, 0.6], nu=1.0)
        assert list(report.counts) == [2, 1, 0]

    def test_grid_validation(self):
        eigs = np.array([0.5])
        with pytest.raises(ValueError):
            count_profile(eigs, [], nu=0.5)
        with pytest.raises(ValueError):
            count_profile(eigs, [0.5, 0.4], nu=0.5)
        with pytest.raises(ValueError):
            count_profile(eigs, [0.0, 0.5], nu=0.5)
        with pytest.raises(ValueError):
            count_profile(eigs, [0.5, 1.2], nu=0.5)


class TestWeylFit:
    def test_exact_power_law_recovered(self):
        dims = [27, 81, 243, 729, 2187]
        samples = [(n, 7.0 * n ** 0.63) for n in dims]
        fit = weyl_fit(samples, radius=0.5)
        assert fit.nu_hat == pytest.approx(0.63, abs=1e-12)
        assert fit.log_prefactor == pytest.approx(math.log(7.0), abs=1e-12)
        assert fit.residual_stderr <= 1e-12
        assert fit.radius == 0.5

    def test_two_samples_insufficient(self):
        with pytest.raises(InsufficientSamples):
            weyl_fit([(27, 5), (81, 12)])

    def test_single_dimension_insufficient(self):
        with pytest.raises(InsufficientSamples):
            weyl_fit([(27, 5), (27, 6), (27, 7)])

    def test_subunit_counts_dropped(self):
        samples = [(27, 0), (81, 12), (243, 25), (729, 60)]
        fit = weyl_fit(samples)
        assert fit.samples_dropped == ((27, 0.0),)
        assert len(fit.samples_used) == 3

    def test_dropping_below_minimum_raises(self):
        with pytest.raises(InsufficientSamples):
            weyl_fit([(27, 0), (81, 0), (243, 25), (729, 60)])


# ---------------------------------------------------------------------------
# quasiprojectors
# ---------------------------------------------------------------------------

class TestQuasiprojector:
    def test_level_zero_is_identity(self, spec3):
        quasi = trapped_quasiprojector(spec3, QuantizationConfig(27), 0)
        assert np.array_equal(quasi.diagonal, np.ones(27))
        assert quasi.rank == 27

    def test_hand_checkable_indices(self, spec3):
        quasi = trapped_quasiprojector(spec3, QuantizationConfig(9), 1)
        assert np.flatnonzero(quasi.diagonal).tolist() == [0, 1, 2, 6, 7, 8]
        assert quasi.rank == 6

    def test_rank_follows_cover_measure(self, spec3, spec5):
        quasi = trapped_quasiprojector(spec3, QuantizationConfig(81), 2)
        assert quasi.rank == 36  # 81 * (2/3)^2
        quasi5 = trapped_quasiprojector(spec5, QuantizationConfig(125), 2)
        assert quasi5.rank == 20  # 125 * (2/5)^2
        quasi5b = trapped_quasiprojector(spec5, QuantizationConfig(625), 4)
        assert quasi5b.rank == 16  # 625 * (2/5)^4

    def test_cover_finer_than_lattice(self, spec3):
        with pytest.raises(CoverTooFine):
            trapped_quasiprojector(spec3, QuantizationConfig(27), 4)

    def test_divisibility(self, spec3):
        with pytest.raises(DivisibilityError):
            trapped_quasiprojector(spec3, QuantizationConfig(10), 1)

    def test_negative_level(self, spec3):
        with pytest.raises(ValueError):
            trapped_quasiprojector(spec3, QuantizationConfig(27), -1)


# ---------------------------------------------------------------------------
# residual decay
# ---------------------------------------------------------------------------

class TestResidualDecay:
    def test_full_projector_kills_residual(self):
        M = get_quantization("D3", 27).open_map.matrix
        assert residual_decay(M, np.ones(27), 4) == (0.0,) * 4

    def test_empty_projector_gives_power_norms(self):
        M = get_quantization("D3", 27).open_map.matrix
        norms = residual_decay(M, np.zeros(27), 4)
        assert all(n <= 1.0 + 1e-10 for n in norms)
        assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))

    def test_frozen_decay_level2(self, spec5):
        M = get_quantization("D5", 125).open_map
        quasi = trapped_quasiprojector(spec5, QuantizationConfig(125), 2)
        norms = residual_decay(M, quasi.diagonal, 6)
        frozen = (1.0, 0.997333, 0.897586, 0.741735, 0.594709, 0.391590)
        for got, want in zip(norms, frozen):
            assert got == pytest.approx(want, abs=1e-4)

    def test_frozen_decay_level4(self, spec5):
        M = get_quantization("D5", 625).open_map
        quasi = trapped_quasiprojector(spec5, QuantizationConfig(625), 4)
        norms = residual_decay(M, quasi.diagonal, 6)
        frozen = (1.0, 1.0, 0.999927, 0.919765, 0.761233, 0.622070)
        for got, want in zip(norms, frozen):
            assert got == pytest.approx(want, abs=1e-4)
        assert norms[3] <= 0.95  # the cover starts absorbing by m = 4

    def test_m_max_validation(self):
        M = np.eye(4)
        with pytest.raises(ValueError):
            residual_decay(M, np.ones(4), 0)
        with pytest.raises(ValueError):
            residual_decay(M, np.ones(4), 13)


# ---------------------------------------------------------------------------
# effective Hamiltonian
# ---------------------------------------------------------------------------

class TestEffectiveHamiltonian:
    def test_full_projector_trivial_reduction(self):
        M = np.diag([0.5, 0.25]).astype(complex)
        report = effective_hamiltonian(M, np.ones(2), probe_ring(2.0), 0.1)
        assert report.bulk_spectral_radius == 0.0
        assert report.max_identity_rel_error <= 1e-12
        assert report.unmatched == 0
        # with an empty bulk the bulk determinant is the empty product
        assert all(abs(d - 1.0) <= 1e-12 for d in report.determinant_bulk)

    def test_identity_random_mixed_blocks(self, rng):
        # spec example: modest random matrix, rank-3 orthoprojector,
        # probes on a ring well outside the spectrum
        N = 8
        M = (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))) \
            / math.sqrt(N)
        Q, _ = np.linalg.qr(rng.normal(size=(N, 3))
                            + 1j * rng.normal(size=(N, 3)))
        P = Q @ Q.conj().T
        ring = 1.5 * float(np.linalg.norm(M, 2))
        report = effective_hamiltonian(M, P, probe_ring(ring, 20), ring)
        assert report.projector_rank == 3
        assert report.max_identity_rel_error <= 1e-10
        assert report.outer_eigenvalues == ()

    def test_outer_spectrum_recovered_from_quasiprojector(self, spec5):
        M = get_quantization("D5", 125).open_map
        quasi = trapped_quasiprojector(spec5, QuantizationConfig(125), 2)
        report = effective_hamiltonian(M, quasi.diagonal,
                                       probe_ring(1.5), radius=0.5)
        assert report.projector_rank == 20
        assert report.bulk_spectral_radius < 0.06
        assert len(report.outer_eigenvalues) == 6
        assert report.unmatched == 0
        assert not report.clustered
        assert max(report.match_distances) <= 1e-6
        assert report.max_identity_rel_error <= 1e-8
        assert len(report.residual_norms) == 6

    def test_matrix_projector_route_agrees(self, spec5):
        M = get_quantization("D5", 125).open_map
        quasi = trapped_quasiprojector(spec5, QuantizationConfig(125), 2)
        dense = np.diag(quasi.diagonal).astype(complex)
        a = effective_hamiltonian(M, quasi.diagonal, probe_ring(1.5), 0.5)
        b = effective_hamiltonian(M, dense, probe_ring(1.5), 0.5)
        assert b.projector_rank == a.projector_rank
        assert b.max_identity_rel_error <= 1e-8
        assert len(b.outer_eigenvalues) == len(a.outer_eigenvalues)
        assert b.unmatched == 0

    def test_probe_inside_bulk_rejected(self, spec5):
        M = get_quantization("D5", 125).open_map
        quasi = trapped_quasiprojector(spec5, QuantizationConfig(125), 2)
        with pytest.raises(ProbeInsideBulkSpectrum):
            effective_hamiltonian(M, quasi.diagonal, [0.01 + 0j], 0.5)
        with pytest.raises(ProbeInsideBulkSpectrum):
            effective_hamiltonian(M, quasi.diagonal, probe_ring(1.5), 0.01)

    def test_no_probes_rejected(self, spec5):
        # an identity checked at no probe would pass vacuously
        M = get_quantization("D5", 125).open_map
        quasi = trapped_quasiprojector(spec5, QuantizationConfig(125), 2)
        with pytest.raises(ValueError, match="at least one probe"):
            effective_hamiltonian(M, quasi.diagonal, [], 0.5)

    def test_singular_resolvent_guard(self):
        one = np.ones((1, 1), dtype=complex)
        with pytest.raises(SingularResolvent):
            _effective_pieces(one * 0.5, one, one, one, 1.0)

    def test_projector_validation(self):
        M = np.eye(4, dtype=complex)
        with pytest.raises(ValueError):
            effective_hamiltonian(M, np.array([0.5, 1, 0, 0]),
                                  probe_ring(2.0), 1.5)
        nonherm = np.triu(np.ones((4, 4)))
        with pytest.raises(ValueError):
            effective_hamiltonian(M, nonherm, probe_ring(2.0), 1.5)
        nonidem = 0.5 * np.eye(4)
        with pytest.raises(ValueError):
            effective_hamiltonian(M, nonidem, probe_ring(2.0), 1.5)


# ---------------------------------------------------------------------------
# kept-column oracles: the full-inverse and full-power forms they replace
# ---------------------------------------------------------------------------

def full_inverse_pieces(A, B, C, D, lam, derivative=True):
    """E(lam) and dE(lam) through the full bulk inverse (I - D/lam)^{-1}."""
    k, nb = A.shape[0], D.shape[0]
    if nb == 0:
        return np.eye(k, dtype=complex) - A / lam, A / lam ** 2
    eye = np.eye(nb, dtype=complex)
    R = np.linalg.solve(eye - D / lam, eye)
    BR = B @ R
    BRC = BR @ C
    E = np.eye(k, dtype=complex) - A / lam - BRC / lam ** 2
    dE = A / lam ** 2 + 2.0 * BRC / lam ** 3 + (BR @ D @ R @ C) / lam ** 4
    return E, dE


def projector_split(projector):
    """Index arrays (kept, rest) of a 0/1 diagonal projector, or orthonormal
    bases (V, W) of the range and kernel of a Hermitian idempotent matrix;
    the other pair is None.  Validation is left to the library side."""
    P = np.asarray(projector)
    if P.ndim == 1:
        return np.flatnonzero(P == 1.0), np.flatnonzero(P == 0.0), None, None
    values, vectors = np.linalg.eigh(P)
    return None, None, vectors[:, values > 0.5], vectors[:, values <= 0.5]


def full_power_residual_decay(matrix, projector, m_max=6):
    """||(I - Pi) M^m||_2 from full N x N powers and full SVDs, with
    (I - Pi) applied unrotated, as W^* for a matrix projector."""
    M = np.asarray(getattr(matrix, "matrix", matrix))
    kept, rest, V, W = projector_split(projector)
    norms, power = [], M.copy()
    for _ in range(m_max):
        complement = power[rest, :] if V is None else W.conj().T @ power
        norms.append(float(np.linalg.norm(complement, 2)) if complement.size else 0.0)
        power = power @ M
    return tuple(norms)


def random_orthoprojector(N, rank, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(N, rank)) + 1j * rng.normal(size=(N, rank)))
    return Q @ Q.conj().T


def kept_column_cases():
    """(matrix, projector, radius) covering each shape of the bulk block."""
    spec5 = symmetric_spec(5, (1, 3))
    quantization = get_quantization("D5", 125, (0.5, 0.5))
    M = quantization.open_map.matrix
    quasi = trapped_quasiprojector(spec5, QuantizationConfig(125, (0.5, 0.5)), 2)
    rng = np.random.default_rng(17)
    # twelve separated outer eigenvalues near 0.8 over a dense random bulk
    dense = (rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))) / 40.0
    dense[range(12), range(12)] += 0.8 * np.exp(2j * np.pi * np.arange(12) / 12)
    return {
        # diagonal cover: D keeps some zero columns, J is a proper subset
        "quasiprojector": (M, quasi.diagonal, 0.5),
        # the map's own kept set: D = 0, J is empty, R = I
        "empty J": (M, quantization.projector, 0.5),
        # no zero column anywhere
        "dense M": (dense, (np.arange(40) < 12).astype(float), 0.5),
        # matrix projector: rotated, so D is dense
        "matrix projector": (M, random_orthoprojector(125, 30, 3), 0.8),
    }


CASES = kept_column_cases()


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))


class TestKeptColumns:
    def test_cases_cover_each_bulk_shape(self):
        sizes = {}
        for case, (M, projector, _) in CASES.items():
            D = _blocks(M, projector)[3]
            sizes[case] = (_nonzero_columns(D).size, D.shape[0])
        J, nb = sizes["quasiprojector"]
        assert 0 < J < nb
        assert sizes["empty J"][0] == 0 < sizes["empty J"][1]
        assert sizes["dense M"][0] == sizes["dense M"][1]
        assert sizes["matrix projector"][0] == sizes["matrix projector"][1]

    @pytest.mark.parametrize("case", CASES)
    def test_pieces_match_full_inverse(self, case):
        M, projector, radius = CASES[case]
        A, B, C, D = _blocks(M, projector)
        for lam in (1.5, 0.9 * np.exp(0.7j), radius + 0.05j):
            E, dE = _effective_pieces(A, B, C, D, lam)
            E0, dE0 = full_inverse_pieces(A, B, C, D, lam)
            assert np.linalg.norm(E - E0) <= 1e-12 * np.linalg.norm(E0)
            assert np.linalg.norm(dE - dE0) <= 1e-12 * np.linalg.norm(dE0)
            E1, none = _effective_pieces(A, B, C, D, lam, derivative=False)
            assert none is None
            assert np.array_equal(E1, E)

    @pytest.mark.parametrize("case", CASES)
    def test_residual_decay_matches_full_powers(self, case):
        M, projector, _ = CASES[case]
        assert_close(residual_decay(M, projector, 8),
                     full_power_residual_decay(M, projector, 8))

    @pytest.mark.parametrize("case", CASES)
    def test_report_matches_full_forms(self, case, monkeypatch):
        M, projector, radius = CASES[case]
        probes = probe_ring(1.5, 6)
        got = effective_hamiltonian(M, projector, probes, radius)
        monkeypatch.setattr(oqmap.spectral, "_effective_pieces",
                            full_inverse_pieces)
        monkeypatch.setattr(oqmap.spectral, "residual_decay",
                            full_power_residual_decay)
        want = effective_hamiltonian(M, projector, probes, radius)
        assert got.outer_eigenvalues == want.outer_eigenvalues
        assert got.outer_eigenvalues  # every case has roots to refine
        assert_close(got.refined_roots, want.refined_roots)
        assert_close(got.residual_norms, want.residual_norms)
        assert_close(got.determinant_effective, want.determinant_effective)
        assert got.unmatched == want.unmatched == 0
        # the bulk side against the full N x N bulk block, by Sylvester
        A, B, C, D = _blocks(M, projector)
        r_bulk = float(np.abs(np.linalg.eigvals(D)).max()) if D.size else 0.0
        assert abs(got.bulk_spectral_radius - r_bulk) <= 1e-12 * max(r_bulk, 1e-3)
        for lam, det_bulk in zip(probes, got.determinant_bulk):
            want_det = np.linalg.det(np.eye(D.shape[0]) - D / lam)
            assert abs(det_bulk - want_det) <= 1e-12 * abs(want_det)
        assert got.max_identity_rel_error <= 1e-12

    def test_m_max_checked_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("blocks formed before m_max was checked")

        monkeypatch.setattr(oqmap.spectral, "_blocks", unreachable)
        with pytest.raises(ValueError, match="m_max"):
            effective_hamiltonian(np.eye(4), np.ones(4), probe_ring(2.0), 1.5,
                                  m_max=13)


class TestMatchSpectra:
    def test_exact_pairing(self):
        ref = [1.0 + 0j, 0.5j]
        pairs, missed_ref, missed_cand = match_spectra(ref, [0.5j, 1.0 + 0j],
                                                       tol=1e-12)
        assert len(pairs) == 2
        assert not missed_ref and not missed_cand

    def test_unmatched_counted_both_ways(self):
        pairs, missed_ref, missed_cand = match_spectra(
            [1.0 + 0j], [1.0 + 0j, 3.0 + 0j], tol=1e-6)
        assert len(pairs) == 1
        assert missed_cand == [3.0 + 0j]
        pairs, missed_ref, missed_cand = match_spectra(
            [1.0 + 0j, 3.0 + 0j], [1.0 + 0j], tol=1e-6)
        assert missed_ref == [3.0 + 0j]

    def test_distance_beyond_tol_not_paired(self):
        pairs, missed_ref, missed_cand = match_spectra(
            [1.0 + 0j], [1.1 + 0j], tol=1e-3)
        assert not pairs
        assert missed_ref == [1.0 + 0j]
        assert missed_cand == [1.1 + 0j]
