"""Spectral layer: decomposition and ordering, disk counts, Weyl-exponent
fits, trapped-set quasiprojectors, residual decay, and the Schur
effective-Hamiltonian reduction with its determinant identity.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oqmap import (
    QuantizationConfig,
    apply_diagonal_phases,
    count_profile,
    effective_hamiltonian,
    eigen_decompose,
    match_spectra,
    residual_decay,
    symmetric_spec,
    trapped_cover,
    trapped_quasiprojector,
    validate_spec,
    weyl_fit,
)
from oqmap.errors import (
    CoverTooFine,
    DimensionGuard,
    DivisibilityError,
    InsufficientSamples,
    ProbeInsideBulkSpectrum,
    SingularResolvent,
    SolverFailure,
)
import oqmap.spectral
from oqmap.spectral import (
    _as_columns,
    _core,
    _effective_pieces,
    _split,
)

from conftest import (
    fraction_intervals,
    get_open_spectrum,
    get_quantization,
    get_walsh,
)


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

    def test_non_finite_entry_outside_the_core_refused(self):
        # column 1 is zero but for a NaN on the row of the zero column 0,
        # so the sweeps drop it; LAPACK would refuse the matrix, and so
        # must the deflated eigensolve
        M = np.array([[0.0, np.nan, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SolverFailure):
            eigen_decompose(M)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigen_decompose(np.zeros((3, 4)))


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

    @pytest.mark.parametrize("nu", [-400.0, -1e-12, 1.0 + 1e-12, 150.0,
                                    1e308, math.nan])
    def test_nu_outside_weyl_range(self, nu):
        with pytest.raises(ValueError, match=r"nu must lie in \[0, 1\]"):
            count_profile(np.array([0.5]), [0.25], nu=nu)


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

    @pytest.mark.parametrize("partition,keep,N,level", [
        ("0,1/3,2/3,1", (0, 2), 30, 2),  # strip edges between lattice points
        ("0,1/3,2/3,1", (0, 2), 243, 5),
        ("0,1/5,2/5,3/5,4/5,1", (1, 3), 500, 3),
        ("0,1/5,2/5,3/5,4/5,1", (1, 3), 625, 4),
        ("0,1/2,3/4,1", (0, 2), 100, 3),  # reducible endpoints over 4^m
        ("0,1/47,30/47,1", (0, 2), 4700, 2),
    ])
    def test_diagonal_matches_fraction_ceilings(self, partition, keep, N,
                                                level):
        # oracle: j from ceil(x N) on the Fraction endpoints
        spec = validate_spec(partition.split(","), keep)
        strips = trapped_cover(spec, level)
        want = np.zeros(N)
        for lo, hi in fraction_intervals(strips):
            want[math.ceil(lo * N):math.ceil(hi * N)] = 1.0
        got = trapped_quasiprojector(spec, QuantizationConfig(N), level)
        assert got.diagonal.tobytes() == want.tobytes()

    def test_cover_finer_than_lattice(self, spec3):
        with pytest.raises(CoverTooFine):
            trapped_quasiprojector(spec3, QuantizationConfig(27), 4)

    def test_divisibility(self, spec3):
        with pytest.raises(DivisibilityError):
            trapped_quasiprojector(spec3, QuantizationConfig(10), 1)

    def test_negative_level(self, spec3):
        with pytest.raises(ValueError):
            trapped_quasiprojector(spec3, QuantizationConfig(27), -1)

    @pytest.mark.parametrize("level", [0, 1])
    def test_dimension_guard_before_allocating(self, spec3, level):
        with pytest.raises(DimensionGuard):
            trapped_quasiprojector(spec3, QuantizationConfig(3 ** 30), level)


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

    @pytest.mark.parametrize("projector", [np.ones(5), np.eye(5)],
                             ids=["diagonal", "matrix"])
    def test_projector_shape_must_match(self, projector):
        with pytest.raises(ValueError, match="4"):
            residual_decay(np.eye(4), projector)


# ---------------------------------------------------------------------------
# effective Hamiltonian
# ---------------------------------------------------------------------------

def surfacing_bulk_seed(corner):
    """(M, radius) for M = [[corner, 0], [c, D]] with rank-one P = e_0,
    where an eigenvalue of the bulk D surfaces as an outer Newton seed.

    D hides a Jordan block (eigenvalue 1/2, off-diagonal 1e3) behind a
    random similarity, so QR spreads its eigenvalues by about 1e-3, and
    differently for M than for D alone.  The first trial whose largest
    |eigenvalue of M| exceeds the bulk radius of D by more than the 1e-6
    margin is returned, with a radius between the two; about half the
    trials qualify.  B = 0, so E(lam) = 1 - corner/lam.
    """
    rng = np.random.default_rng(0)
    for _ in range(40):
        S = rng.standard_normal((3, 3))
        jordan = 0.5 * np.eye(3) + 1e3 * np.eye(3, k=1)
        M = np.zeros((4, 4))
        M[0, 0] = corner
        M[1:, 0] = rng.standard_normal(3)
        M[1:, 1:] = S @ jordan @ np.linalg.inv(S)
        bulk = np.abs(np.linalg.eigvals(M[1:, 1:])).max()
        top = np.abs(eigen_decompose(M).eigenvalues).max()
        if top > bulk + 2e-6:
            return M, (bulk + 1e-6 + top) / 2
    raise AssertionError("no trial surfaced a bulk eigenvalue")


class TestEffectiveHamiltonian:
    def test_full_projector_trivial_reduction(self):
        M = np.diag([0.5, 0.25]).astype(complex)
        report = effective_hamiltonian(M, np.ones(2), probe_ring(2.0), 0.1)
        assert report.bulk_spectral_radius == 0.0
        assert report.max_identity_rel_error <= 1e-12
        assert report.unmatched == 0
        # a full projector leaves the cut bulk empty
        assert cut_blocks(M, np.ones(2))[3].shape == (0, 0)

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

    def test_probe_square_must_be_finite(self, spec5):
        # E(lam) divides by lam^2: 1e200 squared overflows, 1e100 does not
        M = get_quantization("D5", 125).open_map
        quasi = trapped_quasiprojector(spec5, QuantizationConfig(125), 2)
        for radius in (1e200, 1.4e154):
            with pytest.raises(ValueError, match="sqrt\\(float max\\)"):
                effective_hamiltonian(M, quasi.diagonal, probe_ring(radius), 0.5)
        with pytest.raises(ValueError, match="finite square"):
            effective_hamiltonian(M, quasi.diagonal, [complex(1e308, 1e308)], 0.5)
        report = effective_hamiltonian(M, quasi.diagonal, probe_ring(1e100), 0.5)
        assert report.unmatched == 0
        assert report.max_identity_rel_error <= 1e-8

    def test_seed_past_the_newton_bound_refused(self):
        # E' divides by lam^4: the seeds 1e80 and 1e79 have no finite
        # fourth power, while the probe 2e80 has a finite square
        with pytest.raises(SolverFailure, match="float max \\*\\* 0.25"):
            effective_hamiltonian(np.diag([1e80, 1e79, 0.5]),
                                  np.array([1.0, 1.0, 0.0]), [2e80], 1.0)
        # just inside the bound the seeds refine to themselves
        report = effective_hamiltonian(np.diag([1e76, 1e75, 0.5]),
                                       np.array([1.0, 1.0, 0.0]), [2e76], 1.0,
                                       m_max=1)
        assert report.refined_roots == (1e76, 1e75)
        assert report.unmatched == 0

    def test_probe_on_an_eigenvalue(self):
        # 0.9 is an eigenvalue of M and a zero of det E: both sides of the
        # identity are singular there, and Newton stops on the singular E
        # at its seed
        M = np.diag([0.9, 0.1])
        report = effective_hamiltonian(M, np.array([1.0, 0.0]), (0.9,),
                                       radius=0.5)
        assert report.identity_rel_errors == (0.0,)
        assert report.outer_eigenvalues == (0.9,)
        assert report.refined_roots == (0.9,)
        assert report.match_distances == (0.0,)
        assert report.unmatched == 0

    def test_one_sided_singularity_is_an_infinite_error(self, monkeypatch):
        # mutation: the kept-block determinant det(I - M[nz, nz]/lam)
        # reads as singular while the reduced side does not, so the
        # identity fails without bound
        logdet = oqmap.spectral._logdet

        def full_side_singular(matrix):
            if matrix.shape == (3, 3):
                return complex(-np.inf, 0.0)
            return logdet(matrix)

        monkeypatch.setattr(oqmap.spectral, "_logdet", full_side_singular)
        M = np.diag([0.9, 0.2, 0.1])
        report = effective_hamiltonian(M, np.array([1.0, 0.0, 0.0]), (2.0,),
                                       radius=0.5)
        assert report.identity_rel_errors == (math.inf,)
        assert report.max_identity_rel_error == math.inf
        assert report.unmatched == 0

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

    @pytest.mark.parametrize("projector", [
        np.diag([1.0, np.nan, 0.0, 1.0]),
        np.full((4, 4), np.nan),
        np.full((4, 4), np.inf),
    ], ids=["nan-diagonal", "all-nan", "inf"])
    def test_non_finite_projector_refused(self, projector):
        # NaN passes every "norm > tol" test, and eigh of an all-NaN or inf
        # matrix fails to converge: both are refused before any arithmetic
        M = 0.5 * np.eye(4, dtype=complex)
        with pytest.raises(ValueError, match="non-finite entry"):
            residual_decay(M, projector)
        with pytest.raises(ValueError, match="non-finite entry"):
            effective_hamiltonian(M, projector, probe_ring(2.0), 1.5)

    def test_overflowing_projector_square_refused(self):
        # finite and Hermitian, but P @ P overflows to NaN entries, so the
        # idempotence norm is NaN and must not read as "within 1e-8"
        P = 1e200 * np.array([[-1.0, 1.0], [1.0, 1.0]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow
            with pytest.raises(ValueError, match="not idempotent"):
                residual_decay(np.eye(2, dtype=complex), P)

    def test_noisy_matrix_projector_accepted(self, rng):
        # 1e-10 Hermitian noise on a rank-2 projector stays inside the 1e-8
        # norm checks, and eigh still splits it into ranks 2 and 4
        V, _ = np.linalg.qr(rng.standard_normal((6, 2))
                            + 1j * rng.standard_normal((6, 2)))
        noise = 1e-10 * rng.standard_normal((6, 6))
        P = V @ V.conj().T + (noise + noise.T) / 2
        M = 0.5 * np.eye(6, dtype=complex)
        report = effective_hamiltonian(M, P, probe_ring(2.0), 1.5, m_max=1)
        assert report.projector_rank == 2
        assert report.bulk_spectral_radius == pytest.approx(0.5, abs=1e-12)
        assert residual_decay(M, P, 1)[0] == pytest.approx(0.5, abs=1e-12)

    def test_overflowing_bulk_solve_refused(self):
        # finite blocks, nilpotent bulk D = [[0, 1e308], [0, 0]]: the solve
        # against I - D at probe 1 returns 10 * 1e308, which is inf
        M = np.zeros((3, 3))
        M[1, 2], M[2, 0], M[0, 1] = 1e308, 10.0, 1.0
        with pytest.raises(SingularResolvent, match="overflowed"):
            effective_hamiltonian(M, np.array([1.0, 0.0, 0.0]), [1.0], 0.5)

    def test_newton_keeps_seed_where_det_e_is_flat(self):
        # corner 0 makes E = 1 at every lam, so E' = 0 and tr(E^-1 E') is
        # exactly zero: Newton stops and keeps the surfaced seed
        M, radius = surfacing_bulk_seed(0.0)
        report = effective_hamiltonian(M, np.array([1.0, 0.0, 0.0, 0.0]),
                                       [1.0], radius, m_max=1)
        assert report.outer_eigenvalues
        assert report.refined_roots == report.outer_eigenvalues
        assert report.unmatched == 0

    def test_newton_keeps_seed_when_the_step_enters_the_bulk(self):
        # det E = 1 - 0.3/lam has its root 0.3 inside the bulk radius; from
        # a seed s near 1/2 the Newton step lands at s(0.6 - s)/0.3, about
        # 0.17, inside the margin, so the seed is kept
        M, radius = surfacing_bulk_seed(0.3)
        report = effective_hamiltonian(M, np.array([1.0, 0.0, 0.0, 0.0]),
                                       [1.0], radius, m_max=1)
        assert report.outer_eigenvalues
        assert report.refined_roots == report.outer_eigenvalues
        assert report.unmatched == 0


# ---------------------------------------------------------------------------
# kept-column oracles: the full-inverse and full-power forms they replace
# ---------------------------------------------------------------------------

def full_inverse_pieces(A, B, C, D, lam, derivative=True):
    """E(lam) and dE(lam) through the full bulk inverse (I - D/lam)^{-1},
    on the uncut blocks of full_blocks."""
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


def cut_blocks(matrix, projector):
    """The library's cut blocks (A, B, C, D) of a map and a projector."""
    return oqmap.spectral._blocks(
        *_split(*_as_columns(np.asarray(matrix)), projector))


def dense(nz, columns):
    """The N x N map whose columns nz are columns and the rest zero."""
    M = np.zeros((columns.shape[0],) * 2, dtype=columns.dtype)
    M[:, nz] = columns
    return M


def dense_blocks(M, kept, rest):
    """Blocks of a split map M, the bulk D being its whole kernel block."""
    return (M[np.ix_(kept, kept)], M[np.ix_(kept, rest)],
            M[np.ix_(rest, kept)], M[np.ix_(rest, rest)])


def uncut_blocks(nz, columns, kept, rest):
    """_blocks without the cut, on the split map (nz, M[:, nz]) made
    dense again."""
    return dense_blocks(dense(nz, columns), kept, rest)


def full_blocks(matrix, projector):
    """Uncut blocks (A, B, C, D): the bulk D is the whole kernel block,
    by index slicing for a diagonal projector or through the bases (V, W)
    for a matrix projector."""
    M = np.asarray(getattr(matrix, "matrix", matrix))
    kept, rest, V, W = projector_split(projector)
    if V is None:
        return dense_blocks(M, kept, rest)
    Vh, Wh = V.conj().T, W.conj().T
    return Vh @ M @ V, Vh @ M @ W, Wh @ M @ V, Wh @ M @ W


def bulk_columns_blocks(nz, columns, kept, rest):
    """Mutant _blocks: J from the columns of the bulk block alone, so a
    bulk column that is nonzero only on kept rows is dropped from B."""
    M = dense(nz, columns)
    J = rest[np.any(M[np.ix_(rest, rest)] != 0, axis=0)]
    return (M[np.ix_(kept, kept)], M[np.ix_(kept, J)],
            M[np.ix_(J, kept)], M[np.ix_(J, J)])


def full_power_residual_decay(matrix, projector, m_max=6):
    """||(I - Pi) M^m||_2 from full N x N powers and full SVDs, with
    (I - Pi) applied unrotated, as W^* for a matrix projector; a pair
    (nz, M[:, nz]) is made dense first."""
    M = (dense(*matrix) if isinstance(matrix, tuple)
         else np.asarray(getattr(matrix, "matrix", matrix)))
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
    # four outer eigenvalues near 0.8; bulk column 9 is zero on the bulk
    # rows but not on the kept rows, so B needs it
    kept_rows = (rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))) / 12.0
    kept_rows[range(4), range(4)] += 0.8 * np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j)
    kept_rows[4:, 9] = 0.0
    return {
        # diagonal cover: D keeps some zero columns, J is a proper subset
        "quasiprojector": (M, quasi.diagonal, 0.5),
        # the map's own kept set: D = 0, J is empty, R = I
        "empty J": (M, quantization.projector, 0.5),
        # no zero column anywhere
        "dense M": (dense, (np.arange(40) < 12).astype(float), 0.5),
        # matrix projector: rotated, so D is dense
        "matrix projector": (M, random_orthoprojector(125, 30, 3), 0.8),
        # a bulk column nonzero only on kept rows
        "kept rows only": (kept_rows, (np.arange(12) < 4).astype(float), 0.5),
    }


CASES = kept_column_cases()


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))


def pieces_error(M, projector, lams=(1.5, 0.9 * np.exp(0.7j), 0.55 + 0.05j)):
    """Worst relative deviation of E and dE on the library's cut blocks
    from the full-inverse forms on the uncut blocks."""
    cut, full = cut_blocks(M, projector), full_blocks(M, projector)
    worst = 0.0
    for lam in lams:
        E, dE = _effective_pieces(*cut, lam)
        E0, dE0 = full_inverse_pieces(*full, lam)
        worst = max(worst, np.linalg.norm(E - E0) / np.linalg.norm(E0),
                    np.linalg.norm(dE - dE0) / np.linalg.norm(dE0))
        E1, none = _effective_pieces(*cut, lam, derivative=False)
        assert none is None
        assert np.array_equal(E1, E)
    return worst


class TestKeptColumns:
    def test_cases_cover_each_bulk_shape(self):
        # (|J|, full bulk size) of each case
        sizes = {case: (cut_blocks(M, projector)[3].shape[0],
                        full_blocks(M, projector)[3].shape[0])
                 for case, (M, projector, _) in CASES.items()}
        J, nb = sizes["quasiprojector"]
        assert 0 < J < nb
        assert sizes["empty J"][0] == 0 < sizes["empty J"][1]
        assert sizes["dense M"][0] == sizes["dense M"][1]
        assert sizes["matrix projector"][0] == sizes["matrix projector"][1]
        # J keeps the bulk column that only the kept rows reach
        assert sizes["kept rows only"][0] == sizes["kept rows only"][1]
        M, projector, _ = CASES["kept rows only"]
        bulk = full_blocks(M, projector)[3]
        assert not bulk[:, 9 - 4].any() and M[:4, 9].any()

    @pytest.mark.parametrize("case", CASES)
    def test_pieces_match_full_inverse(self, case):
        M, projector, radius = CASES[case]
        assert pieces_error(M, projector, (1.5, 0.9 * np.exp(0.7j),
                                           radius + 0.05j)) <= 1e-12

    def test_mutant_cut_is_caught(self, monkeypatch):
        M, projector, _ = CASES["kept rows only"]
        monkeypatch.setattr(oqmap.spectral, "_blocks", bulk_columns_blocks)
        assert pieces_error(M, projector) > 1e-6

    @pytest.mark.parametrize("case", CASES)
    def test_residual_decay_matches_full_powers(self, case):
        M, projector, _ = CASES[case]
        assert_close(residual_decay(M, projector, 8),
                     full_power_residual_decay(M, projector, 8))

    @pytest.mark.parametrize("case", CASES)
    def test_residual_decay_of_a_contracting_map(self, case):
        # 0.12 M: the norms fall to 1e-12 and below by m = 12, and each
        # keeps its relative accuracy
        M, projector, _ = CASES[case]
        want = full_power_residual_decay(0.12 * M, projector, 12)
        assert min(want) <= 2e-12
        assert_close(residual_decay(0.12 * M, projector, 12), want)

    def test_residual_decay_holds_no_power_of_the_columns(self):
        # the audit holds |nz| x |nz| powers and Grams and one 64-row
        # chunk, so it peaks below one N x |nz| array, 16 N |nz| bytes
        N, k = 2000, 200
        rng = np.random.default_rng(5)
        nz = np.sort(rng.choice(N, k, replace=False))
        columns = (rng.normal(size=(N, k))
                   + 1j * rng.normal(size=(N, k))) / math.sqrt(2 * N)
        projector = (np.arange(N) < N // 2).astype(float)
        tracemalloc.start()
        try:
            norms = residual_decay((nz, columns), projector, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * N * k
        assert_close(norms, full_power_residual_decay((nz, columns),
                                                      projector, 6))

    @pytest.mark.parametrize("case", CASES)
    def test_report_matches_full_forms(self, case, monkeypatch):
        M, projector, radius = CASES[case]
        probes = probe_ring(1.5, 6)
        got = effective_hamiltonian(M, projector, probes, radius)
        # the want report never sees the cut
        monkeypatch.setattr(oqmap.spectral, "_blocks", uncut_blocks)
        monkeypatch.setattr(oqmap.spectral, "_effective_pieces",
                            full_inverse_pieces)
        monkeypatch.setattr(oqmap.spectral, "residual_decay",
                            full_power_residual_decay)
        want = effective_hamiltonian(M, projector, probes, radius)
        assert got.outer_eigenvalues == want.outer_eigenvalues
        assert got.outer_eigenvalues  # every case has roots to refine
        assert_close(got.refined_roots, want.refined_roots)
        assert_close(got.residual_norms, want.residual_norms)
        # and against full powers of the caller's own (M, projector)
        assert_close(got.residual_norms, full_power_residual_decay(M, projector))
        assert got.unmatched == want.unmatched == 0
        # the bulk radius against the full bulk's eigenvalues, by Sylvester
        r_bulk = want.bulk_spectral_radius
        assert abs(got.bulk_spectral_radius - r_bulk) <= 1e-12 * max(r_bulk, 1e-3)
        # det E and det(I - D/lam) of the cut blocks against the uncut ones
        cut, full = cut_blocks(M, projector), full_blocks(M, projector)
        for lam in probes:
            det_e = np.linalg.det(_effective_pieces(*cut, lam, False)[0])
            want_e = np.linalg.det(full_inverse_pieces(*full, lam)[0])
            assert abs(det_e - want_e) <= 1e-12 * abs(want_e)
            D, D0 = cut[3], full[3]
            det_bulk = np.linalg.det(np.eye(D.shape[0]) - D / lam)
            want_bulk = np.linalg.det(np.eye(D0.shape[0]) - D0 / lam)
            assert abs(det_bulk - want_bulk) <= 1e-12 * abs(want_bulk)
        assert got.max_identity_rel_error <= 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_pair_gives_the_bits_of_the_dense_map(self, case):
        # (nz, M[:, nz]) is the form the CLI hands over; a dense M is cut
        # to it by one scan, so both give the same report bit for bit
        M, projector, radius = CASES[case]
        nz = np.flatnonzero(np.any(M != 0, axis=0))
        pair = (nz, M[:, nz])
        probes = probe_ring(1.5, 6)
        assert effective_hamiltonian(pair, projector, probes, radius) == \
            effective_hamiltonian(M, projector, probes, radius)
        assert residual_decay(pair, projector, 8) == \
            residual_decay(M, projector, 8)

    @pytest.mark.parametrize("pair", [
        (np.array([0, 2]), np.ones(3)),                # columns not 2-D
        (np.array([0, 2]), np.ones((3, 3))),           # one index short
        (np.array([2, 0]), np.ones((3, 2))),           # not ascending
        (np.array([1, 1]), np.ones((3, 2))),           # repeated
        (np.array([0, 3]), np.ones((3, 2))),           # past N - 1
        (np.array([-1, 2]), np.ones((3, 2))),          # negative
    ], ids=["1-D", "short", "descending", "repeated", "past N", "negative"])
    def test_malformed_pair_refused(self, pair):
        with pytest.raises(ValueError, match="nz ascending"):
            residual_decay(pair, np.ones(3))
        with pytest.raises(ValueError, match="nz ascending"):
            effective_hamiltonian(pair, np.ones(3), probe_ring(2.0), 1.5)

    def test_identity_checks_the_rotation(self, rng, monkeypatch):
        # the outer eigenvalues and det(I - M[nz, nz]/lam) come from the
        # caller's M, so a rotation that is not unitary breaks the
        # identity; on the rotated map alone the identity would still hold
        N = 8
        M = (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))) \
            / math.sqrt(N)
        P = random_orthoprojector(N, 3, 5)
        ring = 2.0 * float(np.linalg.norm(M, 2)) + 1.0
        report = effective_hamiltonian(M, P, [ring], ring)
        assert report.max_identity_rel_error <= 1e-12
        eigh = np.linalg.eigh

        def stretched(a, *args, **kwargs):
            values, vectors = eigh(a, *args, **kwargs)
            return values, 1.001 * vectors

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        report = effective_hamiltonian(M, P, [ring], ring)
        assert report.max_identity_rel_error > 1e-4

    def test_m_max_checked_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("projector split before m_max was checked")

        monkeypatch.setattr(oqmap.spectral, "_split", unreachable)
        with pytest.raises(ValueError, match="m_max"):
            effective_hamiltonian(np.eye(4), np.ones(4), probe_ring(2.0), 1.5,
                                  m_max=13)
        with pytest.raises(ValueError, match="finite square"):
            effective_hamiltonian(np.eye(4), np.ones(4), probe_ring(1e200), 1.5)

    @pytest.mark.parametrize("case", CASES)
    def test_projector_is_split_once(self, case, monkeypatch):
        M, projector, radius = CASES[case]
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        report = effective_hamiltonian(M, projector, probe_ring(1.5, 6), radius)
        # one eigh for a matrix projector, none for a diagonal one
        assert calls == ([projector.shape] if projector.ndim == 2 else [])
        # the audit on the split map gives the bits of the caller's split
        assert report.residual_norms == residual_decay(M, projector)


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


# ---------------------------------------------------------------------------
# exact core: the full-matrix eigensolve is the oracle
# ---------------------------------------------------------------------------

BLOCHS = ((0.0, 0.0), (0.5, 0.5), (0.3, 0.7))
WALSH_SPECS = [(3, (0, 2), k) for k in range(1, 8)] + [(4, (0, 1, 3), 5),
                                                       (6, (1, 4), 4)]


def core_case(case):
    """(M, expected core size) of a standard or Walsh map."""
    if case[0] == "walsh":
        _, D, keep, k, seed = case
        M = get_walsh(D, keep, k).open_map.matrix
        if seed is not None:
            M = apply_diagonal_phases(M, seed=seed)
        return M, len(keep) ** k
    _, tag, N, bloch = case
    quantization = get_quantization(tag, N, bloch)
    return quantization.open_map.matrix, int(quantization.projector.sum())


CORE_CASES = (
    [("standard", tag, N, bloch)
     for tag, N in (("D3", 243), ("D5", 500)) for bloch in BLOCHS]
    + [("standard", "asym", 256, (0.0, 0.0))]
    + [("walsh", *spec, seed) for spec in WALSH_SPECS for seed in (None, 11)])


def core_oracle_failures(M, core_size, vectors=True):
    """Every way eigen_decompose(M) misses the full-matrix oracle.

    The eigenvalues above 1e-3 must pair up both ways with those of
    np.linalg.eigvals(M); exactly N - core_size of them must be exact
    zeros; each vector above 1e-3 must have residual <= 1e-12; and each
    zero mode must be some e_j, the zero columns of M first, so that
    M e_j = 0 for the first sweep.
    """
    N = M.shape[0]
    failures = []
    spectrum = eigen_decompose(M, want_vectors=vectors)
    got, want = spectrum.eigenvalues, np.linalg.eigvals(M)
    for ref, cand in ((want, got), (got, want)):
        _, unmatched, _ = match_spectra(ref[np.abs(ref) > 1e-3], cand, 1e-8)
        if unmatched:
            failures.append(f"{len(unmatched)} eigenvalues unmatched")
    zeros = int(np.count_nonzero(got == 0))
    if zeros != N - core_size:
        failures.append(f"{zeros} exact zeros, want {N - core_size}")
    if vectors:
        V = spectrum.vectors
        big = np.abs(got) > 1e-3
        residual = np.abs(M @ V[:, big] - V[:, big] * got[big]).max()
        if not residual <= 1e-12:
            failures.append(f"vector residual {residual:.2e}")
        null = V[:, N - zeros:]
        j = np.argmax(np.abs(null), axis=0)
        first = np.flatnonzero(np.all(M == 0, axis=0))
        if not (np.all(np.count_nonzero(null, axis=0) == 1)
                and np.all(null[j, np.arange(zeros)] == 1)
                and np.array_equal(j[:first.size], first)):
            failures.append("zero modes are not e_j, zero columns first")
    return failures


def one_sweep_core(M):
    core, sweeps = _core(M)
    first = sweeps[0]
    return np.setdiff1d(np.arange(M.shape[0]), first), sweeps[:1]


def greedy_core(M):
    # also drops the first core index, whose column holds a nonzero entry
    core, sweeps = _core(M)
    return core[1:], [np.sort(np.concatenate([sweeps[0], core[:1]]))] + sweeps[1:]


class TestExactCore:
    @pytest.mark.parametrize("case", CORE_CASES, ids=str)
    def test_matches_full_eigensolve(self, case):
        M, core_size = core_case(case)
        core, sweeps = _core(M)
        assert core.size == core_size
        # a standard map deflates in one sweep, a Walsh map in one per digit
        assert len(sweeps) == (case[3] if case[0] == "walsh" else 1)
        # the vectors at N = 2187 (76 MiB) add nothing the k <= 6 cases lack
        assert core_oracle_failures(M, core_size, vectors=M.shape[0] < 2187) == []

    def test_swept_corner_is_nilpotent(self):
        M, _ = core_case(("walsh", 3, (0, 2), 4, 11))
        core, sweeps = _core(M)
        order = np.concatenate(sweeps + [core])
        P = M[np.ix_(order, order)]
        swept = P.shape[0] - core.size
        assert not P[swept:, :swept].any()
        assert not np.linalg.matrix_power(P[:swept, :swept], len(sweeps)).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_block_triangular(self, seed):
        # random sweeps of random sizes, a dense random core, the whole
        # thing hidden under a random permutation; p > 1 exercises the
        # back substitution on random data
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 6, size=rng.integers(1, 4))
        k = int(rng.integers(3, 9))
        N = int(sizes.sum()) + k
        P = (rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))) / 3
        edges = np.concatenate([[0], np.cumsum(sizes)])
        for lo, hi in zip(edges[:-1], edges[1:]):
            P[lo:, lo:hi] = 0.0  # sweep block: nonzero only on earlier rows
        perm = rng.permutation(N)
        M = np.empty_like(P)
        M[np.ix_(perm, perm)] = P
        assert _core(M)[0].size == k
        assert len(_core(M)[1]) == sizes.size
        assert core_oracle_failures(M, k) == []

    def test_zero_core_eigenvalue_gets_a_finite_vector(self):
        # the core [[1, 1], [1, 1]] has the eigenvalue 0, with X y = 0, so
        # y padded with zeros is a null vector of M; no division by 0
        M = np.array([[0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        spectrum = eigen_decompose(M, want_vectors=True)
        V, values = spectrum.vectors, spectrum.eigenvalues
        assert np.all(np.isfinite(V))
        assert np.abs(M @ V[:, :2] - V[:, :2] * values[:2]).max() <= 1e-14
        assert abs(values[0] - 2.0) <= 1e-14

    @pytest.mark.parametrize("mutant", [one_sweep_core, greedy_core])
    @pytest.mark.parametrize("case", [("walsh", 3, (0, 2), 5, None),
                                      ("walsh", 4, (0, 1, 3), 3, 11)], ids=str)
    def test_mutant_core_is_caught(self, mutant, case, monkeypatch):
        M, core_size = core_case(case)
        monkeypatch.setattr(oqmap.spectral, "_core", mutant)
        assert core_oracle_failures(M, core_size)

    def test_mutant_drop_is_caught_on_a_standard_map(self, monkeypatch):
        M, core_size = core_case(("standard", "D3", 243, (0.3, 0.7)))
        monkeypatch.setattr(oqmap.spectral, "_core", greedy_core)
        assert core_oracle_failures(M, core_size)
