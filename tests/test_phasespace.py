"""Phase-space layer: periodized coherent states, Husimi fields, and the
thickened strip covers used to audit eigenmode localization.

Overlap claims are checked against the continuum Gaussian formula, and
lattice translations against the exact covariance identities of the
periodized states.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oqmap.phasespace
from oqmap import (
    CoherentFrame,
    QuantizationConfig,
    coherent_state,
    coherent_state_raw,
    husimi_field,
    husimi_report,
    merged_strip_cover,
    quantize_open,
    symmetric_spec,
    trapped_cover,
    validate_spec,
)
from oqmap.errors import DimensionGuard, UnnormalizedInput
from oqmap.phasespace import _validate_grid
from oqmap.quantize import DENSE_GUARD

from conftest import fraction_intervals, get_open_spectrum, get_quantization


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------

class TestCoherentStates:
    def test_raw_norm_close_to_one(self):
        for N in (16, 64, 500):
            frame = CoherentFrame(N)
            for x0, xi0 in ((0.0, 0.0), (0.37, 0.21), (0.99, 0.5)):
                norm = np.linalg.norm(coherent_state_raw(frame, x0, xi0))
                assert abs(norm - 1.0) <= 1e-10

    def test_normalized_exactly(self):
        frame = CoherentFrame(32)
        state = coherent_state(frame, 0.4, 0.6)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)

    def test_xi_translation_exact_covariance(self):
        # shifting xi0 by one lattice cell multiplies by e^{2 pi i x_j}
        # exactly, every periodization image included
        frame = CoherentFrame(64)
        raw0 = coherent_state_raw(frame, 0.37, 0.21)
        raw1 = coherent_state_raw(frame, 0.37, 0.21 + 1 / 64)
        phase = np.exp(2j * np.pi * frame.lattice)
        assert np.abs(raw1 - phase * raw0).max() <= 1e-8

    def test_x_translation_rolls_lattice(self):
        frame = CoherentFrame(64)
        raw0 = coherent_state_raw(frame, 0.37, 0.21)
        raw2 = coherent_state_raw(frame, 0.37 + 1 / 64, 0.21)
        want = np.exp(2j * np.pi * 0.21) * np.roll(raw0, 1)
        assert np.abs(raw2 - want).max() <= 1e-8

    def test_overlap_matches_gaussian_formula(self):
        # |<a|b>|^2 = e^{-pi N (dx^2 + dxi^2)} away from wraparound
        N = 64
        frame = CoherentFrame(N)
        a = coherent_state(frame, 0.2, 0.2)
        b = coherent_state(frame, 0.3, 0.3)
        got = abs(np.vdot(a, b)) ** 2
        want = math.exp(-math.pi * N * (0.01 + 0.01))
        assert got == pytest.approx(want, rel=1e-10)

    def test_distant_overlap_exponentially_small(self):
        N = 64
        frame = CoherentFrame(N)
        a = coherent_state(frame, 0.2, 0.2)
        c = coherent_state(frame, 0.7, 0.7)
        assert abs(np.vdot(a, c)) ** 2 <= math.exp(-0.7 * N)

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            CoherentFrame(0)

    def test_bloch_offsets_lattice(self):
        frame = CoherentFrame(4, (0.5, 0.5))
        assert np.allclose(frame.lattice, [1 / 8, 3 / 8, 5 / 8, 7 / 8])


# ---------------------------------------------------------------------------
# Husimi fields
# ---------------------------------------------------------------------------

class TestHusimiField:
    def test_positive_everywhere(self):
        frame = CoherentFrame(32)
        field = husimi_field(coherent_state(frame, 0.5, 0.5), frame, 32)
        assert np.all(field.values >= 0.0)

    def test_resolution_of_identity(self):
        # the grid mean of H estimates ||u||^2 = 1 once the grid resolves
        # the coherent width ~1/sqrt(N)
        rng = np.random.default_rng(99)
        u = rng.normal(size=64) + 1j * rng.normal(size=64)
        u /= np.linalg.norm(u)
        frame = CoherentFrame(64)
        mean = husimi_field(u, frame, 32).values.mean()
        assert 0.95 <= mean <= 1.05

    def test_peak_at_coherent_center(self):
        frame = CoherentFrame(128)
        field = husimi_field(coherent_state(frame, 0.3, 0.7), frame, 64)
        ia, ib = np.unravel_index(np.argmax(field.values), field.values.shape)
        assert abs(field.x_centers[ia] - 0.3) <= 2 / 64
        assert abs(field.xi_centers[ib] - 0.7) <= 2 / 64

    def test_peak_follows_one_map_step(self, spec3):
        # H of M u for a coherent state at (0.17, 0.5) peaks near the
        # classical image (0.51, 1/6)
        N = 243
        frame = CoherentFrame(N, (0.5, 0.5))
        state = coherent_state(frame, 0.17, 0.5)
        M = get_quantization("D3", N, (0.5, 0.5)).open_map.matrix
        v = M @ state
        v /= np.linalg.norm(v)
        field = husimi_field(v, frame, 64)
        ia, ib = np.unravel_index(np.argmax(field.values), field.values.shape)
        cell = 1 / 64
        assert abs(field.x_centers[ia] - 0.51) <= 2 * cell
        assert abs(field.xi_centers[ib] - 1 / 6) <= 2 * cell

    def test_rejects_unnormalized(self):
        frame = CoherentFrame(32)
        state = 0.9 * coherent_state(frame, 0.5, 0.5)
        with pytest.raises(UnnormalizedInput):
            husimi_field(state, frame, 32)

    def test_rejects_coarse_grid(self):
        frame = CoherentFrame(32)
        state = coherent_state(frame, 0.5, 0.5)
        with pytest.raises(ValueError):
            husimi_field(state, frame, 16)

    def test_rejects_length_mismatch(self):
        frame = CoherentFrame(32)
        with pytest.raises(ValueError):
            husimi_field(np.ones(16) / 4.0, frame, 32)

    def test_rectangular_grid(self):
        frame = CoherentFrame(32)
        field = husimi_field(coherent_state(frame, 0.5, 0.5), frame, (32, 64))
        assert field.values.shape == (32, 64)
        assert field.x_centers.shape == (32,)
        assert field.xi_centers.shape == (64,)


    def test_grid_above_guard_refused_before_allocating(self):
        frame = CoherentFrame(27)
        state = coherent_state(frame, 0.5, 0.5)
        for grid in (100000, (32, DENSE_GUARD + 1), (DENSE_GUARD + 1, 32)):
            tracemalloc.start()
            try:
                with pytest.raises(DimensionGuard):
                    husimi_field(state, frame, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Husimi oracles: the direct sum the FFT fold replaces
# ---------------------------------------------------------------------------

def direct_sum_field(state, frame, grid):
    """Phase-reduced direct sum over cells, images and lattice points.

    Every exponent is an integer multiple of pi/gxi, reduced modulo 2 gxi
    before exponentiation.
    """
    u = np.asarray(state, dtype=complex)
    N, W = frame.dimension, frame.image_radius
    gx, gxi = _validate_grid(grid)
    j = np.arange(N)
    odd = 2 * np.arange(gxi)[:, None] + 1
    values = np.empty((gx, gxi))
    for a in range(gx):
        x0 = (a + 0.5) / gx
        psi = np.zeros((gxi, N), dtype=complex)  # one state per xi_b
        for w in range(-W, W + 1):
            n = j + w * N
            # sigma = 1
            envelope = np.exp(-np.pi * (n + frame.bloch[0] - N * x0) ** 2 / N)
            # e^{2 pi i xi_b n} with xi_b = (2b + 1) / (2 gxi)
            psi += envelope * np.exp(1j * np.pi * (odd * n % (2 * gxi)) / gxi)
        overlaps = psi.conj() @ u
        norms_sq = np.sum(np.abs(psi) ** 2, axis=1)
        values[a] = N * np.abs(overlaps) ** 2 / norms_sq
    return values


def direct_gemm_field(state, frame, grid):
    """The O(gx gxi N W) grid-column loop of the first implementation,
    phases taken unreduced."""
    u = np.asarray(state, dtype=complex)
    N = frame.dimension
    gx, gxi = _validate_grid(grid)
    x_centers = (np.arange(gx) + 0.5) / gx
    xi_centers = (np.arange(gxi) + 0.5) / gxi
    x = frame.lattice
    images = range(-frame.image_radius, frame.image_radius + 1)
    envelopes = [np.exp(-np.pi * N * (x[None, :] + w - x_centers[:, None]) ** 2)
                 for w in images]  # sigma = 1
    values = np.empty((gx, gxi))
    for b, xi0 in enumerate(xi_centers):
        S = np.zeros((gx, N), dtype=complex)
        for T, w in zip(envelopes, images):
            S += T * np.exp(2j * np.pi * N * xi0 * w)
        lattice_phase = np.exp(2j * np.pi * N * xi0 * x)
        overlaps = S.conj() @ (np.conj(lattice_phase) * u)
        norms_sq = np.einsum("aj,aj->a", S.real, S.real) \
            + np.einsum("aj,aj->a", S.imag, S.imag)
        values[:, b] = N * np.abs(overlaps) ** 2 / norms_sq
    return values


def random_state(N, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=N) + 1j * rng.normal(size=N)
    return u / np.linalg.norm(u)


FOLD_CASES = [
    # (N, grid, bloch): square, rectangular both ways, theta_x != 0, a
    # grid finer than the extended lattice, and N not a multiple of gxi
    (40, 32, (0.0, 0.0)),
    (36, (32, 48), (0.3, 0.7)),
    (50, (40, 33), (0.5, 0.5)),
    (27, (33, 32), (0.25, 0.0)),
    (16, (32, 200), (0.0, 0.5)),
]


class TestHusimiFold:
    @pytest.mark.parametrize("N,grid,bloch", FOLD_CASES)
    def test_matches_direct_sums(self, N, grid, bloch):
        frame = CoherentFrame(N, bloch)
        state = random_state(N, N)
        values = husimi_field(state, frame, grid).values
        reduced = direct_sum_field(state, frame, grid)
        scale = reduced.max()
        assert np.abs(values - reduced).max() <= 1e-14 * scale
        assert np.abs(values - direct_gemm_field(state, frame, grid)).max() \
            <= 1e-12 * scale

    def test_matches_gemm_loop_on_eigenmode(self):
        # the benchmark-sized case: a resonance state at N = 500
        N = 500
        spectrum = get_open_spectrum("D5", N, (0.5, 0.5), vectors=True)
        mode = spectrum.vectors[:, 0] / np.linalg.norm(spectrum.vectors[:, 0])
        frame = CoherentFrame(N, (0.5, 0.5))
        values = husimi_field(mode, frame, (64, 96)).values
        reference = direct_gemm_field(mode, frame, (64, 96))
        assert np.abs(values - reference).max() <= 1e-12 * reference.max()

    def test_fold_without_half_cell_shift_fails(self, monkeypatch):
        # mutation check: dropping e^{-i pi n/gxi} samples xi at b/gxi
        # instead of the cell centres, which the oracle must catch
        N, grid, bloch = FOLD_CASES[1]
        frame = CoherentFrame(N, bloch)
        state = random_state(N, N)
        reduced = direct_sum_field(state, frame, grid)
        monkeypatch.setattr(oqmap.phasespace, "_half_cell_twist",
                            lambda n, gxi: np.ones(n.shape))
        values = husimi_field(state, frame, grid).values
        assert np.abs(values - reduced).max() > 1e-3 * reduced.max()


# ---------------------------------------------------------------------------
# strip covers
# ---------------------------------------------------------------------------

def fraction_strip_cover(spec, level, thickening):
    """Oracle: the merged cover from Fraction endpoints through float()."""
    raw = []
    for lo, hi in fraction_intervals(trapped_cover(spec, level)):
        a = float(lo) - thickening
        b = float(hi) + thickening
        if b - a >= 1.0:
            return ((0.0, 1.0),), 1.0
        a_mod = a % 1.0
        b_shift = a_mod + (b - a)
        if b_shift <= 1.0:
            raw.append((a_mod, b_shift))
        else:
            raw.append((a_mod, 1.0))
            raw.append((0.0, b_shift - 1.0))
    raw.sort()
    merged = [list(raw[0])]
    for a, b in raw[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    if len(merged) > 1 and merged[-1][1] >= 1.0 and merged[0][0] <= 0.0:
        merged[0][0] = merged[-1][0] - 1.0
        merged.pop()
    total = sum(b - a for a, b in merged)
    return tuple((float(a), float(b)) for a, b in merged), float(total)


def float_bits(cover):
    intervals, total = cover
    return [x.hex() for iv in intervals for x in iv] + [total.hex()]


class TestMergedStripCover:
    @pytest.mark.parametrize("partition,keep,level,thickening", [
        ("0,1/5,2/5,3/5,4/5,1", (1, 3), 4, 0.0),
        ("0,1/5,2/5,3/5,4/5,1", (1, 3), 4, 3 / math.sqrt(2 * math.pi * 500)),
        ("0,1/3,2/3,1", (0, 2), 1, 0.05),
        ("0,1/3,2/3,1", (0, 2), 8, 1e-3),
        ("0,1/2,3/4,1", (0, 2), 6, 1e-4),  # reducible endpoints over 4^m
        ("0,1/4,1/2,3/4,1", (0, 1, 3), 5, 0.0),  # adjacent strips merge
        ("0,1/47,30/47,1", (0, 2), 12, 1e-9),  # numerators past 2^63
    ])
    def test_floats_match_fraction_path(self, partition, keep, level,
                                        thickening):
        spec = validate_spec(partition.split(","), keep)
        assert (float_bits(merged_strip_cover(spec, level, thickening))
                == float_bits(fraction_strip_cover(spec, level, thickening)))

    def test_bare_cover_measures_survival_power(self, spec5):
        intervals, total = merged_strip_cover(spec5, 4, 0.0)
        assert len(intervals) == 16
        assert total == pytest.approx((2 / 5) ** 4, abs=1e-12)

    def test_thickened_cover_merges_and_wraps(self, spec3):
        intervals, total = merged_strip_cover(spec3, 1, 0.05)
        # [0,1/3) and [2/3,1) thickened by 0.05 merge across 0 into a
        # single circle arc of length 2/3 + 4 * 0.05 - 2 * 0.05
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert lo < 0.0 <= hi
        assert total == pytest.approx(23 / 30, abs=1e-12)

    def test_saturates_to_full_circle(self, spec3):
        intervals, total = merged_strip_cover(spec3, 1, 0.2)
        assert intervals == ((0.0, 1.0),)
        assert total == 1.0

    def test_interior_merge_without_wrap(self):
        spec = validate_spec((0, Fraction(1, 4), Fraction(1, 2), 1), (0, 1))
        intervals, total = merged_strip_cover(spec, 1, 0.01)
        # [0,1/4) and [1/4,1/2) merge into one arc, thickened both sides
        assert len(intervals) == 1
        assert total == pytest.approx(0.5 + 0.02, abs=1e-12)

    def test_negative_thickening_rejected(self, spec3):
        with pytest.raises(ValueError):
            merged_strip_cover(spec3, 1, -0.1)


class TestHusimiReport:
    def test_coherent_state_inside_strip_is_captured(self, spec5):
        # centre of the leftmost level-4 strip: word (1,1,1,1) gives
        # [156/625, 157/625)
        N = 500
        eps = 3 / math.sqrt(2 * math.pi * N)
        frame = CoherentFrame(N, (0.5, 0.5))
        state = coherent_state(frame, 0.5, 156 / 625 + 1 / 1250)
        report = husimi_report(state, frame, 64,
                               merged_strip_cover(spec5, 4, eps))
        assert report.mass_near_kplus >= 0.9
        assert report.enhancement_ratio >= 2.0
        assert 0.0 < report.area_fraction < 0.5

    def test_mass_is_a_fraction(self, spec3):
        frame = CoherentFrame(64)
        rng = np.random.default_rng(5)
        u = rng.normal(size=64) + 1j * rng.normal(size=64)
        u /= np.linalg.norm(u)
        report = husimi_report(u, frame, 32,
                               merged_strip_cover(spec3, 2, 0.02))
        assert 0.0 <= report.mass_near_kplus <= 1.0
        assert report.enhancement_ratio == pytest.approx(
            report.mass_near_kplus / report.area_fraction, rel=1e-12)

    def test_full_cover_ratio_is_one(self, spec3):
        frame = CoherentFrame(64)
        state = coherent_state(frame, 0.5, 0.5)
        report = husimi_report(state, frame, 32,
                               merged_strip_cover(spec3, 1, 0.4))
        assert report.area_fraction == 1.0
        assert report.mass_near_kplus == pytest.approx(1.0, abs=1e-12)
        assert report.enhancement_ratio == pytest.approx(1.0, abs=1e-12)
