"""Coherent states and Husimi distributions on the quantized torus.

A coherent state centred at (x0, xi0) is a periodized Gaussian on the
position lattice x_j = (j + theta_x)/N,

    psi_j = (2/(N sigma))^{1/4} sum_w exp(-pi N (x_j + w - x0)^2 / sigma)
                                      exp(2 pi i N xi0 (x_j + w)),

with integer images w = -W..W.  Truncation at W = 5 and sigma = 1 leaves
the raw vector unit-normalized to better than 1e-10 for N >= 16; the
constructor normalizes exactly anyway.  Position spread is sqrt(sigma/
(2 pi N)) and momentum spread sqrt(1/(2 pi N sigma)): a symmetric
microscope at sigma = 1.

The Husimi field samples H(x, xi) = N |<coh(x, xi), u>|^2 on a grid of
cell centres, so that the plain grid average of the stored values
estimates ||u||^2 (resolution of identity).  Along each x-row the
overlaps are one length-gxi FFT of the Gaussian-windowed state folded
modulo the grid (Nonnenmacher-Rubin, Nonlinearity 20 (2007) 1387), and
the coherent-state norms come from the row's (2W+1)^2 image Gram
matrix: O(gx (N W + gxi log gxi)) per state instead of the direct sum's
O(gx gxi N W), streamed one row at a time.  Every phase argument is
reduced modulo an exact integer period before it is exponentiated.
Grids are refused above DENSE_GUARD cells per axis, before any
allocation.  Localization onto the
backward-trapped set K+ = [0,1) x Can is quantified by the mass the
field puts on an epsilon-thickened level-m strip cover of the xi-Cantor
set, compared against the Lebesgue area of the same region: long-lived
resonance states show an order-unity enhancement, random states do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .classical import BakerSpec, trapped_cover
from .errors import DimensionGuard, UnnormalizedInput
from .quantize import DENSE_GUARD

__all__ = [
    "CoherentFrame",
    "HusimiField",
    "HusimiReport",
    "coherent_state",
    "coherent_state_raw",
    "husimi_field",
    "husimi_report",
    "merged_strip_cover",
]

MIN_GRID = 32


@dataclass(frozen=True)
class CoherentFrame:
    """Parameters shared by a family of coherent states.

    squeeze rescales the position variance (sigma); image_radius is the
    number W of periodization images kept on each side.
    """

    dimension: int
    bloch: Tuple[float, float] = (0.0, 0.0)
    squeeze: float = 1.0
    image_radius: int = 5

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("frame dimension must be >= 1")
        if self.squeeze <= 0:
            raise ValueError("squeeze must be positive")
        if self.image_radius < 1:
            raise ValueError("need at least one periodization image")

    @property
    def lattice(self) -> np.ndarray:
        theta_x = self.bloch[0]
        return (np.arange(self.dimension) + theta_x) / self.dimension


def coherent_state_raw(frame: CoherentFrame, x0: float, xi0: float) -> np.ndarray:
    """Periodized Gaussian before normalization (norm is 1 to ~1e-10)."""
    N = frame.dimension
    sigma = frame.squeeze
    x = frame.lattice
    psi = np.zeros(N, dtype=complex)
    for w in range(-frame.image_radius, frame.image_radius + 1):
        xw = x + w
        psi += np.exp(-np.pi * N * (xw - x0) ** 2 / sigma
                      + 2j * np.pi * N * xi0 * xw)
    return (2.0 / (N * sigma)) ** 0.25 * psi


def coherent_state(frame: CoherentFrame, x0: float, xi0: float) -> np.ndarray:
    """Unit-norm coherent state centred at (x0, xi0)."""
    psi = coherent_state_raw(frame, x0, xi0)
    return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class HusimiField:
    """H(x, xi) = N |<coh, u>|^2 sampled at grid cell centres.

    values[a, b] belongs to centre (x_centers[a], xi_centers[b]); the
    grid average values.mean() estimates ||u||^2.
    """

    x_centers: np.ndarray
    xi_centers: np.ndarray
    values: np.ndarray


def _validate_grid(grid: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    gx, gxi = (grid, grid) if isinstance(grid, int) else (int(grid[0]), int(grid[1]))
    if gx < MIN_GRID or gxi < MIN_GRID:
        raise ValueError(f"grid must be at least {MIN_GRID} cells per axis")
    if gx > DENSE_GUARD or gxi > DENSE_GUARD:
        raise DimensionGuard(f"grid {gx} x {gxi} exceeds {DENSE_GUARD} cells per axis")
    return gx, gxi


def _half_cell_twist(n: np.ndarray, gxi: int) -> np.ndarray:
    """e^{-i pi n/gxi}, its argument reduced modulo the period 2 gxi."""
    return np.exp(-1j * np.pi * (n % (2 * gxi)) / gxi)


def husimi_field(state: np.ndarray, frame: CoherentFrame,
                 grid: Union[int, Tuple[int, int]] = 64) -> HusimiField:
    """Sample the Husimi distribution of a unit vector on a centred grid.

    With n = j + wN on the extended lattice, the overlap at cell
    (x_a, xi_b), xi_b = (b + 1/2)/gxi, is up to a unimodular factor

        sum_n g_a(n) u_{n mod N} e^{-i pi n/gxi} e^{-2 pi i b n/gxi},

    g_a the Gaussian envelope of row a: the state, windowed and shifted
    by half a cell, folded modulo gxi and transformed by one length-gxi
    FFT.  The squared norms of the unnormalized coherent states are
    sum_d c_a(d) cos(2 pi xi_b d N) over image offsets d, c_a(d) the d-th
    diagonal sum of the (2W+1)^2 Gram matrix of row a's image envelopes.
    Phases are reduced modulo their integer periods before the cosine or
    exponential is taken.
    """
    u = np.asarray(state, dtype=complex)
    N = frame.dimension
    if u.shape != (N,):
        raise ValueError(f"state length {u.shape} != frame dimension {N}")
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-8:
        raise UnnormalizedInput(f"state norm {norm!r} differs from 1 beyond 1e-8")
    gx, gxi = _validate_grid(grid)

    x_centers = (np.arange(gx) + 0.5) / gx
    xi_centers = (np.arange(gxi) + 0.5) / gxi
    W = frame.image_radius
    images = 2 * W + 1

    # extended lattice n = -WN .. (W+1)N - 1, padded at both ends to
    # whole periods of gxi so that the fold is a reshape and a sum
    lead = (-W * N) % gxi
    span = -(-(lead + images * N) // gxi) * gxi
    n = np.arange(span) - W * N - lead
    windowed = np.zeros(span, dtype=complex)
    windowed[lead:lead + images * N] = np.tile(u, images) \
        * _half_cell_twist(n[lead:lead + images * N], gxi)
    # cos(2 pi xi_b d N) = cos(pi ((2b + 1) d N mod 2 gxi) / gxi)
    offsets = np.arange(1, images)
    cosines = np.cos(np.pi * ((2 * np.arange(gxi)[None, :] + 1) * offsets[:, None] * N
                              % (2 * gxi)) / gxi)

    shift = n + frame.bloch[0]
    folded = np.empty((gx, gxi), dtype=complex)
    norms_sq = np.empty((gx, gxi))
    for a, x0 in enumerate(x_centers):
        envelope = np.exp(-np.pi * (shift - N * x0) ** 2 / (N * frame.squeeze))
        folded[a] = (envelope * windowed).reshape(-1, gxi).sum(axis=0)
        T = envelope[lead:lead + images * N].reshape(images, N)
        gram = T @ T.T
        diagonals = np.array([np.trace(gram, d) for d in range(images)])
        norms_sq[a] = diagonals[0] + 2.0 * diagonals[1:] @ cosines
    # the prefactor of the states cancels between overlap and norm
    values = N * np.abs(np.fft.fft(folded, axis=1)) ** 2 / norms_sq
    return HusimiField(x_centers, xi_centers, values)


# disjoint (lo, hi) arcs of the circle and their total length
StripCover = Tuple[Tuple[Tuple[float, float], ...], float]


def merged_strip_cover(spec: BakerSpec, level: int,
                       thickening: float) -> StripCover:
    """Thickened level-m cover of the xi-Cantor set, merged on the circle.

    Each strip [lo, hi) grows by the thickening on both sides, wraps
    modulo 1, and overlapping pieces merge.  Returns the disjoint
    intervals and their total length (the Lebesgue area fraction of the
    region, since it spans the full x range).
    """
    if thickening < 0:
        raise ValueError("thickening must be >= 0")
    strips = trapped_cover(spec, level, "K_plus").xi_intervals
    den = strips.den
    raw = []
    for lo, hi in zip(strips.los, strips.his):
        # int / int is correctly rounded: float(Fraction(lo, den)) exactly
        a = lo / den - thickening
        b = hi / den + thickening
        if b - a >= 1.0:
            return ((0.0, 1.0),), 1.0
        a_mod = a % 1.0
        b_shift = a_mod + (b - a)
        if b_shift <= 1.0:
            raw.append((a_mod, b_shift))
        else:  # wraps past 1
            raw.append((a_mod, 1.0))
            raw.append((0.0, b_shift - 1.0))
    raw.sort()
    merged = [list(raw[0])]
    for a, b in raw[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    # a piece touching 1 may wrap onto one starting at 0
    if len(merged) > 1 and merged[-1][1] >= 1.0 and merged[0][0] <= 0.0:
        merged[0][0] = merged[-1][0] - 1.0  # represent across 0 for membership
        merged.pop()
    total = sum(b - a for a, b in merged)
    return tuple((float(a), float(b)) for a, b in merged), float(total)


@dataclass(frozen=True)
class HusimiReport:
    """Husimi field plus its localization audit against the K+ cover."""

    field: HusimiField
    mass_near_kplus: float
    area_fraction: float
    enhancement_ratio: float


def husimi_report(state: np.ndarray, frame: CoherentFrame,
                  grid: Union[int, Tuple[int, int]],
                  cover: StripCover) -> HusimiReport:
    """Husimi field of a unit vector and its mass near the K+ strips.

    ``cover`` is the thickened, merged level-m cover of the xi-Cantor set
    from :func:`merged_strip_cover`, built by the caller, so that a
    command can refuse a bad level or thickening before it computes the
    state.  mass_near_kplus is the fraction of total Husimi mass whose xi
    cell centre falls in the cover; area_fraction is the Lebesgue measure
    of that region.  Their ratio is 1 in mean for delocalized states and
    grows for states piling onto K+.
    """
    field = husimi_field(state, frame, grid)
    intervals, area = cover

    xi = field.xi_centers
    inside = np.zeros(xi.shape, dtype=bool)
    for a, b in intervals:
        if a < 0.0:  # interval stored across 0
            inside |= (xi >= a + 1.0) | (xi < b)
        else:
            inside |= (xi >= a) & (xi < b)

    total = float(field.values.sum())
    mass = float(field.values[:, inside].sum()) / total
    ratio = mass / area if area > 0 else math.inf
    return HusimiReport(field, mass, float(area), ratio)
