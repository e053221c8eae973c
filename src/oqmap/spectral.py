"""Spectral analysis of quantized open maps.

Everything here works on dense complex matrices: nonunitary spectra are
computed with the standard QR eigensolver on the exact core of the map
(below), counted inside shrinking disks, rescaled by the fractal Weyl
exponent N^nu, fitted for that exponent across dimensions, and reduced
to the trapped-region effective Hamiltonian through an exact
Schur-complement determinant identity

    det(I - 1/lam M) = det(E(lam)) * det(I - 1/lam (I-Pi) M),
    E(lam) = I - 1/lam A - 1/lam^2 B (I - 1/lam D)^{-1} C,

where A = Pi M Pi, B = Pi M (I-Pi), C = (I-Pi) M Pi, D = (I-Pi) M (I-Pi)
are the blocks of M in the splitting ran(Pi) + ran(I-Pi).  Outside the
bulk spectrum (the eigenvalues of D) the factor (I - 1/lam D) is
invertible, so every resonance with |lam| > r_bulk is exactly a zero of
det E on the rank(Pi)-dimensional trapped subspace.

An open map M = U Pi vanishes outside its kept columns, and the
reduction and the residual norms run on those columns only.  The bulk is
cut once, to the bulk indices J whose column of M is nonzero on any row:
off J the columns of B and D vanish, so B (I - D/lam)^{-1} C =
B[:, J] K^{-1} C[J, :] with K = I - D[J, J]/lam, and (Sylvester's
identity) the bulk radius and det(I - D/lam) are those of D[J, J].
Powers of M are iterated on N x |nz| blocks.  The columns are read off
the matrix, so dense inputs take the same path.  The full N x N
determinant det(I - M/lam) stays the independent side of the identity.

The eigensolver uses the same zeros.  Sweep 1 drops every index whose
column of M is zero; sweep i drops every index whose column is zero on
the rows that survive sweep i-1.  What no sweep drops is the exact core
K.  Ordered as (sweep 1, ..., sweep p, K), M is block upper triangular,

    M = [[Nil, X], [0, M_KK]],

with Nil strictly block upper triangular, hence nilpotent.  So the
spectrum is eig(M_KK) and N - |K| exact zeros, and QR runs on the
|K| x |K| block alone.  A standard map deflates in one sweep (K = its
nonzero columns); a Walsh map on k-digit words takes k sweeps and ends
at the n^k words of kept digits.  An eigenvector of M_KK lifts to one
of M by back substitution over the sweeps; a dropped index j gets e_j,
an exact null vector when j falls in sweep 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .classical import BakerSpec, trapped_cover
from .errors import (
    CoverTooFine,
    DimensionGuard,
    InsufficientSamples,
    ProbeInsideBulkSpectrum,
    SingularResolvent,
    SolverFailure,
)
from .quantize import DENSE_GUARD, QuantizationConfig, QuantizedMap, _block_sizes

__all__ = [
    "Spectrum",
    "CountReport",
    "WeylFit",
    "Quasiprojector",
    "EffectiveHamiltonianReport",
    "eigen_decompose",
    "count_profile",
    "weyl_fit",
    "trapped_quasiprojector",
    "residual_decay",
    "effective_hamiltonian",
    "match_spectra",
]

MatrixLike = Union[np.ndarray, QuantizedMap]


def _as_matrix(m: MatrixLike) -> np.ndarray:
    matrix = m.matrix if isinstance(m, QuantizedMap) else np.asarray(m)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    return matrix


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by descending modulus (ties: by real, then imag),
    so the spectral radius is abs(eigenvalues[0]).

    backward_error is an a priori bound c*N*eps*||M||_F on the backward
    error of the QR eigensolver: each computed eigenvalue is exact for
    some matrix within that distance of the input.
    """

    eigenvalues: np.ndarray
    vectors: Optional[np.ndarray]
    backward_error: float

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]


def _qr_bound(N: int, frobenius: float) -> float:
    """The a priori backward error bound 4 N eps ||M||_F of QR on an
    N x N matrix M with Frobenius norm frobenius."""
    return 4.0 * N * np.finfo(float).eps * frobenius


def _core(M: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The exact core of M and the sweeps that deflate everything else.

    Sweep i drops every index whose column is zero on the rows still
    active after sweep i-1; the core is what no sweep drops.  Each sweep
    scans the boolean mask of the active submatrix, which shrinks as
    indices drop: O(N^2) for a standard map, and for a Walsh map, whose
    active set shrinks by the factor n/D per sweep.
    """
    nonzero = M != 0
    index = np.arange(M.shape[0])
    sweeps = []
    while True:
        empty = ~nonzero.any(axis=0)
        if not empty.any():
            return index, sweeps
        sweeps.append(index[empty])
        index = index[~empty]
        nonzero = nonzero[~empty][:, ~empty]


def _lift(M: np.ndarray, core: np.ndarray, sweeps: Sequence[np.ndarray],
          Y: np.ndarray, values: np.ndarray, V: np.ndarray) -> None:
    """Write into V the unit eigenvectors of M that lift the eigenpairs
    (values, Y) of M[core, core].

    The eigenvector of M is [u; y] with (lam - Nil) u = X y, in the order
    of the module docstring.  The rows of sweep i meet only the columns
    still active after it, so u is found by back substitution from the
    last sweep to the first: u_i = M[sweep_i, active_i] [u_{>i}; y] / lam.
    In exact arithmetic this is v <- M v / lam iterated p times from y
    padded with zeros, one sweep at a time.  A core eigenvalue that is
    exactly 0 keeps y padded with zeros.
    """
    V[core] = Y
    active = core
    for drop in reversed(sweeps):
        rows = M[np.ix_(drop, active)] @ V[active]
        V[drop] = np.divide(rows, values, out=np.zeros_like(rows),
                            where=values != 0)
        active = np.concatenate([drop, active])
    V /= np.linalg.norm(V, axis=0)


def eigen_decompose(matrix: MatrixLike, want_vectors: bool = False) -> Spectrum:
    """Full nonhermitian eigendecomposition with deterministic ordering.

    QR runs on the exact core block M[K, K] alone (see the module
    docstring); the spectrum is its eigenvalues padded with N - |K|
    exact zeros.  With want_vectors, each core eigenvector is lifted to
    a unit eigenvector of M, and each dropped index j gets e_j, in sweep
    order; the N x N array is built once, in the sorted order.  The
    backward error bound is taken on the full M: the zeros are exact,
    and M[K, K] is a submatrix of M, so QR's backward error on it is
    within the bound.
    """
    M = _as_matrix(matrix)
    N = M.shape[0]
    if N > DENSE_GUARD:
        raise DimensionGuard(f"N={N} exceeds dense eigensolver guard {DENSE_GUARD}")
    bound = _qr_bound(N, float(np.linalg.norm(M, "fro")))
    # LAPACK refuses non-finite input; the dropped part must not let one by
    if not math.isfinite(bound):
        raise SolverFailure("eigensolver input has a non-finite entry or norm")
    core, sweeps = _core(M)
    try:
        if want_vectors:
            values, Y = np.linalg.eig(M[np.ix_(core, core)])
        else:
            values = np.linalg.eigvals(M[np.ix_(core, core)])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR rarely fails
        raise SolverFailure(f"eigensolver did not converge: {exc}") from exc

    k = core.size
    values = np.concatenate([values, np.zeros(N - k, dtype=values.dtype)])
    order = np.lexsort((values.imag, values.real, -np.abs(values)))
    values = values[order]
    vectors = None
    if want_vectors:
        # the padded zeros sort last and stably, so the core eigenvalues
        # take the first k places and the dropped indices the rest
        vectors = np.zeros((N, N), dtype=np.result_type(M, Y))
        _lift(M, core, sweeps, Y[:, order[:k]], values[:k], vectors[:, :k])
        if sweeps:
            vectors[np.concatenate(sweeps), np.arange(k, N)] = 1.0
    return Spectrum(values, vectors, bound)


@dataclass(frozen=True)
class CountReport:
    """Disk counts C(N, r) = #{ |lambda| >= r } over a radius grid.

    rescaled stores C / N^nu; under the fractal Weyl law these collapse
    onto an N-independent profile for fixed r.  spectral_radius is the
    largest modulus (0 for an empty spectrum).
    """

    dimension: int
    nu: float
    radii: np.ndarray
    counts: np.ndarray
    rescaled: np.ndarray
    spectral_radius: float


def _check_radii(r_grid: Sequence[float]) -> np.ndarray:
    """The counting radii as a float array: nonempty, 1-D, each in
    (0, 1.1], strictly ascending.  Raises ValueError otherwise."""
    radii = np.asarray(r_grid, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError("radius grid must be a nonempty 1-D sequence")
    if not (np.all(radii > 0.0) and np.all(radii <= 1.1)):
        raise ValueError("radii must lie in (0, 1.1]")
    if radii.size > 1 and not np.all(np.diff(radii) > 0):
        raise ValueError("radius grid must be strictly ascending")
    return radii


def _check_nu(nu: float) -> float:
    """The rescaling exponent as a float in [0, 1], the range of the Weyl
    exponent.  Raises ValueError otherwise."""
    nu = float(nu)
    if not 0.0 <= nu <= 1.0:
        raise ValueError(f"nu must lie in [0, 1], got {nu}")
    return nu


def count_profile(spectrum: Union[Spectrum, np.ndarray],
                  r_grid: Sequence[float],
                  nu: float) -> CountReport:
    """Count eigenvalues of modulus >= r over an ascending grid in (0, 1.1],
    rescaled by N^nu with nu in [0, 1]."""
    eigenvalues = (spectrum.eigenvalues if isinstance(spectrum, Spectrum)
                   else np.asarray(spectrum))
    radii = _check_radii(r_grid)
    nu = _check_nu(nu)

    moduli = np.sort(np.abs(eigenvalues))
    counts = moduli.size - np.searchsorted(moduli, radii, side="left")
    N = eigenvalues.shape[0]
    return CountReport(
        dimension=N,
        nu=nu,
        radii=radii,
        counts=counts.astype(np.int64),
        rescaled=counts / float(N) ** nu,
        spectral_radius=float(moduli[-1]) if N else 0.0,
    )


@dataclass(frozen=True)
class WeylFit:
    """Least-squares fit of log C(N, r) = nu_hat * log N + const."""

    radius: Optional[float]
    nu_hat: float
    log_prefactor: float
    residual_stderr: float
    samples_used: Tuple[Tuple[int, int], ...]
    samples_dropped: Tuple[Tuple[int, int], ...]


def weyl_fit(samples: Sequence[Tuple[int, float]],
             radius: Optional[float] = None) -> WeylFit:
    """Fit the counting exponent from (dimension, count) samples.

    Counts below 1 carry no logarithm and are dropped; at least three
    samples over at least two distinct dimensions must survive.
    """
    # counts may be non-integer (e.g. averaged over boundary phases)
    used = tuple((int(n), float(c)) for n, c in samples if c >= 1)
    dropped = tuple((int(n), float(c)) for n, c in samples if c < 1)
    if len(used) < 3:
        raise InsufficientSamples(
            f"need >= 3 samples with count >= 1, have {len(used)}")
    if len({n for n, _ in used}) < 2:
        raise InsufficientSamples("need samples at >= 2 distinct dimensions")

    log_n = np.array([math.log(n) for n, _ in used])
    log_c = np.array([math.log(c) for _, c in used])
    slope, intercept = np.polyfit(log_n, log_c, 1)
    fitted = slope * log_n + intercept
    rss = float(np.sum((log_c - fitted) ** 2))
    dof = len(used) - 2
    stderr = math.sqrt(rss / dof) if dof > 0 else 0.0
    return WeylFit(radius, float(slope), float(intercept), stderr, used, dropped)


# ---------------------------------------------------------------------------
# trapped-region projectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Quasiprojector:
    """0/1 diagonal marking lattice points j/N inside a level-m strip cover."""

    diagonal: np.ndarray
    level: int
    rank: int


def trapped_quasiprojector(spec: BakerSpec, config: QuantizationConfig,
                           level: int) -> Quasiprojector:
    """Diagonal quasiprojector onto the level-m cover of the x-Cantor set.

    Level 0 is the identity.  Membership j/N in a strip is decided in
    exact rational arithmetic; a strip narrower than the lattice spacing
    (no index at all) raises CoverTooFine, since the projector would
    silently stop resolving the cover.  Rank is exactly N (sum ell)^m
    whenever every strip width is a lattice multiple.  N above DENSE_GUARD
    raises DimensionGuard before the diagonal is allocated.
    """
    N = config.dimension
    if N > DENSE_GUARD:
        raise DimensionGuard(f"N={N} exceeds dense guard {DENSE_GUARD}")
    _block_sizes(spec, N)  # raises DivisibilityError unless N*ell_i are integers
    if level == 0:
        return Quasiprojector(np.ones(N), 0, N)
    if level < 0:
        raise ValueError("cover level must be >= 0")

    diag = np.zeros(N)
    strips = trapped_cover(spec, level, "K_minus").x_intervals
    den = strips.den
    for lo, hi in zip(strips.los, strips.his):
        # ceil(lo N / den) by integer floor division
        j_lo = -(-lo * N // den)
        j_hi = -(-hi * N // den)
        if j_hi <= j_lo:
            raise CoverTooFine(
                f"strip [{Fraction(lo, den)}, {Fraction(hi, den)}) holds no "
                f"lattice point at N={N}; lower the level or raise N")
        diag[j_lo:j_hi] = 1.0
    return Quasiprojector(diag, level, int(diag.sum()))


def _split(M: np.ndarray, projector: np.ndarray):
    """Validate a projector and return (M', kept, rest): M in a basis where
    the projector is diagonal, with the indices of its range and kernel.

    A 0/1 diagonal vector leaves M as it is.  A Hermitian idempotent
    matrix rotates M once, M' = Q^* M Q with Q = [V W] from eigh, so that
    ran(Pi) is spanned by the leading rank(Pi) coordinates.
    """
    N = M.shape[0]
    P = np.asarray(projector)
    if P.ndim == 1:
        if P.shape != (N,):
            raise ValueError(f"diagonal projector length {P.shape} != {N}")
        if not np.all((P == 0.0) | (P == 1.0)):
            raise ValueError("diagonal projector entries must be exactly 0 or 1")
        return M, np.flatnonzero(P == 1.0), np.flatnonzero(P == 0.0)
    if P.shape != (N, N):
        raise ValueError(f"projector shape {P.shape} incompatible with N={N}")
    if np.linalg.norm(P - P.conj().T, "fro") > 1e-8:
        raise ValueError("projector matrix is not Hermitian")
    if np.linalg.norm(P @ P - P, "fro") > 1e-8:
        raise ValueError("projector matrix is not idempotent")
    values, vectors = np.linalg.eigh(P)
    if not np.all((np.abs(values) < 1e-6) | (np.abs(values - 1.0) < 1e-6)):
        raise ValueError("projector eigenvalues are not 0/1")
    ones = values > 0.5
    Q = np.concatenate([vectors[:, ones], vectors[:, ~ones]], axis=1)
    rank = int(ones.sum())
    return Q.conj().T @ M @ Q, np.arange(rank), np.arange(rank, N)


def _blocks(M: np.ndarray, projector: np.ndarray):
    """Blocks (A, B, C, D) = (M[P, P], M[P, J], M[J, P], M[J, J]) of M in
    the ran(Pi) + ker(Pi) splitting, cut to the bulk indices J whose
    column of M is nonzero on any row: a bulk column that is zero on the
    bulk rows alone still feeds B, so it stays in J."""
    M, kept, rest = _split(M, projector)
    J = np.intersect1d(rest, _nonzero_columns(M))
    return (M[np.ix_(kept, kept)], M[np.ix_(kept, J)],
            M[np.ix_(J, kept)], M[np.ix_(J, J)])


def _nonzero_columns(matrix: np.ndarray) -> np.ndarray:
    """Indices of the columns of a matrix that hold a nonzero entry."""
    return np.flatnonzero(np.any(matrix != 0, axis=0))


def _check_m_max(m_max: int) -> None:
    if not 1 <= m_max <= 12:
        raise ValueError(f"m_max must be in 1..12, got {m_max}")


def _check_probes(probes: Sequence[complex]) -> None:
    """E(lam) divides by lam^2, so each |lam|^2 must be a finite float."""
    bound = math.sqrt(sys.float_info.max)
    for z in map(complex, probes):
        modulus = math.hypot(z.real, z.imag)  # abs(z) raises past float max
        if not math.isfinite(modulus * modulus):
            raise ValueError(f"probe modulus {modulus:.6g} has no finite square: "
                             f"it must stay below sqrt(float max) = {bound:.6g}")


def residual_decay(matrix: MatrixLike, projector: np.ndarray,
                   m_max: int = 6) -> Tuple[float, ...]:
    """Operator norms ||(I - Pi) M^m||_2 for m = 1..m_max (m_max <= 12).

    Decay of this sequence is what licenses truncating the dynamics to
    ran(Pi): mass leaving the cover is never re-injected.

    An open map M = U Pi vanishes outside its nonzero columns nz, and so
    does every power: M^m[:, nz] = M^{m-1}[:, nz] M[nz, nz].  The powers
    are iterated on these N x |nz| blocks; the zero columns leave the
    2-norm unchanged.  nz is read off the matrix, so a dense input with
    no zero column, or one rotated by a matrix projector, takes the same
    path.
    """
    _check_m_max(m_max)
    M, _, rest = _split(_as_matrix(matrix), projector)
    nz = _nonzero_columns(M)
    step = M[np.ix_(nz, nz)]

    norms = []
    power = M[:, nz]
    for m in range(1, m_max + 1):
        complement = power[rest]
        norms.append(float(np.linalg.norm(complement, 2)) if complement.size else 0.0)
        if m < m_max:
            power = power @ step
    return tuple(norms)


# ---------------------------------------------------------------------------
# effective Hamiltonian
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveHamiltonianReport:
    """Everything the Schur reduction produces at one (projector, radius).

    The determinant identity is checked at every probe; rel errors are
    |lhs/rhs - 1| computed in log space.  Outer eigenvalues (|lambda| >=
    radius) of the full map are re-derived as Newton-refined roots of
    det E and greedily matched within match_tol; clustered seeds (closer
    than match_tol to each other) make the greedy pairing ambiguous and
    are flagged rather than resolved.
    """

    dimension: int
    projector_rank: int
    bulk_spectral_radius: float
    radius: float
    probes: Tuple[complex, ...]
    identity_rel_errors: Tuple[float, ...]
    max_identity_rel_error: float
    outer_eigenvalues: Tuple[complex, ...]
    refined_roots: Tuple[complex, ...]
    match_distances: Tuple[float, ...]
    unmatched: int
    clustered: bool
    residual_norms: Tuple[float, ...]
    match_tol: float


def _solve_bulk(K: np.ndarray, X: np.ndarray, lam: complex) -> np.ndarray:
    """K^{-1} X for K = I - D/lam, refusing a singular or overflowing K."""
    try:
        Y = np.linalg.solve(K, X)
    except np.linalg.LinAlgError as exc:
        raise SingularResolvent(f"bulk resolvent singular at probe {lam}") from exc
    if not np.all(np.isfinite(Y)):
        raise SingularResolvent(f"bulk resolvent overflowed at probe {lam}")
    return Y


def _effective_pieces(A, B, C, D, lam, derivative=True):
    """E(lam) and, when asked, its lam-derivative (else None), from the
    cut blocks of :func:`_blocks`.  With K = I - D/lam,

        E  = I - A/lam - B K^{-1} C / lam^2,
        E' = A/lam^2 + 2 B K^{-1} C / lam^3 + B K^{-1} D K^{-1} C / lam^4,

    by two solves against K; its inverse is never formed.
    """
    E = np.eye(A.shape[0], dtype=complex) - A / lam
    K = np.eye(D.shape[0], dtype=complex) - D / lam
    KC = _solve_bulk(K, C, lam)
    BKC = B @ KC
    E -= BKC / lam ** 2
    if not derivative:
        return E, None
    BKDKC = B @ _solve_bulk(K, D @ KC, lam)
    dE = A / lam ** 2 + 2.0 * BKC / lam ** 3 + BKDKC / lam ** 4
    return E, dE


def _logdet(matrix: np.ndarray) -> complex:
    """log det as a complex number; -inf real part for singular input."""
    if matrix.size == 0:
        return 0.0 + 0.0j
    sign, logabs = np.linalg.slogdet(matrix)
    if sign == 0:
        return complex(-np.inf, 0.0)
    return complex(logabs, np.angle(sign))


def match_spectra(reference: Sequence[complex], candidate: Sequence[complex],
                  tol: float):
    """Greedy nearest pairing of two spectra.

    Returns (pairs, unmatched_reference, unmatched_candidate) where pairs
    are (ref, cand, distance) triples with distance <= tol.  Greedy
    matching is unambiguous only when reference points are pairwise
    separated by more than tol; callers should flag clusters.
    """
    cand = list(candidate)
    pairs = []
    unmatched_ref = []
    for z in reference:
        if not cand:
            unmatched_ref.append(z)
            continue
        dist = [abs(z - w) for w in cand]
        jmin = int(np.argmin(dist))
        if dist[jmin] <= tol:
            pairs.append((z, cand.pop(jmin), dist[jmin]))
        else:
            unmatched_ref.append(z)
    return pairs, unmatched_ref, cand


def effective_hamiltonian(matrix: MatrixLike, projector: np.ndarray,
                          probes: Sequence[complex], radius: float,
                          m_max: int = 6,
                          match_tol: float = 1e-6) -> EffectiveHamiltonianReport:
    """Schur-complement reduction onto ran(Pi), verified two ways.

    First the determinant identity det(I - M/lam) = det E(lam) *
    det(I - D/lam) is checked at each probe.  Then every eigenvalue of M
    with |lambda| >= radius is re-derived as a root of det E by Newton
    iteration lam <- lam - 1/tr(E^{-1} E') started at the eigenvalue,
    and matched back.  Both probes and radius must stay outside the bulk
    spectrum by a 1e-6 margin, else the reduction is meaningless and
    ProbeInsideBulkSpectrum is raised.
    """
    probes = tuple(complex(p) for p in probes)
    if not probes:
        raise ValueError("the determinant identity needs at least one probe")
    _check_probes(probes)
    _check_m_max(m_max)
    M = _as_matrix(matrix)
    N = M.shape[0]
    A, B, C, D = _blocks(M, projector)
    rank = A.shape[0]

    # the bulk radius and det(I - D/lam) are those of the cut block D
    r_bulk = float(np.abs(np.linalg.eigvals(D)).max(initial=0.0))
    margin = r_bulk + 1e-6
    for p in probes:
        if abs(p) <= margin:
            raise ProbeInsideBulkSpectrum(
                f"probe {p} has modulus {abs(p):.6g} <= bulk radius "
                f"{r_bulk:.6g} + 1e-6")
    if radius <= margin:
        raise ProbeInsideBulkSpectrum(
            f"radius {radius} <= bulk radius {r_bulk:.6g} + 1e-6")

    # --- determinant identity at the probes; the full N x N determinant
    # is the independent side ---
    eye_j = np.eye(D.shape[0], dtype=complex)
    rel_errors = []
    for lam in probes:
        E, _ = _effective_pieces(A, B, C, D, lam, derivative=False)
        full = M / -lam
        full.flat[::N + 1] += 1.0  # I - M/lam without an N x N identity
        log_full = _logdet(full)
        log_eff = _logdet(E)
        log_bulk = _logdet(eye_j - D / lam)
        lhs_singular = log_full.real == -np.inf
        rhs_singular = (log_eff.real == -np.inf) or (log_bulk.real == -np.inf)
        if lhs_singular and rhs_singular:
            rel_errors.append(0.0)
        elif lhs_singular or rhs_singular:
            rel_errors.append(np.inf)
        else:
            delta = log_full - (log_eff + log_bulk)
            rel_errors.append(float(abs(np.exp(delta) - 1.0))
                              if delta.real < 700.0 else np.inf)

    # --- outer spectrum as roots of det E ---
    spectrum = eigen_decompose(M)
    moduli = np.abs(spectrum.eigenvalues)
    outer = tuple(complex(z) for z in spectrum.eigenvalues[moduli >= radius])

    roots = []
    for seed in outer:
        lam = seed
        for _ in range(60):
            try:
                E, dE = _effective_pieces(A, B, C, D, lam)
                trace = np.trace(np.linalg.solve(E, dE))
            except (SingularResolvent, np.linalg.LinAlgError):
                break  # det E vanished (or resolvent blew up): lam is the root
            if trace == 0:
                break
            delta = 1.0 / trace
            nxt = lam - delta
            if abs(nxt) <= margin or not np.isfinite(nxt):
                break  # refinement left the annulus of validity; keep lam
            lam = nxt
            if abs(delta) <= 1e-13 * max(1.0, abs(lam)):
                break
        roots.append(complex(lam))

    pairs, unmatched_ref, _ = match_spectra(outer, roots, match_tol)
    distances = tuple(d for _, _, d in pairs)
    clustered = any(abs(a - b) <= match_tol
                    for i, a in enumerate(outer) for b in outer[i + 1:])

    return EffectiveHamiltonianReport(
        dimension=N,
        projector_rank=rank,
        bulk_spectral_radius=r_bulk,
        radius=float(radius),
        probes=probes,
        identity_rel_errors=tuple(rel_errors),
        max_identity_rel_error=max(rel_errors),
        outer_eigenvalues=outer,
        refined_roots=tuple(roots),
        match_distances=distances,
        unmatched=len(unmatched_ref),
        clustered=clustered,
        residual_norms=residual_decay(M, projector, m_max),
        match_tol=match_tol,
    )
