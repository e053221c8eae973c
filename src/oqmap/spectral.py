"""Spectral analysis of quantized open maps.

Everything here works on dense complex matrices: nonunitary spectra are
computed with the standard QR eigensolver, counted inside shrinking
disks, rescaled by the fractal Weyl exponent N^nu, fitted for that
exponent across dimensions, and reduced to the trapped-region effective
Hamiltonian through an exact Schur-complement determinant identity

    det(I - 1/lam M) = det(E(lam)) * det(I - 1/lam (I-Pi) M),
    E(lam) = I - 1/lam A - 1/lam^2 B (I - 1/lam D)^{-1} C,

where A = Pi M Pi, B = Pi M (I-Pi), C = (I-Pi) M Pi, D = (I-Pi) M (I-Pi)
are the blocks of M in the splitting ran(Pi) + ran(I-Pi).  Outside the
bulk spectrum (the eigenvalues of D) the factor (I - 1/lam D) is
invertible, so every resonance with |lam| > r_bulk is exactly a zero of
det E on the rank(Pi)-dimensional trapped subspace.

An open map M = U Pi vanishes outside its kept columns, and so do D and
every power of M.  The reduction and the residual norms run on those
columns only: the bulk resolvent is applied through one solve with the
J x J block of D on its nonzero columns J, the bulk radius and bulk
determinant come from that block (Sylvester's identity), and powers of
M are iterated on N x |nz| blocks.  The columns are read off the matrix,
so dense inputs take the same path.  The full N x N determinant
det(I - M/lam) stays the independent side of the identity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

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
    "spectral_radius",
    "lifetimes",
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
    """Eigenvalues sorted by descending modulus (ties: by real, then imag).

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


def eigen_decompose(matrix: MatrixLike, want_vectors: bool = False) -> Spectrum:
    """Full nonhermitian eigendecomposition with deterministic ordering."""
    M = _as_matrix(matrix)
    N = M.shape[0]
    if N > DENSE_GUARD:
        raise DimensionGuard(f"N={N} exceeds dense eigensolver guard {DENSE_GUARD}")
    try:
        if want_vectors:
            values, vectors = np.linalg.eig(M)
        else:
            values, vectors = np.linalg.eigvals(M), None
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR rarely fails
        raise SolverFailure(f"eigensolver did not converge: {exc}") from exc

    order = np.lexsort((values.imag, values.real, -np.abs(values)))
    values = values[order]
    if vectors is not None:
        vectors = vectors[:, order]
    bound = 4.0 * N * np.finfo(float).eps * float(np.linalg.norm(M, "fro"))
    return Spectrum(values, vectors, bound)


def spectral_radius(matrix: MatrixLike) -> float:
    """max |lambda|; for open maps this never exceeds 1 + backward error."""
    spectrum = eigen_decompose(matrix)
    return float(np.abs(spectrum.eigenvalues[0])) if spectrum.dimension else 0.0


def lifetimes(eigenvalues: np.ndarray) -> np.ndarray:
    """Resonance lifetimes tau = -2 log|lambda| (+inf at lambda = 0)."""
    moduli = np.abs(np.asarray(eigenvalues))
    with np.errstate(divide="ignore"):
        return -2.0 * np.log(moduli)


@dataclass(frozen=True)
class CountReport:
    """Disk counts C(N, r) = #{ |lambda| >= r } over a radius grid.

    rescaled stores C / N^nu; under the fractal Weyl law these collapse
    onto an N-independent profile for fixed r.
    """

    dimension: int
    nu: float
    radii: np.ndarray
    counts: np.ndarray
    rescaled: np.ndarray
    lifetimes: np.ndarray
    spectral_radius: float


def count_profile(spectrum: Union[Spectrum, np.ndarray],
                  r_grid: Sequence[float],
                  nu: float) -> CountReport:
    """Count eigenvalues of modulus >= r over an ascending grid in (0, 1.1]."""
    eigenvalues = (spectrum.eigenvalues if isinstance(spectrum, Spectrum)
                   else np.asarray(spectrum))
    radii = np.asarray(r_grid, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError("radius grid must be a nonempty 1-D sequence")
    if not (np.all(radii > 0.0) and np.all(radii <= 1.1)):
        raise ValueError("radii must lie in (0, 1.1]")
    if radii.size > 1 and not np.all(np.diff(radii) > 0):
        raise ValueError("radius grid must be strictly ascending")

    moduli = np.sort(np.abs(eigenvalues))
    counts = moduli.size - np.searchsorted(moduli, radii, side="left")
    N = eigenvalues.shape[0]
    return CountReport(
        dimension=N,
        nu=float(nu),
        radii=radii,
        counts=counts.astype(np.int64),
        rescaled=counts / float(N) ** nu,
        lifetimes=lifetimes(eigenvalues),
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
    whenever every strip width is a lattice multiple.
    """
    N = config.dimension
    _block_sizes(spec, N)  # raises DivisibilityError unless N*ell_i are integers
    if level == 0:
        return Quasiprojector(np.ones(N), 0, N)
    if level < 0:
        raise ValueError("cover level must be >= 0")

    diag = np.zeros(N)
    for lo, hi in trapped_cover(spec, level, "K_minus").x_intervals:
        j_lo = math.ceil(lo * N)
        j_hi = math.ceil(hi * N)
        if j_hi <= j_lo:
            raise CoverTooFine(
                f"strip [{lo}, {hi}) holds no lattice point at N={N}; "
                f"lower the level or raise N")
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
    """Blocks (A, B, C, D) of M in the ran(Pi) + ker(Pi) splitting."""
    M, kept, rest = _split(M, projector)
    return (M[np.ix_(kept, kept)], M[np.ix_(kept, rest)],
            M[np.ix_(rest, kept)], M[np.ix_(rest, rest)])


def _nonzero_columns(matrix: np.ndarray) -> np.ndarray:
    """Indices of the columns of a matrix that hold a nonzero entry."""
    return np.flatnonzero(np.any(matrix != 0, axis=0))


def _check_m_max(m_max: int) -> None:
    if not 1 <= m_max <= 12:
        raise ValueError(f"m_max must be in 1..12, got {m_max}")


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
    determinant_full: Tuple[complex, ...]
    determinant_effective: Tuple[complex, ...]
    determinant_bulk: Tuple[complex, ...]
    identity_rel_errors: Tuple[float, ...]
    max_identity_rel_error: float
    outer_eigenvalues: Tuple[complex, ...]
    refined_roots: Tuple[complex, ...]
    match_distances: Tuple[float, ...]
    unmatched: int
    clustered: bool
    residual_norms: Tuple[float, ...]
    match_tol: float


def _effective_pieces(A, B, C, D, lam, derivative=True):
    """E(lam) and, when asked, its lam-derivative (else None).

    The bulk resolvent R = (I - D/lam)^{-1} is never formed.  D vanishes
    off its nonzero columns J, so R X = X + D[:, J] K^{-1} X[J] / lam
    with K = I - D[J, J]/lam: one |J| x |J| solve against the columns
    of X.
    """
    k = A.shape[0]
    E = np.eye(k, dtype=complex) - A / lam
    if D.shape[0] == 0:
        return E, (A / lam ** 2 if derivative else None)
    J = _nonzero_columns(D)
    DJ = D[:, J]
    K = np.eye(J.size, dtype=complex) - DJ[J] / lam

    def resolve(X):
        if J.size == 0:
            return X
        try:
            Y = np.linalg.solve(K, X[J])
        except np.linalg.LinAlgError as exc:
            raise SingularResolvent(f"bulk resolvent singular at probe {lam}") from exc
        if not np.all(np.isfinite(Y)):
            raise SingularResolvent(f"bulk resolvent overflowed at probe {lam}")
        return X + DJ @ Y / lam

    RC = resolve(C)
    BRC = B @ RC
    E -= BRC / lam ** 2
    if not derivative:
        return E, None
    BRDRC = B @ resolve(DJ @ RC[J])
    dE = A / lam ** 2 + 2.0 * BRC / lam ** 3 + BRDRC / lam ** 4
    return E, dE


def _logdet(matrix: np.ndarray) -> complex:
    """log det as a complex number; -inf real part for singular input."""
    if matrix.size == 0:
        return 0.0 + 0.0j
    sign, logabs = np.linalg.slogdet(matrix)
    if sign == 0:
        return complex(-np.inf, 0.0)
    return complex(logabs, np.angle(sign))


def _det_from_log(logdet: complex) -> complex:
    if logdet.real == -np.inf:
        return 0.0 + 0.0j
    if logdet.real > 700.0:  # exp would overflow; report the direction only
        return complex(np.inf, 0.0)
    return complex(np.exp(logdet))


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
    _check_m_max(m_max)
    M = _as_matrix(matrix)
    N = M.shape[0]
    A, B, C, D = _blocks(M, projector)
    rank = A.shape[0]

    # D vanishes off its nonzero columns J, so (Sylvester) the nonzero
    # eigenvalues of D and det(I - D/lam) are those of the J x J block
    J = _nonzero_columns(D)
    D_JJ = D[np.ix_(J, J)]
    eye_j = np.eye(J.size, dtype=complex)
    bulk_eigs = np.linalg.eigvals(D_JJ) if J.size else np.zeros(0, dtype=complex)
    r_bulk = float(np.abs(bulk_eigs).max()) if bulk_eigs.size else 0.0
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
    det_full, det_eff, det_bulk, rel_errors = [], [], [], []
    for lam in probes:
        E, _ = _effective_pieces(A, B, C, D, lam, derivative=False)
        full = M / -lam
        full.flat[::N + 1] += 1.0  # I - M/lam without an N x N identity
        log_full = _logdet(full)
        log_eff = _logdet(E)
        log_bulk = _logdet(eye_j - D_JJ / lam)
        det_full.append(_det_from_log(log_full))
        det_eff.append(_det_from_log(log_eff))
        det_bulk.append(_det_from_log(log_bulk))
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
        determinant_full=tuple(det_full),
        determinant_effective=tuple(det_eff),
        determinant_bulk=tuple(det_bulk),
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
