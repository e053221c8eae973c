"""Quantizations of the open baker map: standard (Fourier) and Walsh.

The standard recipe quantizes the closed D-symbol baker on the
N-dimensional position lattice {j/N} as

    U_N = F_N^{-1} . blockdiag(F_{N ell_0}, ..., F_{N ell_{D-1}}),

where F_* are (generalized) discrete Fourier transforms and the block
sizes N*ell_i must be integers.  Opening the map multiplies from the
right by the 0/1 position projector Pi onto the kept rectangles:
M_N = U_N Pi.  No Fourier matrix is formed: U_N = apply(I) at
O(N^2 log N), each F_* applied as one FFT between two diagonal twiddles.
M_N is a partial isometry: its singular values are exactly
N*sum(ell_kept) ones and the rest zeros, so all eigenvalues lie in the
closed unit disk and model resonances with lifetimes
tau_j = -2 log|lambda_j|.

The Walsh variant replaces F_N by its Walsh-Fourier analogue on the
tensor space (C^D)^{otimes k}, N = D^k.  Writing basis states as words
of k digits, one application of the open map shifts the word by one
digit and recycles the leading digit through the D x D matrix Omega_D
(the inverse DFT with the removed columns zeroed):

    e_{d0} ox e_{d1} ox ... ox e_{d_{k-1}}
        |->  e_{d1} ox ... ox e_{d_{k-1}} ox (Omega_D e_{d0}).

As in the standard map, the dense matrix is M = apply(I), here built
from this digit-shift apply at O(D N^2).  It makes
M^k = Omega_D^{otimes k} exactly.  That identity is asserted at
construction over the whole N x N matrix, with M^k formed by k-1
further applications at O(k D N^2).  It reduces the nontrivial
spectrum to the keep x keep sub-block OmegaTilde_D: n^k nonzero
eigenvalues whose moduli are products |mu_1|^{a/k} |mu_2|^{(k-a)/k} of
the sub-block eigenvalue moduli, hence a k-independent spectral radius
and a counting step at r_c = |det OmegaTilde_D|^{1/n}.

Bloch phases: the plain DFT (theta = (0,0)) matches the displayed
quantization; the antiperiodic choice (1/2, 1/2) is the convention under
which the parity operator R: j -> N-1-j commutes with U_N exactly, which
parity_split checks rather than assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .classical import BakerSpec, spec_digest, symmetric_spec
from .errors import (
    AsymmetricSpec,
    DimensionGuard,
    DivisibilityError,
    EndpointMismatch,
    LengthMismatch,
    ParityNotExact,
    SolverFailure,
)

__all__ = [
    "DENSE_GUARD",
    "QuantizationConfig",
    "QuantizedMap",
    "OpenQuantization",
    "WalshModel",
    "quantize_open",
    "walsh_open",
    "parity_split",
    "apply_diagonal_phases",
]

# Dense complex storage and O(N^3) factorizations cap the practical size.
DENSE_GUARD = 5000


@dataclass(frozen=True)
class QuantizationConfig:
    """Quantum dimension N = (2 pi hbar)^{-1} plus Bloch boundary phases."""

    dimension: int
    bloch: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionGuard(f"dimension must be >= 1, got {self.dimension}")
        tx, txi = self.bloch
        if not (0 <= tx < 1 and 0 <= txi < 1):
            raise ValueError(f"bloch phases must lie in [0,1)^2, got {self.bloch}")


@dataclass(frozen=True)
class QuantizedMap:
    """A dense matrix tagged with enough provenance to interpret it.

    kind is one of 'closed_unitary', 'open_standard', 'open_walsh'.
    block_sizes records the integer widths N*ell_i of the quantized
    Markov rectangles (None for Walsh models, which have no position
    blocks).  The matrix is treated as immutable by convention.
    """

    matrix: np.ndarray
    kind: str
    digest: str
    keep: Tuple[int, ...]
    block_sizes: Optional[Tuple[int, ...]]
    bloch: Tuple[float, float]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class OpenQuantization:
    """The (U, Pi, M) triple produced by quantize_open."""

    unitary: QuantizedMap
    projector: np.ndarray  # 0/1 diagonal, length N
    open_map: QuantizedMap


def _gdft_apply(X: np.ndarray, bloch: Tuple[float, float],
                inverse: bool = False) -> np.ndarray:
    """F X, or F^* X when inverse, along axis 0 of an (n, m) block X.

    The generalized DFT F[j,k] = n^{-1/2} e^{-2 pi i (j+theta_xi)(k+theta_x)/n}
    is one orthonormal FFT between the input twiddle e^{-2 pi i theta_xi k/n}
    and the output twiddle e^{-2 pi i (j+theta_xi) theta_x/n}; F^* runs the
    conjugate twiddles in reverse order around the inverse FFT.
    """
    n = X.shape[0]
    if n < 1:
        raise ValueError(f"a generalized DFT needs n >= 1, got {n}")
    theta_x, theta_xi = bloch
    idx = np.arange(n)[:, None]
    twiddle_in = np.exp((-2j * np.pi / n) * theta_xi * idx)
    twiddle_out = np.exp((-2j * np.pi / n) * (idx + theta_xi) * theta_x)
    if inverse:
        return twiddle_in.conj() * np.fft.ifft(twiddle_out.conj() * X, axis=0,
                                               norm="ortho")
    return twiddle_out * np.fft.fft(twiddle_in * X, axis=0, norm="ortho")


def _block_sizes(spec: BakerSpec, N: int) -> Tuple[int, ...]:
    sizes = []
    for i, ell in enumerate(spec.lengths):
        width = ell * N
        if width.denominator != 1:
            raise DivisibilityError(
                f"N={N} is incompatible with ell_{i}={ell}: N*ell not an integer")
        sizes.append(int(width))
    if sum(sizes) != N:
        raise EndpointMismatch(f"block sizes {sizes} do not sum to N={N}")
    return tuple(sizes)


def quantize_open(spec: BakerSpec, config: QuantizationConfig) -> OpenQuantization:
    """Standard quantization U = F_N^dagger . blockdiag(F_{N ell_i}),
    opened by the diagonal projector onto kept-position indices."""
    N = config.dimension
    if N > DENSE_GUARD:
        raise DimensionGuard(f"N={N} exceeds dense guard {DENSE_GUARD}")
    sizes = _block_sizes(spec, N)

    inner = np.zeros((N, N), dtype=complex)
    offset = 0
    for size in sizes:
        inner[offset:offset + size, offset:offset + size] = _gdft_apply(
            np.eye(size), config.bloch)
        offset += size
    U = _gdft_apply(inner, config.bloch, inverse=True)

    diag = np.zeros(N)
    offset = 0
    for i, size in enumerate(sizes):
        if i in spec.keep:
            diag[offset:offset + size] = 1.0
        offset += size

    digest = spec_digest(spec)
    unitary = QuantizedMap(U, "closed_unitary", digest, spec.keep, sizes, config.bloch)
    open_map = QuantizedMap(U * diag[None, :], "open_standard",
                            digest, spec.keep, sizes, config.bloch)
    return OpenQuantization(unitary=unitary, projector=diag, open_map=open_map)


# ---------------------------------------------------------------------------
# Walsh tensor model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalshModel:
    """Walsh-quantized open baker on (C^D)^{otimes k}."""

    branch_count: int
    keep: Tuple[int, ...]
    word_length: int
    omega: np.ndarray        # D x D, inverse DFT with removed columns zeroed
    omega_tilde: np.ndarray  # n x n keep-rows x keep-columns sub-block
    open_map: QuantizedMap   # D^k x D^k

    @property
    def dimension(self) -> int:
        return self.branch_count ** self.word_length


def _walsh_omega(D: int, keep: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Omega_D and its keep x keep extraction OmegaTilde_D.

    Convention: the inverse unitary DFT has entries D^{-1/2} e^{+2 pi i jk/D};
    removed columns are zeroed (not deleted) so Omega_D stays square with a
    (D-n)-dimensional kernel.
    """
    j = np.arange(D)[:, None]
    k = np.arange(D)[None, :]
    f_star = np.exp(2j * np.pi * j * k / D) / np.sqrt(D)
    omega = f_star.copy()
    removed = [c for c in range(D) if c not in keep]
    omega[:, removed] = 0.0
    keep_idx = np.asarray(sorted(keep))
    omega_tilde = f_star[np.ix_(keep_idx, keep_idx)]
    return omega, omega_tilde


def _walsh_apply(omega: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M @ X for an (N, m) block X, at O(D N m) cost.

    Rows are big-endian digit words (d0 d1 ... d_{k-1}): the leading digit
    is recycled through Omega_D, then moved to the end of the word.
    """
    D = omega.shape[0]
    N, m = X.shape
    recycled = np.tensordot(omega, X.reshape(D, N // D, m), axes=(1, 0))
    return np.moveaxis(recycled, 0, 1).reshape(N, m)


def walsh_open(D: int, keep: Sequence[int], k: int) -> WalshModel:
    """Build the Walsh model and assert its defining power identity.

    The dense map is M = apply(I), where apply shifts the digit word left
    and feeds the recycled leading digit through Omega_D.  k applications
    touch every digit once, so M^k = Omega_D^{otimes k} must hold to 1e-12
    in max norm over all N^2 entries (checked).  M^k is formed by k-1
    further applications, at O(k D N^2).
    """
    spec = symmetric_spec(D, keep)  # validates D/keep and gives the digest
    keep_t = spec.keep
    if k < 1:
        raise ValueError(f"word length k must be >= 1, got {k}")
    N = D ** k
    if N > DENSE_GUARD:
        raise DimensionGuard(f"D^k = {N} exceeds dense guard {DENSE_GUARD}")

    omega, omega_tilde = _walsh_omega(D, keep_t)

    M = _walsh_apply(omega, np.eye(N, dtype=complex))
    # BLAS leaves -0.0 where Omega meets the identity's zeros; adding +0.0
    # turns them into +0.0, so M has the bits of a direct entry scatter
    M += 0.0
    power = M
    for _ in range(k - 1):
        power = _walsh_apply(omega, power)
    tensor = omega.copy()
    for _ in range(k - 1):
        tensor = np.kron(tensor, omega)
    defect = np.abs(power - tensor).max()
    if not defect <= 1e-12:
        raise SolverFailure(f"Walsh power identity violated: max defect {defect:.3e}")

    qmap = QuantizedMap(M, "open_walsh", spec_digest(spec), keep_t, None, (0.0, 0.0))
    return WalshModel(D, keep_t, k, omega, omega_tilde, qmap)


# ---------------------------------------------------------------------------
# symmetry and perturbations
# ---------------------------------------------------------------------------

def parity_split(qmap: QuantizedMap) -> Tuple[np.ndarray, np.ndarray, float]:
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
    from .spectral import match_spectra  # spectral imports this module

    full = np.sort_complex(np.linalg.eigvals(M))
    parts = np.sort_complex(np.concatenate([
        np.linalg.eigvals(m_even), np.linalg.eigvals(m_odd)]))
    _, lost, extra = match_spectra(full, parts, tol=1e-6)
    unmatched = len(lost) + len(extra)
    if unmatched:
        raise SolverFailure(
            f"parity blocks lost {unmatched} eigenvalues beyond tolerance 1e-6")
    return m_even, m_odd, commutator_norm


def apply_diagonal_phases(qmap: Union[QuantizedMap, np.ndarray],
                          phases: Optional[Sequence[float]] = None,
                          seed: Optional[int] = None):
    """Left-multiply by diag(e^{i phi_j}); singular values are untouched.

    Either pass explicit angles or a seed for reproducible uniform ones.
    Accepts a QuantizedMap (returned as a QuantizedMap of the same kind)
    or a bare matrix (returned as a matrix).
    """
    matrix = qmap.matrix if isinstance(qmap, QuantizedMap) else np.asarray(qmap)
    N = matrix.shape[0]
    if phases is None:
        if seed is None:
            raise LengthMismatch("provide either explicit phases or a seed")
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=N)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (N,):
        raise LengthMismatch(f"need {N} phases, got shape {phases.shape}")
    rotated = np.exp(1j * phases)[:, None] * matrix
    if isinstance(qmap, QuantizedMap):
        return QuantizedMap(rotated, qmap.kind, qmap.digest, qmap.keep,
                            qmap.block_sizes, qmap.bloch)
    return rotated
