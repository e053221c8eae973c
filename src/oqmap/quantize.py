"""Quantizations of the open baker map: standard (Fourier) and Walsh.

The standard recipe quantizes the closed D-symbol baker on the
N-dimensional position lattice {j/N} as

    U_N = F_N^{-1} . blockdiag(F_{N ell_0}, ..., F_{N ell_{D-1}}),

where F_* are (generalized) discrete Fourier transforms and the block
sizes N*ell_i must be integers.  Opening the map multiplies from the
right by the 0/1 position projector Pi onto the kept rectangles:
M_N = U_N Pi.  No Fourier matrix is formed: M_N = apply(I[:, nz]) on the
kept columns nz at O(N |nz| log N), and U_N = apply(I) only on demand.
A spectrum needs only M_N[nz, nz], which holds M_N's eigenvalues but
N - |nz| exact zeros.  _kept_columns hands out M_N[:, nz] from the same
applies, 64 columns at a time, and _open_columns M_N itself; _joined
fills every dense array here from such chunks, one chunk at a time.
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

k applications make M^k = Omega_D^{otimes k} exactly.  That identity is
asserted at construction on all N^2 entries of M = apply(I), one column
block at a time (the words sharing their leading k // 2 digits), at
O(k D N^2) and O(N D^(k - k//2)) memory; no block is kept.  As in the
standard map, the dense M is derived from the apply only on demand.

The words of kept digits, n^k of them, form the exact core K.  M maps no
other word into K, and M^k = Omega_D^{otimes k} vanishes on every other
column, so over (the rest, K) M is block triangular with a nilpotent
diagonal block, and its spectrum is that of M[K, K] plus N - n^k exact
zeros.  M[K, K] is itself the digit-shift apply of the keep x keep
sub-block OmegaTilde_D on (C^n)^{otimes k}, built without M.  Its
eigenvalues have moduli that are products |mu_1|^{a/k} |mu_2|^{(k-a)/k}
of the sub-block eigenvalue moduli, hence a k-independent spectral
radius and a counting step at r_c = |det OmegaTilde_D|^{1/n}.

Bloch phases: the plain DFT (theta = (0,0)) matches the displayed
quantization; the antiperiodic choice (1/2, 1/2) is the convention under
which the parity operator R: j -> N-1-j commutes with U_N exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .classical import (
    DENSE_GUARD,
    BakerSpec,
    _power_exceeds,
    spec_digest,
    symmetric_spec,
)
from .errors import (
    DimensionGuard,
    DivisibilityError,
    EndpointMismatch,
    LengthMismatch,
    SolverFailure,
)

__all__ = [
    "QuantizationConfig",
    "QuantizedMap",
    "OpenQuantization",
    "WalshModel",
    "quantize_open",
    "walsh_open",
    "apply_diagonal_phases",
]

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
    """Pi and M = U Pi from quantize_open; .unitary builds U on each access."""

    projector: np.ndarray  # 0/1 diagonal, length N
    open_map: QuantizedMap

    @property
    def unitary(self) -> QuantizedMap:
        sizes, bloch = self.open_map.block_sizes, self.open_map.bloch
        N = sum(sizes)
        U = _joined((_block_inverse(sizes, i, bloch, lo, hi)
                     for i, lo, hi in _column_chunks(sizes)), N, N)
        return replace(self.open_map, kind="closed_unitary", matrix=U)


def _gdft_apply(X: np.ndarray, bloch: Tuple[float, float],
                inverse: bool = False, overwrite: bool = False) -> np.ndarray:
    """F X, or F^* X when inverse, along axis 0 of an (n, m) block X.

    The generalized DFT F[j,k] = n^{-1/2} e^{-2 pi i (j+theta_xi)(k+theta_x)/n}
    is one orthonormal FFT between the input twiddle e^{-2 pi i theta_xi k/n}
    and the output twiddle e^{-2 pi i (j+theta_xi) theta_x/n}; F^* runs the
    conjugate twiddles in reverse order around the inverse FFT.  With
    overwrite, X must be a complex array the caller no longer needs: the
    input twiddle scales it in place, one (n, m) transient fewer.
    """
    n = X.shape[0]
    if n < 1:
        raise ValueError(f"a generalized DFT needs n >= 1, got {n}")
    theta_x, theta_xi = bloch
    idx = np.arange(n)[:, None]
    twiddle_in = np.exp((-2j * np.pi / n) * theta_xi * idx)
    twiddle_out = np.exp((-2j * np.pi / n) * (idx + theta_xi) * theta_x)
    # np.multiply keeps the operand order of twiddle * X, whose bits
    # X * twiddle does not give; the outer twiddle scales the FFT's new
    # array in place
    scratch = X if overwrite else None
    if inverse:
        X = np.multiply(twiddle_out.conj(), X, out=scratch)
        out = np.fft.ifft(X, axis=0, norm="ortho")
        return np.multiply(twiddle_in.conj(), out, out=out)
    X = np.multiply(twiddle_in, X, out=scratch)
    out = np.fft.fft(X, axis=0, norm="ortho")
    return np.multiply(twiddle_out, out, out=out)


def _block_sizes(spec: BakerSpec, N: int) -> Tuple[int, ...]:
    """The block sizes N*ell_i, once N has passed the dense guard."""
    if N > DENSE_GUARD:
        raise DimensionGuard(f"N={N} exceeds dense guard {DENSE_GUARD}")
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


def _block_inverse(sizes: Tuple[int, ...], i: int, bloch: Tuple[float, float],
                   lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """U's columns lo..hi (default: all) of block i, N x (hi - lo): the
    inverse transform of an N x (hi - lo) slice holding those columns of
    F_{size_i} on the block's rows.  Both transforms act on each column
    alone, so a column's bits do not depend on lo and hi."""
    N, start, size = sum(sizes), sum(sizes[:i]), sizes[i]
    hi = size if hi is None else hi
    inner = np.zeros((N, hi - lo), dtype=complex)
    # np.eye(size, hi - lo, -lo) is I[:, lo:hi]
    inner[start:start + size] = _gdft_apply(np.eye(size, hi - lo, -lo), bloch)
    return _gdft_apply(inner, bloch, inverse=True, overwrite=True)


def _joined(chunks: Iterable[np.ndarray], rows: int, cols: int,
            take=slice(None)) -> np.ndarray:
    """The new rows x cols array of the chunks' columns, left to right,
    each chunk cut to its rows take and dropped before the next is drawn."""
    out = np.empty((rows, cols), dtype=complex)
    done = 0
    for chunk in chunks:
        out[:, done:done + chunk.shape[1]] = chunk[take]
        done += chunk.shape[1]
        del chunk  # freed before the next chunk is built, not after
    return out


def _column_chunks(sizes: Tuple[int, ...]) -> Iterator[Tuple[int, int, int]]:
    """(block i, lo, hi) for M's columns, left to right, 64 at a time:
    no chunk crosses a block boundary, so a block's last is narrower."""
    for i, size in enumerate(sizes):
        for lo in range(0, size, 64):
            yield i, lo, min(lo + 64, size)


def _kept_columns(spec: BakerSpec, config: QuantizationConfig
                  ) -> Tuple[np.ndarray, Iterator[np.ndarray]]:
    """(nz, chunks): the kept indices nz, ascending, and M[:, nz] as the
    N x 64 (or narrower) _column_chunks chunks of the kept blocks, left to
    right, from _block_inverse.

    M vanishes off its kept columns, so these chunks are all of M that is
    not zero.  The guards run before the call returns; each chunk is a
    new array, so a consumer that drops each one holds one at a time.
    """
    sizes = _block_sizes(spec, config.dimension)
    nz = np.concatenate([np.arange(sum(sizes[:i]), sum(sizes[:i + 1]))
                         for i in spec.keep])
    chunks = (_block_inverse(sizes, i, config.bloch, lo, hi)
              for i, lo, hi in _column_chunks(sizes) if i in spec.keep)
    return nz, chunks


def _kept_block(spec: BakerSpec, config: QuantizationConfig) -> np.ndarray:
    """M[nz, nz] for the kept indices nz, ascending, without the N x N M.

    This block carries M's whole spectrum but N - |nz| exact zeros.  Its
    columns are the _kept_columns chunks cut to the rows nz: the entries
    are M's bit for bit, and the transients are N x 64.
    """
    nz, chunks = _kept_columns(spec, config)
    return _joined(chunks, nz.size, nz.size, nz)


def _open_columns(spec: BakerSpec,
                  config: QuantizationConfig) -> Iterator[np.ndarray]:
    """M's columns, left to right, as the N x 64 (or narrower)
    _column_chunks chunks: a kept block's from _block_inverse, a removed
    block's +0.0.

    quantize_open joins them; each chunk is a new array, so a consumer
    holds one at a time.
    """
    sizes = _block_sizes(spec, config.dimension)
    for i, lo, hi in _column_chunks(sizes):
        yield (_block_inverse(sizes, i, config.bloch, lo, hi) if i in spec.keep
               else np.zeros((config.dimension, hi - lo), dtype=complex))


def quantize_open(spec: BakerSpec, config: QuantizationConfig) -> OpenQuantization:
    """M = U Pi, joined from the _open_columns chunks: the kept blocks'
    columns, and +0 in the rest."""
    N = config.dimension
    sizes = _block_sizes(spec, N)
    diag = np.repeat([float(i in spec.keep) for i in range(len(sizes))], sizes)
    open_map = QuantizedMap(_joined(_open_columns(spec, config), N, N),
                            "open_standard", spec_digest(spec), spec.keep, sizes,
                            config.bloch)
    return OpenQuantization(projector=diag, open_map=open_map)


# ---------------------------------------------------------------------------
# Walsh tensor model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalshModel:
    """Walsh-quantized open baker on (C^D)^{otimes k}.

    No N x N matrix is held.  .open_map builds M = apply(I), D^k x D^k,
    on each access.  .core lists the n^k words of kept digits, K, and
    .core_block is M[K, K], the same digit-shift apply with OmegaTilde_D
    on (C^n)^{otimes k}, built without M.
    """

    branch_count: int
    keep: Tuple[int, ...]
    word_length: int
    omega: np.ndarray        # D x D, inverse DFT with removed columns zeroed
    omega_tilde: np.ndarray  # n x n keep-rows x keep-columns sub-block
    digest: str

    @property
    def dimension(self) -> int:
        return self.branch_count ** self.word_length

    @property
    def open_map(self) -> QuantizedMap:
        k, N = self.word_length, self.dimension
        width = self.branch_count ** (k - k // 2)
        # np.eye(N, width, -b * width) is I[:, b * width:(b + 1) * width]
        M = _joined((_walsh_apply(self.omega,
                                  np.eye(N, width, -b * width, dtype=complex))
                     for b in range(N // width)), N, N)
        # BLAS leaves -0.0 where Omega meets the identity's zeros; adding
        # +0.0 turns them into +0.0, so M has the bits of a direct scatter
        M += 0.0
        return QuantizedMap(M, "open_walsh", self.digest, self.keep, None,
                            (0.0, 0.0))

    @property
    def core(self) -> np.ndarray:
        """K, ascending: the row indices of the words of kept digits."""
        words = np.zeros(1, dtype=int)
        for _ in range(self.word_length):
            words = (words[:, None] * self.branch_count + self.keep).ravel()
        return words

    @property
    def core_block(self) -> np.ndarray:
        """M[K, K]: the keep-digit words map among themselves by OmegaTilde_D."""
        n = len(self.keep) ** self.word_length
        block = _walsh_apply(self.omega_tilde, np.eye(n, dtype=complex))
        block += 0.0  # +0.0 for BLAS's -0.0, as in open_map
        return block


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
    in max norm over all N^2 entries (checked).

    The check runs one column block at a time and keeps no block.  Block b
    holds the columns whose leading t digits spell b, D^(k-t) of them,
    t being the smallest t >= k // 2 with D^(k-t) <= 64, the width of
    _column_chunks.  Its part of M is apply of that slice of I; k-1
    further applications give its part of M^k, which must equal
    kron(head_b, Omega_D^{otimes (k-t)}), head_b being the kron of
    Omega_D's columns for b's digits.  The work is O(k D N^2) and the
    memory O(N * 64); the model derives M only when .open_map is read.
    """
    if k < 1:
        raise ValueError(f"word length k must be >= 1, got {k}")
    if D >= 2 and _power_exceeds(D, k, DENSE_GUARD):
        raise DimensionGuard(
            f"D^k exceeds the dense guard {DENSE_GUARD} at D={D}, k={k}")
    spec = symmetric_spec(D, keep)  # validates D/keep and gives the digest
    keep_t = spec.keep

    omega, omega_tilde = _walsh_omega(D, keep_t)

    t = k // 2
    while D ** (k - t) > 64:
        t += 1
    width = D ** (k - t)
    tail = np.ones((1, 1))
    for _ in range(k - t):
        tail = np.kron(tail, omega)
    # one slice of I serves every block, its diagonal set and then
    # cleared: a fresh slice per block lets the allocator trim and refault
    # the heap, about 10x the page faults at D3 k=7
    identity = np.zeros((D ** k, width), dtype=complex)
    diagonal = np.arange(width)
    defect = 0.0
    for b in range(D ** t):
        rows = b * width + diagonal
        identity[rows, diagonal] = 1.0
        block = _walsh_apply(omega, identity)
        identity[rows, diagonal] = 0.0
        for _ in range(k - 1):
            block = _walsh_apply(omega, block)
        head = np.ones(1)
        for d in np.unravel_index(b, (D,) * t):  # big-endian digits of b
            head = np.kron(head, omega[:, d])
        # np.maximum keeps a NaN defect, which the gate below refuses
        defect = np.maximum(defect, np.abs(
            block - np.kron(head[:, None], tail)).max())
    if not defect <= 1e-12:
        raise SolverFailure(f"Walsh power identity violated: max defect {defect:.3e}")

    return WalshModel(D, keep_t, k, omega, omega_tilde, spec_digest(spec))


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------

def _phase_factors(N: int, phases: Optional[Sequence[float]] = None,
                   seed: Optional[int] = None) -> np.ndarray:
    """The diagonal e^{i phi_j}, from explicit angles or a seeded uniform draw."""
    if phases is None:
        if seed is None:
            raise LengthMismatch("provide either explicit phases or a seed")
        phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=N)
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (N,):
        raise LengthMismatch(f"need {N} phases, got shape {phases.shape}")
    return np.exp(1j * phases)


def apply_diagonal_phases(qmap: Union[QuantizedMap, np.ndarray],
                          phases: Optional[Sequence[float]] = None,
                          seed: Optional[int] = None):
    """Left-multiply by diag(e^{i phi_j}); singular values are untouched.

    Either pass explicit angles or a seed for reproducible uniform ones.
    Accepts a QuantizedMap (returned as a QuantizedMap of the same kind)
    or a bare matrix (returned as a matrix).
    """
    matrix = qmap.matrix if isinstance(qmap, QuantizedMap) else np.asarray(qmap)
    rotated = _phase_factors(matrix.shape[0], phases, seed)[:, None] * matrix
    if isinstance(qmap, QuantizedMap):
        return QuantizedMap(rotated, qmap.kind, qmap.digest, qmap.keep,
                            qmap.block_sizes, qmap.bloch)
    return rotated
