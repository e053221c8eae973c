"""Classical open baker's maps on the torus and their thermodynamics.

The phase space is the unit torus, coordinates (x, xi).  A D-symbol baker
map is built from a partition 0 = x_0 < x_1 < ... < x_D = 1 into vertical
Markov rectangles R_i = [x_i, x_{i+1}) x [0, 1) of widths ell_i.  On R_i
the map acts by

    (x, xi)  |->  ((x - x_i) / ell_i,  ell_i * xi + x_i),

stretching horizontally by 1/ell_i and squeezing vertically by ell_i.  The
map is opened by declaring a subset of the rectangles a "hole": orbits
entering a removed rectangle escape and are never iterated again.

Everything about the long-time structure of the open map is encoded in
symbolic dynamics on the kept alphabet.  Points surviving n forward steps
form |keep|^n vertical strips labelled by admissible words; as n grows
these strips converge to Can x [0,1), the incoming tail K-.  Backward
survivors give the outgoing tail K+ = [0,1) x Can, and the trapped set is
the product Can x Can of two Cantor sets.

The thermodynamic quantities used by the spectral bounds all reduce to the
one closed form

    P(-s phi+) = log sum_{i in keep} ell_i^s,

the topological pressure of the full shift with unstable Jacobian weight
phi+ = log(1/ell_i).  Its root in s is the Cantor-set dimension exponent
nu, its value at s=0 is the topological entropy, at s=1 it gives (minus)
the classical escape rate gamma_cl, and at s=1/2 the spectral-gap
constant.  A Perron-Frobenius route through the weighted transition
matrix is kept alongside; for a full shift it is a second float
evaluation of the same sum, so the two agree to rounding.

Arithmetic is deliberately dual: set-level quantities (volumes, interval
covers) are exact rationals, while pressure and root-finding use floats.
Neither needs numpy: this module imports only the standard library, so
the exact commands (escape, thermo) start without loading it.
The symbolic refinement runs on integer numerators over the common
denominator Q^m, and the level-m intervals stay in that form
(:class:`Intervals`) all the way to their readers; only the one volume
per level is a ``fractions.Fraction``.  The level-m cover and the
pressure curve are produced in batches on access (:class:`Cover`,
:class:`LazySequence`), so memory does not grow with the level or the
grid.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, product
from math import exp, inf, lcm, log, sqrt
from operator import sub
from typing import Callable, Iterator, List, Optional, Tuple, Union

from .errors import (
    EmptyOrFullKeepSet,
    EndpointMismatch,
    HorizonTooLarge,
    NonMonotonePartition,
    NumericalError,
    OutOfDomain,
    ValidationError,
)

__all__ = [
    "BakerSpec",
    "Intervals",
    "Cover",
    "LazySequence",
    "EscapeReport",
    "PressureReport",
    "validate_spec",
    "symmetric_spec",
    "spec_digest",
    "step",
    "escape_report",
    "trapped_cover",
    "pressure",
    "cantor_dimension",
    "thermo_report",
]

Rational = Union[Fraction, int, str]

# Hard cap on how many cover intervals any operation may enumerate.
INTERVAL_GUARD = 10**7
# Hard cap on N for the numeric layers (dense storage, O(N^3) solves);
# kept here so that reading it loads no numpy.
DENSE_GUARD = 5000
# Most intervals or points a streamed cover or lazy sequence produces at once.
_BLOCK = 4096
# Decimal digits past which Python refuses to convert an int to or from
# text by default, so no exact numerator that passes it could be written.
_DIGIT_GUARD = 4300


def _power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """Whether base ** exponent > bound, for ints base >= 0, exponent >= 0
    and bound >= 1, with bounded work for any exponent.

    base ** exponent >= 2 ** (exponent * (bits(base) - 1)), so once that
    exponent reaches bits(bound) the power exceeds the bound and is never
    formed; below it the power has fewer than 2 bits(bound) bits.
    """
    if exponent * (base.bit_length() - 1) >= bound.bit_length():
        return True
    return base ** exponent > bound


# ---------------------------------------------------------------------------
# specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BakerSpec:
    """A validated open baker's map: partition points plus kept rectangles.

    Construct through :func:`validate_spec` (or :func:`symmetric_spec`);
    the constructor itself re-checks the invariants so an invalid spec
    cannot exist.
    """

    partition: Tuple[Fraction, ...]
    keep: Tuple[int, ...]

    def __post_init__(self):
        pts = self.partition
        if len(pts) < 3:
            # D >= 2 is forced: with a single rectangle the keep set
            # cannot be both nonempty and proper.
            raise EmptyOrFullKeepSet("need at least 2 rectangles to open a map")
        if pts[0] != 0 or pts[-1] != 1:
            raise EndpointMismatch(f"partition must span [0,1], got {pts[0]}..{pts[-1]}")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise NonMonotonePartition(f"partition not strictly increasing: {pts}")
        D = len(pts) - 1
        ks = self.keep
        if len(ks) == 0 or len(ks) >= D:
            raise EmptyOrFullKeepSet(f"keep set must be nonempty and proper, got {ks}")
        if list(ks) != sorted(set(ks)) or ks[0] < 0 or ks[-1] >= D:
            raise EmptyOrFullKeepSet(f"keep indices must be distinct, sorted, in 0..{D-1}")

    @property
    def branch_count(self) -> int:
        """D, the number of Markov rectangles."""
        return len(self.partition) - 1

    @property
    def lengths(self) -> Tuple[Fraction, ...]:
        """Rectangle widths ell_i = x_{i+1} - x_i (exact)."""
        return tuple(b - a for a, b in zip(self.partition, self.partition[1:]))

    @property
    def kept_lengths(self) -> Tuple[Fraction, ...]:
        return tuple(self.lengths[i] for i in self.keep)

    @property
    def survival_fraction(self) -> Fraction:
        """Lebesgue measure surviving one step, sum of kept widths."""
        return sum(self.kept_lengths, Fraction(0))


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, float):
        # Exactness is part of the contract; a float would smuggle in
        # binary rounding. Callers must pass "1/3", Fraction, or ints.
        raise TypeError(f"partition points must be exact rationals, got float {value!r}")
    return Fraction(value)


def validate_spec(partition: Sequence[Rational], keep: Sequence[int]) -> BakerSpec:
    """Check and normalize raw inputs into a :class:`BakerSpec`.

    Raises NonMonotonePartition, EmptyOrFullKeepSet, or EndpointMismatch.
    """
    pts = tuple(_as_fraction(p) for p in partition)
    ks = tuple(sorted(int(i) for i in set(keep)))
    return BakerSpec(partition=pts, keep=ks)


def symmetric_spec(D: int, keep: Sequence[int]) -> BakerSpec:
    """The D-symbol baker with equal widths 1/D and the given hole."""
    if D < 2:  # before Fraction(i, D), which D = 0 would divide by
        raise EmptyOrFullKeepSet("need at least 2 rectangles to open a map")
    return validate_spec([Fraction(i, D) for i in range(D + 1)], keep)


def spec_digest(spec: BakerSpec) -> str:
    """Deterministic short hash identifying the spec (for provenance)."""
    canon = ";".join(f"{p.numerator}/{p.denominator}" for p in spec.partition)
    canon += "|" + ",".join(str(i) for i in spec.keep)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# pointwise dynamics
# ---------------------------------------------------------------------------

def _rectangle_of(spec: BakerSpec, coord) -> int:
    """Index i with coord in [x_i, x_{i+1}); membership is half-open so
    every point of [0,1) belongs to exactly one rectangle."""
    for i in range(spec.branch_count):
        if coord < spec.partition[i + 1]:
            return i
    # coord < 1 is checked by the caller, so this is unreachable
    raise AssertionError("coordinate escaped the partition scan")


def step(spec: BakerSpec, point, direction: str = "forward"):
    """One step of the open baker map; None means the point escaped.

    ``point`` is an (x, xi) pair of floats or of Fractions; the output
    keeps the arithmetic of the input (exact in, exact out).  Forward
    steps are keyed on x's rectangle, backward steps on xi's rectangle,
    because the inverse map contracts horizontally exactly where the
    forward map expanded.
    """
    x, xi = point
    if not (0 <= x < 1 and 0 <= xi < 1):
        raise OutOfDomain(f"point {point} outside [0,1)^2")
    if direction == "forward":
        i = _rectangle_of(spec, x)
        if i not in spec.keep:
            return None
        ell = spec.lengths[i]
        return ((x - spec.partition[i]) / ell, ell * xi + spec.partition[i])
    if direction == "backward":
        i = _rectangle_of(spec, xi)
        if i not in spec.keep:
            return None
        ell = spec.lengths[i]
        return (ell * x + spec.partition[i], (xi - spec.partition[i]) / ell)
    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


# ---------------------------------------------------------------------------
# symbolic dynamics: covers, escape sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Intervals:
    """Half-open intervals [lo / den, hi / den), ascending and disjoint.

    The numerators are Python ints over one denominator, den = Q^m for a
    level-m cover, so no endpoint is ever a float or a per-interval
    Fraction; readers reduce or divide only what they need.
    """

    los: Sequence[int]
    his: Sequence[int]
    den: int

    def __len__(self) -> int:
        return len(self.los)


@dataclass(frozen=True)
class Cover:
    """A level-m cover held as the rule that produces it: iterating yields
    its :class:`Intervals` over den in ascending batches of at most
    _BLOCK, afresh each time, and ``los`` and ``his`` join them."""

    den: int
    count: int
    batches: Callable[[], Iterator[Intervals]]

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Intervals]:
        return self.batches()

    @property
    def los(self) -> Tuple[int, ...]:
        return tuple(chain.from_iterable(batch.los for batch in self))

    @property
    def his(self) -> Tuple[int, ...]:
        return tuple(chain.from_iterable(batch.his for batch in self))


def _refine(spec: BakerSpec, level: int) -> Tuple[Tuple[Fraction, ...], Cover]:
    """The symbolic refinement loop: map [0, 1) ``level`` times to
    x_s + ell_s * I for every kept symbol s.

    Returns the surviving length after each step, summed from the actual
    interval widths rather than the closed form (sum ell)^m, and the
    level-``level`` :class:`Cover`.  Kept symbols ascend and each maps
    [0, 1) onto its own rectangle [x_s, x_s + ell_s), so the intervals come
    out sorted and disjoint without a sort.

    The loop runs on Python-int numerators over Q^m, with Q the lcm of the
    partition denominators: symbol s is (a_s, b_s) = (Q x_s, Q ell_s), and
    one step maps (lo, hi) over Q^m to (a_s Q^m + b_s lo, a_s Q^m + b_s hi)
    over Q^(m+1).  The numerators pass 2^63 (Q = 47 at m = 12), so they
    must never become fixed-width integers, and they are not reduced to
    lowest terms.

    The loop builds the first d levels while they fit in one batch of
    _BLOCK.  The cover is self-similar: a level d + k interval is the
    image of a level-d one under the word s_1 ... s_k of its k outer
    symbols, the integer affine map x -> A + B x from Q^d to Q^(d+k) with
    B = b_1 ... b_k and A = sum_j a_j Q^(d+k-j) b_1 ... b_(j-1).  Each
    deeper level is produced one word's image of the level-d block at a
    time, words in lexicographic order, outermost symbol most
    significant, so the batches ascend; its surviving length is summed
    from those batches, and the cover produces level ``level`` anew on
    each iteration.  Memory is O(_BLOCK) at any level.
    """
    n = len(spec.keep)
    if _power_exceeds(n, level, INTERVAL_GUARD):
        raise HorizonTooLarge(
            f"{level} refinement levels need {n}^{level} intervals "
            f"(guard {INTERVAL_GUARD})")
    Q = lcm(*(p.denominator for p in spec.partition))
    # a single kept symbol passes the interval guard at any level, but the
    # numerators over Q^level still grow with it
    if _power_exceeds(Q, level, 10 ** _DIGIT_GUARD - 1):
        raise HorizonTooLarge(
            f"{level} refinement levels need numerators over {Q}^{level}, "
            f"past {_DIGIT_GUARD} decimal digits")
    symbols = [(int(Q * spec.partition[s]), int(Q * spec.lengths[s]))
               for s in spec.keep]
    los, his, den = [0], [1], 1
    alive = []
    while len(alive) < level and len(los) * n <= _BLOCK:
        shifts = [(a * den, b) for a, b in symbols]
        los = [c + b * lo for c, b in shifts for lo in los]
        his = [c + b * hi for c, b in shifts for hi in his]
        den *= Q
        alive.append(Fraction(sum(map(sub, his, los)), den))

    def batches(outer: int) -> Iterator[Intervals]:
        top = den * Q ** outer
        for word in product(symbols, repeat=outer):
            A, B, scale = 0, 1, top
            for a, b in word:
                scale //= Q
                A += a * scale * B
                B *= b
            yield Intervals([A + B * lo for lo in los],
                            [A + B * hi for hi in his], top)

    outer = level - len(alive)
    for k in range(1, outer + 1):
        width = sum(sum(map(sub, batch.his, batch.los))
                    for batch in batches(k))
        alive.append(Fraction(width, den * Q ** k))
    return tuple(alive), Cover(den * Q ** outer, len(los) * n ** outer,
                               partial(batches, outer))


@dataclass(frozen=True)
class EscapeReport:
    """Exact accounting of who has escaped by each time up to the horizon.

    ``escaped_volumes[m-1]`` is Vol(D_m), the measure of points with
    escape time < m; with the time-0 convention D_1 is exactly the hole.
    Survivor intervals are the x-projections of the level-n cover, as
    integer numerators over Q^n, produced in batches on each iteration.
    """

    horizon: int
    escaped_volumes: Tuple[Fraction, ...]
    survivor_volume: Fraction
    survivor_intervals: Cover


def escape_report(spec: BakerSpec, horizon: int) -> EscapeReport:
    """Escape-set volumes Vol(D_m) for m <= horizon, all exact.

    The volumes are obtained by summing the actual admissible-interval
    lengths at each level, not from the closed form (sum ell)^m, so the
    telescoping identity is a genuine cross-check downstream.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    alive, intervals = _refine(spec, horizon)
    escaped = tuple(1 - a for a in alive)
    # escaped mass only ever grows
    if any(a > b for a, b in zip(escaped, escaped[1:])):
        raise NumericalError(f"escaped volumes not monotone: {escaped}")
    return EscapeReport(
        horizon=horizon,
        escaped_volumes=escaped,
        survivor_volume=alive[-1],
        survivor_intervals=intervals,
    )


def trapped_cover(spec: BakerSpec, level: int) -> Intervals:
    """Exact level-m strips of the trapped tails, as :class:`Intervals`.

    The |keep|^m Cantor intervals over Q^m are the x-strips that cover
    K- (points surviving ``level`` forward steps) and, read in xi, the
    strips that cover K+ (``level`` backward steps); their total length
    is ``escape_report(spec, level).survivor_volume``.
    """
    if level < 1:
        raise ValueError("cover level must be >= 1")
    cover = _refine(spec, level)[1]
    return Intervals(cover.los, cover.his, cover.den)


# ---------------------------------------------------------------------------
# thermodynamics
# ---------------------------------------------------------------------------

def pressure(spec: BakerSpec, s: float, method: str = "closed_form") -> float:
    """Topological pressure P(-s phi+) of the open baker's full shift.

    closed_form evaluates log sum_{i in keep} ell_i^s directly.  markov
    returns the log of the Perron-Frobenius eigenvalue of the |keep| x
    |keep| all-ones transition matrix with column weights w_i = ell_i^s.
    For a full shift that eigenvalue is sum w_i, so markov is a second
    float evaluation of the same sum, not an independent formula.
    """
    lengths = [float(l) for l in spec.kept_lengths]
    if method == "closed_form":
        return _closed_form(lengths, s)
    if method == "markov":
        return log(_perron_frobenius_full_shift([l ** s for l in lengths]))
    raise ValueError(f"method must be 'closed_form' or 'markov', got {method!r}")


def _closed_form(lengths: Sequence[float], s: float) -> float:
    """log sum ell^s over the float kept lengths.

    Raises ValidationError where the sum leaves the float range: a term
    that overflows, or a sum that underflows to 0 (or a width that does),
    has no finite logarithm.
    """
    try:
        total = sum([l ** s for l in lengths])
    except (OverflowError, ZeroDivisionError):
        total = inf
    if not 0.0 < total < inf:
        widths = ", ".join(f"{l:.6g}" for l in lengths)
        raise ValidationError(
            f"pressure at s={s!r} leaves the float range: the sum of the kept "
            f"widths ({widths}) to the power s is {total!r}")
    return log(total)


def _perron_frobenius_full_shift(weights: Sequence[float]) -> float:
    """Perron-Frobenius eigenvalue of T^w = 1 w^T, the all-ones transition
    matrix with column weights T^w[a, b] = w_b.

    The uniform vector u is its positive eigenvector, so one product
    T^w u = (w . u) 1 gives the eigenvalue as sum(T^w u) / sum(u).
    """
    w = [float(x) for x in weights]
    n = len(w)
    if n < 1 or not all(x > 0 for x in w):
        raise NumericalError(
            f"Perron-Frobenius weights must be positive, got {list(weights)}")
    u = [1.0 / n] * n
    image = [sum(a * b for a, b in zip(w, u))] * n  # every row of T^w is w
    return sum(image) / sum(u)


def cantor_dimension(spec: BakerSpec) -> float:
    """Dimension exponent nu: the unique root of sum ell_i^s = 1.

    Bisection to 1e-12 absolute.  f(s) = sum ell_i^s - 1 is strictly
    decreasing (every kept ell_i < 1), f(0) = n-1 >= 0 and f(1) < 0 for a
    proper keep set, so the root lies in [0, 1].  A single kept rectangle
    gives nu = 0 exactly.
    """
    lengths = [float(l) for l in spec.kept_lengths]
    if len(lengths) == 1:
        return 0.0

    def f(s: float) -> float:
        return sum(l ** s for l in lengths) - 1.0

    lo, hi = 0.0, 1.0
    if not (f(lo) > 0 and f(hi) < 0):
        raise NumericalError(
            f"sum ell^s = 1 has no root bracketed in [0, 1]: {lengths}")
    for _ in range(60):  # 2^-60 << the 1e-12 target
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class LazySequence(Sequence):
    """A sequence of count items computed on access, never held: items(start,
    stop) returns those at indices start..stop-1 as a list, and iteration
    takes them _BLOCK at a time."""

    def __init__(self, count: int,
                 items: Callable[[int, int], List[float]]) -> None:
        self._count, self._items = count, items

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, stride = key.indices(self._count)
            if stride == 1:
                return self._items(start, max(start, stop))
            return [self[i] for i in range(start, stop, stride)]
        index = range(self._count)[key]
        return self._items(index, index + 1)[0]

    def __iter__(self) -> Iterator[float]:
        starts = range(0, self._count, _BLOCK)
        stops = chain(starts[1:], (self._count,))
        return chain.from_iterable(map(self._items, starts, stops))


def _linspace(lo: float, hi: float, count: int) -> LazySequence:
    """np.linspace(lo, hi, count).tolist() bit for bit, for count >= 1,
    as a :class:`LazySequence` that computes each point by its index.

    The same float operations in the same order: index times step plus
    lo, or, where the step underflows to 0, (index / div) times the span
    plus lo; the last point is hi itself.
    """
    div = count - 1
    delta = hi - lo
    step = delta / div if div else 0.0

    def points(start: int, stop: int) -> List[float]:
        if div == 0:
            return [0.0 * delta + lo] * (stop - start)
        if step == 0:
            grid = [(i / div) * delta + lo for i in range(start, stop)]
        else:
            grid = [i * step + lo for i in range(start, stop)]
        if stop == count and grid:
            grid[-1] = hi
        return grid
    return LazySequence(count, points)


@dataclass(frozen=True)
class PressureReport:
    """Pressure curve plus the derived thermodynamic constants.

    g_half = exp P(-phi+/2) and g_cl = exp(P(-phi+)/2) are the two
    spectral-radius reference levels; convexity_ok records whether the
    chain -gamma_cl/2 <= P(-phi+/2) <= (H_top - gamma_cl)/2 held.
    """

    s_grid: Sequence[float]
    values: Sequence[float]
    nu: float
    gamma_cl: float
    h_top: float
    g_half: float
    g_cl: float
    convexity_ok: bool


def thermo_report(spec: BakerSpec,
                  s_grid: Optional[Sequence[float]] = None) -> PressureReport:
    """Pressure on a grid plus nu, gamma_cl, H_top and the gap constants.

    A :class:`LazySequence` grid, as :func:`_linspace` and the CLI give,
    is kept as it is, and any other grid is copied as floats; the values
    are a :class:`LazySequence` that evaluates the closed form per point.
    """
    if s_grid is None:
        s_grid = _linspace(-1.0, 3.0, 50)
    elif not isinstance(s_grid, LazySequence):
        s_grid = tuple(float(s) for s in s_grid)
    lengths = [float(l) for l in spec.kept_lengths]
    values = LazySequence(len(s_grid), lambda start, stop: [
        _closed_form(lengths, s) for s in s_grid[start:stop]])
    # sum ell^s is monotone in s, so the grid stays in the float range
    # where its two extremes do; past them, the walk refuses the first
    # point that leaves it, as an eager walk over the grid would
    try:
        for s in (min(s_grid), max(s_grid)) if s_grid else ():
            _closed_form(lengths, s)
    except ValidationError:
        for _ in values:
            pass
        raise

    nu = cantor_dimension(spec)
    surviving = float(spec.survival_fraction)
    gamma_cl = -log(surviving)
    h_top = log(len(spec.keep))
    p_half = pressure(spec, 0.5)
    g_half = exp(p_half)
    g_cl = sqrt(surviving)
    # convexity of s -> P(-s phi+) pinches the midpoint value
    slack = 1e-12
    convexity_ok = (-gamma_cl / 2 - slack <= p_half <= (h_top - gamma_cl) / 2 + slack)
    return PressureReport(
        s_grid=s_grid,
        values=values,
        nu=nu,
        gamma_cl=gamma_cl,
        h_top=h_top,
        g_half=g_half,
        g_cl=g_cl,
        convexity_ok=convexity_ok,
    )
