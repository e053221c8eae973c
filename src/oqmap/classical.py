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
matrix is implemented alongside as an independent cross-check; its power
iteration stops at relative change _PF_REL_TOL = 1e-12 and gives up
after _PF_MAX_ITER = 10000 steps.

Arithmetic is deliberately dual: set-level quantities (volumes, interval
covers) are exact rationals, while pressure and root-finding use floats.
Neither needs numpy: this module imports only the standard library, so
the exact commands (escape, thermo) start without loading it.
The symbolic refinement runs on integer numerators over the common
denominator Q^m, and the level-m intervals stay in that form
(:class:`Intervals`) all the way to their readers; only the one volume
per level is a ``fractions.Fraction``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import exp, inf, lcm, log, sqrt
from operator import sub
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .errors import (
    EmptyOrFullKeepSet,
    EndpointMismatch,
    HorizonTooLarge,
    NonMonotonePartition,
    NumericalError,
    OutOfDomain,
    PowerIterationDivergence,
    ValidationError,
)

__all__ = [
    "BakerSpec",
    "Intervals",
    "EscapeReport",
    "TrappedCover",
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

    los: Tuple[int, ...]
    his: Tuple[int, ...]
    den: int

    def __len__(self) -> int:
        return len(self.los)


def _refine(spec: BakerSpec, level: int) -> Tuple[Tuple[Fraction, ...],
                                                 Intervals]:
    """The symbolic refinement loop: map [0, 1) ``level`` times to
    x_s + ell_s * I for every kept symbol s.

    Returns the surviving length after each step, summed from the actual
    interval widths rather than the closed form (sum ell)^m, and the
    level-``level`` intervals.  Kept symbols ascend and each maps [0, 1)
    onto its own rectangle [x_s, x_s + ell_s), so the intervals come out
    sorted and disjoint without a sort.

    The loop runs on Python-int numerators over Q^m, with Q the lcm of the
    partition denominators: symbol s is (a_s, b_s) = (Q x_s, Q ell_s), and
    one step maps (lo, hi) over Q^m to (a_s Q^m + b_s lo, a_s Q^m + b_s hi)
    over Q^(m+1).  The numerators pass 2^63 (Q = 47 at m = 12), so they
    must never become fixed-width integers.  The intervals stay integer
    numerators over Q^m: they are returned as :class:`Intervals`, not
    reduced to lowest terms.
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
    for _ in range(level):
        shifts = [(a * den, b) for a, b in symbols]
        los = [c + b * lo for c, b in shifts for lo in los]
        his = [c + b * hi for c, b in shifts for hi in his]
        den *= Q
        alive.append(Fraction(sum(map(sub, his, los)), den))
    return tuple(alive), Intervals(tuple(los), tuple(his), den)


@dataclass(frozen=True)
class EscapeReport:
    """Exact accounting of who has escaped by each time up to the horizon.

    ``escaped_volumes[m-1]`` is Vol(D_m), the measure of points with
    escape time < m; with the time-0 convention D_1 is exactly the hole.
    Survivor intervals are the x-projections of the level-n cover, as
    integer numerators over Q^n.
    """

    horizon: int
    escaped_volumes: Tuple[Fraction, ...]
    survivor_volume: Fraction
    survivor_intervals: Intervals


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


@dataclass(frozen=True)
class TrappedCover:
    """Level-m cover of a trapped tail by strips or product rectangles.

    For tail "K_minus" the cover is vertical strips (x-intervals times
    the full xi range); "K_plus" gives horizontal strips; "K" gives the
    full product-rectangle cover with measure (sum ell)^(2m).  Rectangle
    lists for K are exposed lazily via :meth:`rectangles` since there are
    |keep|^(2m) of them.  Strips are :class:`Intervals` over Q^m.
    """

    tail: str
    level: int
    x_intervals: Optional[Intervals]
    xi_intervals: Optional[Intervals]
    measure: Fraction

    def rectangles(self) -> Iterator[Tuple[Tuple[int, int], Tuple[int, int]]]:
        """((x_lo, x_hi), (xi_lo, xi_hi)) numerator pairs, all over the one
        denominator ``x_intervals.den``."""
        if self.tail != "K":
            raise ValueError("rectangles are only defined for the full trapped set")
        xs, xis = self.x_intervals, self.xi_intervals
        for ix in zip(xs.los, xs.his):
            for ixi in zip(xis.los, xis.his):
                yield (ix, ixi)


def trapped_cover(spec: BakerSpec, level: int, tail: str = "K") -> TrappedCover:
    """Exact level-m cover of K, K- or K+ by symbolic strips."""
    if level < 1:
        raise ValueError("cover level must be >= 1")
    if tail not in ("K", "K_minus", "K_plus"):
        raise ValueError(f"tail must be K, K_minus or K_plus, got {tail!r}")
    # the K cover conceptually holds |keep|^(2m) rectangles; guard on that
    # (the refinement guards the |keep|^m strips)
    n = len(spec.keep)
    if tail == "K" and _power_exceeds(n, 2 * level, INTERVAL_GUARD):
        raise HorizonTooLarge(
            f"cover would hold {n}^{2 * level} rectangles "
            f"(guard {INTERVAL_GUARD})")

    alive, intervals = _refine(spec, level)
    length = alive[-1]
    if tail == "K_minus":
        return TrappedCover(tail, level, intervals, None, length)
    if tail == "K_plus":
        return TrappedCover(tail, level, None, intervals, length)
    return TrappedCover(tail, level, intervals, intervals, length * length)


# ---------------------------------------------------------------------------
# thermodynamics
# ---------------------------------------------------------------------------

def pressure(spec: BakerSpec, s: float, method: str = "closed_form") -> float:
    """Topological pressure P(-s phi+) of the open baker's full shift.

    closed_form evaluates log sum_{i in keep} ell_i^s directly.  markov
    builds the |keep| x |keep| all-ones transition matrix with column
    weights w_i = ell_i^s and returns the log of its Perron-Frobenius
    eigenvalue by power iteration (relative tolerance 1e-12).  For a full
    shift the two must agree; the markov route exists as an independent
    cross-check and to accommodate future subshift specs.
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


_PF_REL_TOL = 1e-12
_PF_MAX_ITER = 10000


def _perron_frobenius_full_shift(weights: Sequence[float]) -> float:
    """Largest eigenvalue of T^w where T is all-ones and T^w[a,b] = w_b.

    Generic positive-matrix power iteration to relative change
    _PF_REL_TOL within _PF_MAX_ITER steps; the full-shift case is rank
    one and converges immediately, but the loop and divergence guard stay
    general on purpose.
    """
    w = [float(x) for x in weights]
    n = len(w)
    if n < 1 or not all(x > 0 for x in w):
        raise NumericalError(
            f"Perron-Frobenius weights must be positive, got {list(weights)}")
    v = [1.0 / n] * n
    lam_prev = 0.0
    for _ in range(_PF_MAX_ITER):
        tv = [sum(a * b for a, b in zip(w, v))] * n  # every row of T^w is w
        total = sum(tv)
        lam = total / sum(v)
        v = [x / total for x in tv]
        if abs(lam - lam_prev) <= _PF_REL_TOL * abs(lam):
            return lam
        lam_prev = lam
    raise PowerIterationDivergence(
        f"no convergence after {_PF_MAX_ITER} iterations "
        f"(last estimate {lam_prev})")


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


def _linspace(lo: float, hi: float, count: int) -> List[float]:
    """np.linspace(lo, hi, count).tolist() bit for bit, for count >= 1.

    The same float operations in the same order: index times step plus
    lo, or, where the step underflows to 0, (index / div) times the span
    plus lo; the last point is hi itself.
    """
    div = count - 1
    delta = hi - lo
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    if step == 0:
        grid = [(i / div) * delta + lo for i in range(count)]
    else:
        grid = [i * step + lo for i in range(count)]
    grid[-1] = hi
    return grid


@dataclass(frozen=True)
class PressureReport:
    """Pressure curve plus the derived thermodynamic constants.

    g_half = exp P(-phi+/2) and g_cl = exp(P(-phi+)/2) are the two
    spectral-radius reference levels; convexity_ok records whether the
    chain -gamma_cl/2 <= P(-phi+/2) <= (H_top - gamma_cl)/2 held.
    """

    s_grid: Tuple[float, ...]
    values: Tuple[float, ...]
    nu: float
    gamma_cl: float
    h_top: float
    g_half: float
    g_cl: float
    convexity_ok: bool


def thermo_report(spec: BakerSpec,
                  s_grid: Optional[Sequence[float]] = None) -> PressureReport:
    """Pressure on a grid plus nu, gamma_cl, H_top and the gap constants."""
    if s_grid is None:
        s_grid = _linspace(-1.0, 3.0, 50)
    s_grid = tuple(float(s) for s in s_grid)
    lengths = [float(l) for l in spec.kept_lengths]
    values = tuple(_closed_form(lengths, s) for s in s_grid)

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
