"""Classical layer: spec validation, the map itself, symbolic covers,
escape volumes, and thermodynamics.

Volume and pressure claims are cross-checked against independent oracles:
a vectorized Monte Carlo escape estimate, closed forms evaluated inline,
and the transfer-operator route.
"""

import inspect
import itertools
import json
import math
import random
import textwrap
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqmap import (
    BakerSpec,
    Intervals,
    cantor_dimension,
    escape_report,
    pressure,
    spec_digest,
    step,
    symmetric_spec,
    thermo_report,
    trapped_cover,
    validate_spec,
)
from oqmap import classical
from oqmap.cli import main
from oqmap.classical import _linspace, _perron_frobenius_full_shift, _refine
from oqmap.errors import (
    EmptyOrFullKeepSet,
    EndpointMismatch,
    HorizonTooLarge,
    NonMonotonePartition,
    NumericalError,
    OutOfDomain,
    ValidationError,
)

from conftest import fraction_intervals, random_rational_spec

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)


def reflection_symmetric(spec):
    """True iff both partition widths and keep set are invariant under
    the relabeling i -> D-1-i."""
    D = spec.branch_count
    ls = spec.lengths
    widths_ok = all(ls[i] == ls[D - 1 - i] for i in range(D))
    keep_ok = sorted(D - 1 - i for i in spec.keep) == list(spec.keep)
    return widths_ok and keep_ok


def escape_time(spec, point, horizon):
    """Number of completed steps before the forward orbit enters the hole:
    0 for a point already in a removed rectangle, None if the orbit is
    still alive after ``horizon`` steps."""
    for t in range(horizon):
        point = step(spec, point)
        if point is None:
            return t
    return None


def word_interval(spec, symbols):
    """The half-open interval of coordinates whose itinerary starts with
    ``symbols``, by nesting I_(s w) = x_s + ell_s * I_w.  Exact rationals."""
    for s in symbols:
        if s not in spec.keep:
            raise ValueError(f"symbol {s} not in keep set {spec.keep}")
    lo, width = Fraction(0), Fraction(1)
    for s in symbols:
        lo = lo + width * spec.partition[s]
        width = width * spec.lengths[s]
    return (lo, lo + width)


def admissible_words(spec, length):
    """All |keep|^length symbol tuples over the kept alphabet, in
    lexicographic order."""
    if length < 0:
        raise ValueError("word length must be >= 0")
    return list(itertools.product(spec.keep, repeat=length))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_symmetric_spec_basic(self, spec3):
        assert spec3.branch_count == 3
        assert spec3.lengths == (Fraction(1, 3),) * 3
        assert spec3.kept_lengths == (Fraction(1, 3), Fraction(1, 3))
        assert spec3.survival_fraction == Fraction(2, 3)
        assert reflection_symmetric(spec3)

    def test_five_branch_spec(self, spec5):
        assert spec5.branch_count == 5
        assert spec5.survival_fraction == Fraction(2, 5)
        assert reflection_symmetric(spec5)

    def test_asym_spec(self, asym_spec):
        assert asym_spec.lengths == (
            Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        assert not reflection_symmetric(asym_spec)

    def test_nonmonotone_partition(self):
        with pytest.raises(NonMonotonePartition):
            validate_spec((0, Fraction(2, 3), Fraction(1, 3), 1), (0,))

    def test_endpoint_mismatch(self):
        with pytest.raises(EndpointMismatch):
            validate_spec((0, Fraction(1, 3), Fraction(1, 2)), (0,))

    def test_keep_set_must_be_proper(self):
        with pytest.raises(EmptyOrFullKeepSet):
            symmetric_spec(3, ())
        with pytest.raises(EmptyOrFullKeepSet):
            symmetric_spec(3, (0, 1, 2))
        with pytest.raises(EmptyOrFullKeepSet):
            symmetric_spec(3, (0, 5))
        # fewer than two rectangles, refused before Fraction(i, D) divides by 0
        for D in (0, 1, -1):
            with pytest.raises(EmptyOrFullKeepSet, match="at least 2 rectangles"):
                symmetric_spec(D, (0,))
        # the boundary normalizes order and duplicates; only direct
        # dataclass construction insists on canonical form
        assert symmetric_spec(3, (2, 0, 2)) == symmetric_spec(3, (0, 2))
        with pytest.raises(EmptyOrFullKeepSet):
            BakerSpec(partition=symmetric_spec(3, (0, 2)).partition,
                      keep=(2, 0))

    def test_float_partition_rejected(self):
        with pytest.raises(TypeError):
            validate_spec((0, 1 / 3, 2 / 3, 1), (0, 2))

    def test_frozen_dataclass_validates_directly(self):
        with pytest.raises(EmptyOrFullKeepSet):
            BakerSpec((Fraction(0), Fraction(1, 2), Fraction(1)), ())

    def test_digest_is_stable_and_discriminating(self, spec3, spec5):
        d3 = spec_digest(spec3)
        assert len(d3) == 16
        assert all(c in "0123456789abcdef" for c in d3)
        assert d3 == spec_digest(symmetric_spec(3, (0, 2)))
        assert d3 != spec_digest(spec5)
        assert d3 != spec_digest(symmetric_spec(3, (0, 1)))


# ---------------------------------------------------------------------------
# the map
# ---------------------------------------------------------------------------

class TestStep:
    def test_forward_float_example(self, spec3):
        out = step(spec3, (0.1, 0.2))
        assert out is not None
        assert out[0] == pytest.approx(0.3, abs=1e-15)
        assert out[1] == pytest.approx(0.2 / 3, abs=1e-15)

    def test_forward_escape(self, spec3):
        assert step(spec3, (0.5, 0.2)) is None

    def test_forward_exact_asym(self, asym_spec):
        out = step(asym_spec, (Fraction(1, 4), Fraction(0)))
        assert out == (Fraction(1, 2), Fraction(0))
        assert isinstance(out[0], Fraction)

    def test_backward_keyed_on_xi(self, spec3):
        # xi in the removed middle third: the backward orbit escapes even
        # though x sits in a kept rectangle
        assert step(spec3, (Fraction(0), Fraction(1, 2)), "backward") is None
        out = step(spec3, (Fraction(1, 2), Fraction(1, 9)), "backward")
        assert out == (Fraction(1, 6), Fraction(1, 3))

    def test_roundtrip_exact(self, spec3, asym_spec):
        for spec in (spec3, asym_spec):
            for pt in ((Fraction(1, 7), Fraction(2, 7)),
                       (Fraction(0), Fraction(0)),
                       (Fraction(9, 10), Fraction(1, 5))):
                fwd = step(spec, pt)
                if fwd is None:
                    continue
                assert step(spec, fwd, "backward") == pt

    def test_roundtrip_float(self, spec3):
        pt = (0.12, 0.91)
        fwd = step(spec3, pt)
        back = step(spec3, fwd, "backward")
        assert back[0] == pytest.approx(pt[0], abs=1e-14)
        assert back[1] == pytest.approx(pt[1], abs=1e-14)

    def test_out_of_domain(self, spec3):
        for bad in ((1.0, 0.0), (0.0, 1.2), (-0.1, 0.5)):
            with pytest.raises(OutOfDomain):
                step(spec3, bad)

    def test_bad_direction(self, spec3):
        with pytest.raises(ValueError):
            step(spec3, (0.1, 0.1), "sideways")


class TestEscapeTime:
    def test_in_hole_is_zero(self, spec3):
        assert escape_time(spec3, (Fraction(1, 2), Fraction(0)), 10) == 0

    def test_one_step(self, spec3):
        # 1/9 -> 1/3 lands exactly on the left edge of the hole
        assert escape_time(spec3, (Fraction(1, 9), Fraction(0)), 10) == 1

    def test_alive_returns_none(self, spec3):
        assert escape_time(spec3, (Fraction(0), Fraction(0)), 50) is None

    def test_matches_symbolic_interval(self, spec3):
        # points sharing the level-3 itinerary (0,2,0) survive 3 steps
        lo, hi = word_interval(spec3, (0, 2, 0))
        mid = (lo + hi) / 2
        assert escape_time(spec3, (mid, Fraction(0)), 3) is None


# ---------------------------------------------------------------------------
# words and covers
# ---------------------------------------------------------------------------

class TestWords:
    def test_single_symbol_interval(self, spec3):
        assert word_interval(spec3, (0,)) == (Fraction(0), Fraction(1, 3))
        assert word_interval(spec3, (2,)) == (Fraction(2, 3), Fraction(1))

    def test_nested_interval(self, spec3):
        assert word_interval(spec3, (0, 2)) == (
            Fraction(2, 9), Fraction(1, 3))

    def test_empty_word_is_unit_interval(self, spec3):
        assert word_interval(spec3, ()) == (Fraction(0), Fraction(1))

    def test_rejects_removed_symbol(self, spec3):
        with pytest.raises(ValueError):
            word_interval(spec3, (0, 1))

    def test_admissible_enumeration(self, spec3):
        words = admissible_words(spec3, 2)
        assert words == [(0, 0), (0, 2), (2, 0), (2, 2)]


class TestTrappedCover:
    def test_level2_backward_strips(self, spec3):
        strips = trapped_cover(spec3, 2)
        assert len(strips) == 4
        assert all(hi - lo == Fraction(1, 9)
                   for lo, hi in fraction_intervals(strips))
        assert (sum(hi - lo for lo, hi in fraction_intervals(strips))
                == escape_report(spec3, 2).survivor_volume == Fraction(4, 9))

    def test_single_branch_refinement(self):
        spec = validate_spec((0, Fraction(1, 2), 1), (0,))
        strips = trapped_cover(spec, 3)
        assert fraction_intervals(strips) == ((Fraction(0), Fraction(1, 8)),)
        assert escape_report(spec, 3).survivor_volume == Fraction(1, 8)

    @pytest.mark.parametrize("partition,keep,level", [
        ((0, Fraction(1, 2), Fraction(3, 4), 1), (0, 2), 6),
        ((0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1), (0, 1, 3), 5),
    ])
    def test_level_intervals_ascend_disjoint(self, partition, keep, level):
        # refinement keeps the order without sorting, also for unequal widths
        _, intervals = _refine(validate_spec(partition, keep), level)
        assert len(intervals) == len(keep) ** level
        # one common denominator, so numerators order as the endpoints do
        assert all(lo < hi for lo, hi in zip(intervals.los, intervals.his))
        assert all(a <= b for a, b in zip(intervals.his, intervals.los[1:]))

    def test_forward_strips_live_in_xi(self, spec3):
        assert fraction_intervals(trapped_cover(spec3, 1)) == (
            (Fraction(0), Fraction(1, 3)), (Fraction(2, 3), Fraction(1)))

    def test_validation(self, spec3):
        with pytest.raises(ValueError):
            trapped_cover(spec3, 0)

    def test_cover_guard(self, spec3):
        with pytest.raises(HorizonTooLarge, match=r"2\^24 intervals"):
            trapped_cover(spec3, 24)
        # 2^(10^6) has 301030 digits: the guard never forms it
        with pytest.raises(HorizonTooLarge, match=r"2\^1000000 intervals"):
            trapped_cover(spec3, 10 ** 6)


# ---------------------------------------------------------------------------
# escape volumes
# ---------------------------------------------------------------------------

class TestEscapeReport:
    def test_one_step_volume(self, spec3):
        report = escape_report(spec3, 1)
        assert report.escaped_volumes == (Fraction(1, 3),)
        assert report.survivor_volume == Fraction(2, 3)
        assert fraction_intervals(report.survivor_intervals) == (
            (Fraction(0), Fraction(1, 3)), (Fraction(2, 3), Fraction(1)))

    def test_four_step_volume(self, spec3):
        report = escape_report(spec3, 4)
        assert report.survivor_volume == Fraction(16, 81)
        assert report.escaped_volumes[-1] == Fraction(65, 81)

    def test_asym_two_steps(self, asym_spec):
        assert escape_report(asym_spec, 2).survivor_volume == Fraction(9, 16)

    def test_escaped_mass_monotone(self, spec5):
        vols = escape_report(spec5, 6).escaped_volumes
        assert all(a <= b for a, b in zip(vols, vols[1:]))

    def test_survivors_match_trapped_cover(self, spec3, asym_spec):
        for spec in (spec3, asym_spec):
            for m in (1, 2, 3):
                survivors = escape_report(spec, m).survivor_intervals
                assert (Intervals(survivors.los, survivors.his, survivors.den)
                        == trapped_cover(spec, m))

    def test_horizon_validation(self, spec3):
        with pytest.raises(ValueError):
            escape_report(spec3, 0)
        # 2^24 intervals > interval guard, refused before any allocation
        tracemalloc.start()
        try:
            with pytest.raises(HorizonTooLarge):
                escape_report(spec3, 24)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_interval_guard_never_forms_the_power(self, spec3):
        with pytest.raises(HorizonTooLarge, match=r"2\^1000000 intervals"):
            escape_report(spec3, 10 ** 6)

    def test_one_symbol_level_bounded_by_digits(self, monkeypatch):
        # 1^level intervals pass the interval guard at any level, but the
        # numerators over 2^level must stay within 4300 decimal digits:
        # 2^14284 has 4300, 2^14285 has 4301. A Fraction is built only
        # inside the loop, so the patched one shows the loop was entered.
        spec = validate_spec(("0", "1/2", "1"), (0,))

        def loop_entered(*args):
            raise AssertionError("refinement loop entered")

        monkeypatch.setattr(classical, "Fraction", loop_entered)
        for level in (14285, 32000, 10 ** 8):
            with pytest.raises(HorizonTooLarge, match="4300 decimal digits"):
                escape_report(spec, level)
        with pytest.raises(HorizonTooLarge, match="4300 decimal digits"):
            trapped_cover(spec, 10 ** 8)
        with pytest.raises(AssertionError, match="loop entered"):
            escape_report(spec, 14284)

    def test_survivors_stay_integer_numerators_in_memory(self, spec3):
        # 2^15 survivor strips as ints over 3^15; one Fraction per endpoint
        # (two more ints and an object each) would take the peak past 11 MiB
        tracemalloc.start()
        try:
            report = escape_report(spec3, 15)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.survivor_intervals) == 2 ** 15
        assert peak < 5 * 2 ** 20

    def test_non_monotone_volumes_raise(self, spec3, monkeypatch):
        # a refinement whose surviving length grows must not pass silently
        def growing(spec, level):
            alive, intervals = _refine(spec, level)
            return alive[::-1], intervals
        monkeypatch.setattr(classical, "_refine", growing)
        with pytest.raises(NumericalError):
            escape_report(spec3, 3)

    def test_monte_carlo_oracle(self, spec3, asym_spec):
        # independent pointwise check of the interval-refinement volumes:
        # iterate the map on 10^6 uniform seeds in plain float arithmetic
        rng = np.random.default_rng(7011)
        for spec, horizon in ((spec3, 4), (asym_spec, 2)):
            cuts = np.array([float(p) for p in spec.partition])
            lengths = np.diff(cuts)
            kept = np.zeros(spec.branch_count, dtype=bool)
            kept[list(spec.keep)] = True

            x = rng.random(1_000_000)
            alive = np.ones(x.shape, dtype=bool)
            for _ in range(horizon):
                idx = np.clip(np.searchsorted(cuts, x, side="right") - 1,
                              0, spec.branch_count - 1)
                alive &= kept[idx]
                x = np.where(alive, (x - cuts[idx]) / lengths[idx], x)
            p_hat = alive.mean()

            p = float(escape_report(spec, horizon).survivor_volume)
            sigma = math.sqrt(p * (1 - p) / x.size)
            assert abs(p_hat - p) <= 3 * sigma


# ---------------------------------------------------------------------------
# integer-numerator refinement against the Fraction loop
# ---------------------------------------------------------------------------

def _refine_intervals(spec, intervals):
    """Oracle: one refinement step in Fraction arithmetic."""
    out = []
    for s in spec.keep:
        x_s, ell_s = spec.partition[s], spec.lengths[s]
        for lo, hi in intervals:
            out.append((x_s + ell_s * lo, x_s + ell_s * hi))
    return out


def fraction_levels(spec, horizon):
    """Oracle: (escaped volumes, intervals) after each of ``horizon`` steps."""
    escaped, intervals = [], [(Fraction(0), Fraction(1))]
    for _ in range(horizon):
        intervals = _refine_intervals(spec, intervals)
        escaped.append(1 - sum((hi - lo for lo, hi in intervals), Fraction(0)))
        yield tuple(escaped), tuple(intervals)


def assert_matches_fractions(spec, horizon):
    Q = math.lcm(*(p.denominator for p in spec.partition))
    for m, (escaped, intervals) in enumerate(fraction_levels(spec, horizon), 1):
        report = escape_report(spec, m)
        assert report.escaped_volumes == escaped
        assert report.survivor_volume == 1 - escaped[-1]
        assert fraction_intervals(report.survivor_intervals) == intervals
        assert all(type(x) is Fraction for iv in intervals for x in iv)
        # the report itself carries integer numerators over Q^m
        survivors = report.survivor_intervals
        assert survivors.den == Q ** m
        assert all(type(x) is int for x in survivors.los + survivors.his)


class TestIntegerRefinement:
    @pytest.mark.parametrize("partition,keep,horizon", [
        ("0,1/3,2/3,1", (0, 2), 12),
        ("0,1/2,3/4,1", (0, 2), 12),
        ("0,1/5,2/5,3/5,4/5,1", (1, 3), 12),
        # 3^12 intervals take the Fraction oracle ~10 s; 3^10 make the point
        ("0,1/4,1/2,3/4,1", (0, 1, 3), 10),
        # the lcm exceeds every single denominator
        ("0,1/2,5/6,1", (0, 2), 12),     # Q = 6
        ("0,2/7,1/2,1", (0, 1), 12),     # Q = 14
        ("0,2/7,1/2,1", (0, 2), 12),
        # Q^12 = 47^12 passes 2^63
        ("0,1/47,30/47,1", (0, 2), 12),
    ])
    def test_matches_fraction_loop(self, partition, keep, horizon):
        assert_matches_fractions(validate_spec(partition.split(","), keep),
                                 horizon)

    def test_denominators_pass_int64(self):
        spec = validate_spec(("0", "1/47", "30/47", "1"), (0, 2))
        survivors = escape_report(spec, 12).survivor_intervals
        lo, hi = fraction_intervals(survivors)[0]
        assert (hi - lo).denominator == 47 ** 12 > 2 ** 63
        assert survivors.den == 47 ** 12

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_specs_at_level_12(self, seed):
        spec = random_rational_spec(np.random.default_rng(seed), max_keep=2)
        assert_matches_fractions(spec, 12)

    def test_mutant_without_shift_scaling_is_caught(self, spec3, monkeypatch):
        # drop the Q^m factor on a_s: level 1 (Q^0 = 1) still agrees, and
        # the oracle must catch the first level where the factor matters
        source = textwrap.dedent(inspect.getsource(classical._refine))
        mutant = source.replace("(a * den, b)", "(a, b)")
        assert mutant != source
        namespace = dict(vars(classical))
        exec(mutant, namespace)
        monkeypatch.setattr(classical, "_refine", namespace["_refine"])
        assert_matches_fractions(spec3, 1)
        with pytest.raises(AssertionError):
            assert_matches_fractions(spec3, 2)


# ---------------------------------------------------------------------------
# the streamed cover against the list loop
# ---------------------------------------------------------------------------

def list_refine(spec, level):
    """Oracle: the refinement as one list loop that holds every level,
    returning (surviving lengths, los, his, den)."""
    Q = math.lcm(*(p.denominator for p in spec.partition))
    symbols = [(int(Q * spec.partition[s]), int(Q * spec.lengths[s]))
               for s in spec.keep]
    los, his, den = [0], [1], 1
    alive = []
    for _ in range(level):
        shifts = [(a * den, b) for a, b in symbols]
        los = [c + b * lo for c, b in shifts for lo in los]
        his = [c + b * hi for c, b in shifts for hi in his]
        den *= Q
        alive.append(Fraction(sum(hi - lo for lo, hi in zip(los, his)), den))
    return tuple(alive), los, his, den


def list_escape_bytes(spec, horizon):
    """Oracle: escape.json and escape_intervals.csv from the list loop,
    through json.dumps and one Fraction per endpoint."""
    alive, los, his, den = list_refine(spec, horizon)

    def exact(x):
        return {"num": x.numerator, "den": x.denominator}
    payload = {
        "spec_digest": spec_digest(spec),
        "partition": [exact(p) for p in spec.partition],
        "keep": list(spec.keep),
        "horizon": horizon,
        "escaped_volumes": [exact(1 - a) for a in alive],
        "survivor_volume": exact(alive[-1]),
        "survivor_interval_count": len(los),
    }
    lines = ["lo_num,lo_den,hi_num,hi_den"]
    for lo, hi in zip(los, his):
        a, b = Fraction(lo, den), Fraction(hi, den)
        lines.append(f"{a.numerator},{a.denominator},"
                     f"{b.numerator},{b.denominator}")
    return ((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode(),
            ("\n".join(lines) + "\n").encode())


# (partition, keep, horizons): the inner block is 12 levels deep for two
# kept symbols, 7 for three and 5 for five, so each family runs below, at
# and above it; one kept symbol never leaves it
STREAMED_CASES = [
    ("0,1/3,2/3,1", "0,2", range(1, 16)),
    ("0,1/2,3/4,1", "0,2", [15]),
    ("0,1/4,1/2,3/4,1", "0,1,3", [6, 7, 8, 9]),
    ("0,1/6,1/3,1/2,2/3,5/6,1", "0,1,2,3,4", [4, 5, 6]),
    ("0,1/3,2/3,1", "1", [1, 40]),
    ("0,1/2,1", "0", [200]),
    ("0,1/47,30/47,1", "0,2", [12]),  # numerators past 2^63
]


@pytest.mark.parametrize("partition,keep,horizon", [
    (partition, keep, h) for partition, keep, hs in STREAMED_CASES
    for h in hs])
class TestStreamedCover:
    def spec(self, partition, keep):
        return validate_spec(partition.split(","),
                             [int(k) for k in keep.split(",")])

    def test_escape_bytes_match_list_loop(self, tmp_path, partition, keep,
                                          horizon):
        assert main(["escape", "--partition", partition, "--keep", keep,
                     "--horizon", str(horizon),
                     "--outdir", str(tmp_path)]) == 0
        want_json, want_csv = list_escape_bytes(self.spec(partition, keep),
                                                horizon)
        assert (tmp_path / "escape.json").read_bytes() == want_json
        assert (tmp_path / "escape_intervals.csv").read_bytes() == want_csv

    def test_cover_matches_list_loop(self, partition, keep, horizon):
        spec = self.spec(partition, keep)
        alive, los, his, den = list_refine(spec, horizon)
        assert trapped_cover(spec, horizon) == Intervals(tuple(los),
                                                         tuple(his), den)
        got_alive, cover = _refine(spec, horizon)
        assert got_alive == alive
        assert (len(cover), cover.den) == (len(los), den)
        batches = list(cover)
        assert all(0 < len(b) <= classical._BLOCK and b.den == den
                   for b in batches)
        assert [x for b in batches for x in b.los] == los
        assert [x for b in batches for x in b.his] == his


@pytest.mark.parametrize("bound", [1, 2, 5000, 10**7, 10**40])
def test_power_exceeds_matches_the_power(bound):
    for base in range(6):
        for exponent in range(160):
            assert (classical._power_exceeds(base, exponent, bound)
                    == (base ** exponent > bound)), (base, exponent)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_survivor_volume_closed_form(seed, horizon):
    # interval refinement must reproduce (sum ell)^n exactly, any spec
    spec = random_rational_spec(np.random.default_rng(seed), max_keep=3)
    report = escape_report(spec, horizon)
    assert report.survivor_volume == spec.survival_fraction ** horizon


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_step_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    spec = random_rational_spec(rng)
    den = int(rng.integers(2, 100))
    pt = (Fraction(int(rng.integers(0, den)), den),
          Fraction(int(rng.integers(0, den)), den))
    fwd = step(spec, pt)
    if fwd is not None:
        assert step(spec, fwd, "backward") == pt


# ---------------------------------------------------------------------------
# thermodynamics
# ---------------------------------------------------------------------------

class TestPressure:
    def test_topological_entropy_at_zero(self, spec3):
        assert pressure(spec3, 0.0) == pytest.approx(LOG2, abs=1e-14)

    def test_half_pressure_value(self, spec3):
        want = LOG2 - 0.5 * LOG3
        assert pressure(spec3, 0.5) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.14384103622589, abs=1e-12)

    def test_symmetric_closed_form(self, spec5):
        # equal widths 1/D collapse the pressure to log n - s log D
        for s in (-1.0, 0.0, 0.7, 2.5):
            want = LOG2 - s * math.log(5.0)
            assert pressure(spec5, s) == pytest.approx(want, abs=1e-12)

    def test_transfer_operator_route_agrees(self, spec3, asym_spec, rng):
        specs = [spec3, asym_spec] + [random_rational_spec(rng)
                                      for _ in range(8)]
        for spec in specs:
            for s in (0.0, 0.31, 0.5, 1.0, 2.0):
                closed = pressure(spec, s, method="closed_form")
                markov = pressure(spec, s, method="markov")
                assert abs(closed - markov) <= 1e-10

    def test_non_positive_weights_raise(self):
        # 47^-1000 underflows to 0.0, so the weighted matrix is not
        # positive and the uniform vector is no Perron-Frobenius vector
        spec = validate_spec(("0", "1/47", "30/47", "1"), (0, 2))
        with pytest.raises(NumericalError):
            pressure(spec, 1000.0, method="markov")
        with pytest.raises(NumericalError):
            _perron_frobenius_full_shift([])

    def test_unknown_method(self, spec3):
        with pytest.raises(ValueError):
            pressure(spec3, 0.5, method="oracle")

    def test_monotone_decreasing_in_s(self, asym_spec):
        grid = np.linspace(-1.0, 3.0, 50)
        values = [pressure(asym_spec, s) for s in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestDimension:
    def test_middle_thirds_dimension(self, spec3):
        assert cantor_dimension(spec3) == pytest.approx(LOG2 / LOG3, abs=1e-12)

    def test_golden_mean_dimension(self, asym_spec):
        # kept widths 1/2 and 1/4: 2^-s + 4^-s = 1 has the exact solution
        # s = log(phi)/log(2) with phi the golden ratio
        phi = (1 + math.sqrt(5)) / 2
        nu = cantor_dimension(asym_spec)
        assert nu == pytest.approx(math.log(phi) / LOG2, abs=1e-12)
        assert abs(0.5 ** nu + 0.25 ** nu - 1.0) <= 1e-12

    def test_single_branch_dimension_is_zero(self):
        spec = validate_spec((0, Fraction(1, 2), 1), (0,))
        assert cantor_dimension(spec) == 0.0

    def test_unbracketed_root_raises(self):
        # kept widths summing past 1 put f(1) above 0
        wide = SimpleNamespace(kept_lengths=(Fraction(1, 2), Fraction(3, 4)))
        with pytest.raises(NumericalError):
            cantor_dimension(wide)

    def test_pressure_root_consistency(self, rng):
        for _ in range(10):
            spec = random_rational_spec(rng)
            assert abs(pressure(spec, cantor_dimension(spec))) <= 1e-10


class TestThermoReport:
    def test_middle_thirds_report(self, spec3):
        report = thermo_report(spec3)
        assert report.nu == pytest.approx(0.6309297535714574, abs=1e-12)
        assert report.gamma_cl == pytest.approx(math.log(1.5), abs=1e-12)
        assert report.h_top == pytest.approx(LOG2, abs=1e-12)
        assert report.g_half == pytest.approx(2 / math.sqrt(3), abs=1e-12)
        assert report.g_cl == pytest.approx(math.sqrt(2 / 3), abs=1e-12)
        assert report.convexity_ok
        assert len(report.s_grid) == 50
        assert len(report.values) == 50

    def test_five_branch_report(self, spec5):
        report = thermo_report(spec5)
        assert report.nu == pytest.approx(LOG2 / math.log(5), abs=1e-12)
        assert report.gamma_cl == pytest.approx(math.log(2.5), abs=1e-12)
        assert report.g_half == pytest.approx(2 / math.sqrt(5), abs=1e-12)
        assert report.g_cl == pytest.approx(math.sqrt(0.4), abs=1e-12)

    def test_single_branch_report(self):
        spec = validate_spec((0, Fraction(1, 2), 1), (0,))
        report = thermo_report(spec)
        assert report.nu == 0.0
        assert report.gamma_cl == pytest.approx(LOG2, abs=1e-14)
        assert report.h_top == 0.0

    def test_convexity_chain_random(self, rng):
        # -gamma_cl/2 <= P(1/2) <= (h_top - gamma_cl)/2 pointwise
        for _ in range(10):
            spec = random_rational_spec(rng)
            report = thermo_report(spec)
            assert report.convexity_ok
            p_half = pressure(spec, 0.5)
            assert -report.gamma_cl / 2 - 1e-12 <= p_half
            assert p_half <= (report.h_top - report.gamma_cl) / 2 + 1e-12

    def test_grid_equals_pressure_bitwise(self, spec3, asym_spec, rng):
        grid = np.linspace(-1.0, 3.0, 2001)
        specs = [spec3, asym_spec] + [random_rational_spec(rng)
                                      for _ in range(5)]
        for spec in specs:
            values = thermo_report(spec, grid).values
            assert [v.hex() for v in values] == [
                pressure(spec, float(s)).hex() for s in grid]

    @pytest.mark.parametrize("partition,keep,s", [
        pytest.param("0,1/3,2/3,1", (0, 2), -2000.0, id="overflow"),
        pytest.param("0,1/47,30/47,1", (0, 2), 1000.0, id="underflow"),
        pytest.param("0,1/1" + "0" * 400 + ",1", (0,), -1.0,
                     id="width underflows to 0.0"),
    ])
    def test_grid_outside_float_range_raises(self, partition, keep, s):
        # one closed form refuses it for the report and for pressure()
        spec = validate_spec(partition.split(","), keep)
        with pytest.raises(ValidationError, match=f"s={s}") as report_err:
            thermo_report(spec, [0.0, s])
        with pytest.raises(ValidationError, match="widths") as pressure_err:
            pressure(spec, s)
        assert str(report_err.value) == str(pressure_err.value)

    @pytest.mark.parametrize("lo,hi,count", [
        pytest.param(0.0, 1.0, 1, id="one point"),
        pytest.param(0.0, 1.0, 2, id="two points"),
        pytest.param(2.5, 2.5, 1, id="lo == hi, one point"),
        pytest.param(-0.0, -0.0, 5, id="lo == hi == -0.0"),
        pytest.param(3.0, -1.0, 50, id="descending"),
        pytest.param(-1.0, 3.0, 50, id="thermo default"),
        pytest.param(-1.0, 3.0, 20000, id="benchmark thermo grid"),
        pytest.param(0.05, 1.0, 20, id="count default"),
        pytest.param(0.0, 1e-323, 7, id="step underflows to 0"),
    ])
    def test_linspace_is_numpy_bitwise(self, lo, hi, count):
        want = np.linspace(lo, hi, count).tolist()
        assert [x.hex() for x in _linspace(lo, hi, count)] == [
            x.hex() for x in want]

    def test_linspace_zero_step_branch_is_needed(self):
        # index times the underflowed step would give lo at every point
        assert 1e-323 / 6 == 0.0
        assert len(set(_linspace(0.0, 1e-323, 7))) > 2

    def test_linspace_fuzz_is_numpy_bitwise(self):
        rng = random.Random(20261019)

        def end():
            kind = rng.randrange(4)
            if kind == 0:
                return rng.uniform(-10.0, 10.0)
            if kind == 1:
                return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300, 300)
            if kind == 2:
                return rng.choice((0.0, -0.0, 5e-324, -5e-324, 1e-310))
            return float(rng.randrange(-5, 6))

        for _ in range(3000):
            lo = end()
            hi = lo if rng.random() < 0.05 else end()
            count = rng.choice((1, 2, 3, rng.randrange(1, 200)))
            want = np.linspace(lo, hi, count).tolist()
            assert [x.hex() for x in _linspace(lo, hi, count)] == [
                x.hex() for x in want], (lo, hi, count)

    @pytest.mark.parametrize("partition,keep", [
        pytest.param("0,1/3,2/3,1", (0, 2), id="D3"),
        pytest.param("0,1/5,2/5,3/5,4/5,1", (1, 3), id="D5"),
        pytest.param("0,1/2,3/4,1", (0, 2), id="asymmetric"),
        pytest.param("0,1/4,1/2,3/4,1", (0, 1, 3), id="D4"),
    ])
    def test_gap_constants_match_numpy(self, partition, keep):
        # the specs whose thermo output the benchmark and criterion 12
        # compare byte for byte
        spec = validate_spec(partition.split(","), keep)
        report = thermo_report(spec)
        assert report.g_half == float(np.exp(pressure(spec, 0.5)))
        assert report.g_cl == float(np.sqrt(float(spec.survival_fraction)))

    def test_custom_grid(self, spec3):
        grid = np.linspace(0.0, 1.0, 11)
        report = thermo_report(spec3, grid)
        assert np.allclose(report.s_grid, grid)
        assert report.values[0] == pytest.approx(LOG2, abs=1e-14)


def list_linspace(lo, hi, count):
    """Oracle: np.linspace's float rule as one list."""
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


BLOCK = classical._BLOCK


class TestLazyGrid:
    @pytest.mark.parametrize("lo,hi,count", [
        pytest.param(0.0, 1.0, 1, id="one point"),
        pytest.param(2.5, -1.0, 1, id="one point, hi unused"),
        pytest.param(3.0, -1.0, 50, id="descending"),
        pytest.param(-1.0, 3.0, BLOCK, id="one block"),
        pytest.param(-1.0, 3.0, BLOCK + 1, id="one block and a point"),
        pytest.param(-1.0, 3.0, 3 * BLOCK + 5, id="four blocks"),
        pytest.param(0.0, 1e-323, 7, id="step underflows to 0"),
        pytest.param(0.0, 1e-323, 2 * BLOCK + 3,
                     id="step underflows to 0, three blocks"),
    ])
    def test_grid_matches_list_rule(self, lo, hi, count):
        want = [x.hex() for x in list_linspace(lo, hi, count)]
        grid = _linspace(lo, hi, count)
        assert len(grid) == count
        assert [x.hex() for x in grid] == want
        assert [grid[i].hex() for i in range(count)] == want
        assert [grid[i].hex() for i in range(-count, 0)] == want
        for a, b in ((0, count), (1, count - 1), (count - 1, count + 5),
                     (BLOCK - 1, BLOCK + 2), (5, 2)):
            assert [x.hex() for x in grid[a:b]] == want[a:b]
        assert [x.hex() for x in grid[::-3]] == want[::-3]
        for bad in (count, -count - 1):
            with pytest.raises(IndexError):
                grid[bad]

    def test_values_match_pressure_per_point(self, asym_spec):
        grid = _linspace(-1.0, 3.0, 2 * BLOCK + 3)
        report = thermo_report(asym_spec, grid)
        assert report.s_grid is grid
        want = [pressure(asym_spec, s).hex()
                for s in list_linspace(-1.0, 3.0, 2 * BLOCK + 3)]
        assert [v.hex() for v in report.values] == want
        assert [report.values[i].hex() for i in (0, BLOCK, -1)] == [
            want[0], want[BLOCK], want[-1]]
        assert [v.hex() for v in report.values[BLOCK - 2:BLOCK + 2]] == (
            want[BLOCK - 2:BLOCK + 2])

    def test_interior_point_refused_as_the_eager_walk_did(self):
        # the underflow starts inside the grid: s = 750 is the first point
        # past it and s = 1000 the extreme the refusal is checked on
        spec = validate_spec(("0", "1/47", "30/47", "1"), (0, 2))
        with pytest.raises(ValidationError) as err:
            thermo_report(spec, _linspace(0.0, 1000.0, 5))
        assert str(err.value) == (
            "pressure at s=750.0 leaves the float range: the sum of the "
            "kept widths (0.0212766, 0.361702) to the power s is 0.0")

    def test_unordered_grid_refused_at_its_extremes(self, spec3):
        with pytest.raises(ValidationError, match="s=-2000.0"):
            thermo_report(spec3, [1.0, -2000.0, 0.5])
