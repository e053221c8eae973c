"""Serialization layer: stable JSON, the binary matrix container, the
CSV table schemas, and the PGM rendering.

Formats are part of the tool's contract (reruns must be byte-identical),
so these tests pin exact bytes, not just values.
"""

import hashlib
import json
import math
import struct
import tracemalloc
from collections import OrderedDict, namedtuple
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oqmap import (HusimiField, Intervals, escape_report, thermo_report,
                   validate_spec)
from oqmap.cli import main, parse_float_grid
from oqmap import serialize
from oqmap.classical import LazySequence, _linspace
from oqmap.serialize import (
    _BATCH,
    _FLUSH,
    MAGIC,
    fmt_float,
    fraction_from_json,
    fraction_to_json,
    read_matrix,
    sha256_file,
    write_counts_csv,
    write_husimi_csv,
    write_husimi_pgm,
    write_intervals_csv,
    write_json,
    write_lines,
    write_matrix,
    write_matrix_csv,
    write_spectrum_csv,
)

from conftest import fraction_intervals


class TestScalars:
    def test_fmt_float_17_digits(self):
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(1 / 3) == "0.33333333333333331"
        assert fmt_float(1.0) == "1"
        assert fmt_float(-0.0) == "-0"
        assert fmt_float(math.inf) == "inf"

    def test_fraction_roundtrip(self):
        for frac in (Fraction(1, 3), Fraction(-7, 2), Fraction(0)):
            assert fraction_from_json(fraction_to_json(frac)) == frac

    def test_fraction_json_shape(self):
        assert fraction_to_json(Fraction(2, 6)) == {"num": 1, "den": 3}


def refuse_constant(token):
    raise ValueError(f"bare {token} token in strict JSON")


def written(tmp_path, payload):
    """The value write_json's file parses to, refusing NaN and Infinity."""
    path = write_json(tmp_path / "x.json", payload)
    return json.loads(path.read_text(), parse_constant=refuse_constant)


@dataclass
class Lifetime:
    value: float


class TestJsonReady:
    """Report values as write_json writes them."""

    def test_complex_and_fraction(self, tmp_path):
        out = written(tmp_path, {"z": 1 + 2j, "q": Fraction(1, 3)})
        assert out == {"z": {"re": 1.0, "im": 2.0}, "q": {"num": 1, "den": 3}}

    def test_numpy_scalars_and_arrays(self, tmp_path):
        out = written(tmp_path, {"f": np.float64(0.5), "i": np.int64(4),
                                 "a": np.array([1.0, 2.0])})
        assert out == {"f": 0.5, "i": 4, "a": [1.0, 2.0]}
        assert isinstance(out["i"], int)

    def test_complex_array(self, tmp_path):
        out = written(tmp_path, np.array([1j]))
        assert out == [{"re": 0.0, "im": 1.0}]

    def test_non_finite_floats_become_strings(self, tmp_path):
        out = written(tmp_path, {"p": math.inf, "m": np.float64(-np.inf),
                                 "n": math.nan, "z": complex(math.inf, math.nan)})
        assert out == {"p": "inf", "m": "-inf", "n": "nan",
                       "z": {"re": "inf", "im": "nan"}}

    def test_write_json_is_strict(self, tmp_path):
        # every position a report can hold a non-finite float in
        for value, text in ((math.inf, "inf"), (-math.inf, "-inf"),
                            (math.nan, "nan")):
            out = written(tmp_path, {
                "bare": value, "list": [1.5, value], "dict": {"v": value},
                "numpy": np.float32(value), "complex": complex(value, 0.5),
                "dataclass": Lifetime(value), "array": np.array([value, 0.25]),
            })
            assert out == {
                "bare": text, "list": [1.5, text], "dict": {"v": text},
                "numpy": text, "complex": {"re": text, "im": 0.5},
                "dataclass": {"value": text}, "array": [text, 0.25],
            }
            assert written(tmp_path, value) == text

    def test_golden_json_bytes(self, tmp_path):
        path = write_json(tmp_path / "x.json",
                          {"b": Fraction(1, 3), "a": [1 + 2j]})
        want = (
            '{\n'
            '  "a": [\n'
            '    {\n'
            '      "im": 2.0,\n'
            '      "re": 1.0\n'
            '    }\n'
            '  ],\n'
            '  "b": {\n'
            '    "den": 3,\n'
            '    "num": 1\n'
            '  }\n'
            '}\n'
        )
        assert path.read_text() == want


def old_json_ready(obj):
    """The isinstance chain that made a report plain before write_json
    dispatched on exact types and walked it once."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return old_json_ready(asdict(obj))
    if isinstance(obj, Fraction):
        return fraction_to_json(obj)
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return {"re": old_json_ready(float(obj.real)),
                "im": old_json_ready(float(obj.imag))}
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else fmt_float(value)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [old_json_ready(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): old_json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_json_ready(x) for x in obj]
    return obj


def old_json_bytes(payload) -> bytes:
    """Oracle: the file write_json wrote through json.dumps."""
    text = json.dumps(old_json_ready(payload), sort_keys=True, indent=2,
                      allow_nan=False)
    return (text + "\n").encode("utf-8")


@dataclass
class Sample:
    label: str
    weight: Fraction
    roots: tuple


Pair = namedtuple("Pair", "re im")


class Row(list):
    pass


def every_type_payload():
    return {
        "empty": {"list": [], "dict": {}, "tuple": (), "array": np.zeros(0)},
        "nested": [[[]], [{}], {"deep": [{"deeper": [1, [2.5, [None]]]}]}],
        "tuple": (1, 2.0, "three", (4,)),
        "größe ✓": "naïve \u00e9 \U0001F600 \"quoted\" back\\slash\n\ttab \x00",
        "keys": {10: "ten", 3: "three", 2.5: "float key", "": "empty key"},
        # str(k) collides: the later value wins
        "collide": {1: "int one", "1": "str one", "2": "str two", 2: "int two"},
        "ints": [0, -1, 2**64 + 1, -(3**80), 10**300],
        "bools": [True, False],
        "none": None,
        "floats": [0.1, -0.0, 0.0, 1e16, 1e22, 1e-7, 123456789.0, 5e-324,
                   2.2250738585072014e-308, 1.7976931348623157e308, -1 / 3],
        "non_finite": [math.inf, -math.inf, math.nan],
        "numpy_scalars": [np.float64(0.1), np.float32(0.1), np.float16(-2.5),
                          np.longdouble(0.5), np.int64(-7), np.uint8(200),
                          np.float64(-np.inf), np.float32(np.nan),
                          np.complex64(1 - 2j), np.clongdouble(0.25 + 4j)],
        "arrays": [np.array([[1.0, np.nan], [-0.0, 2.5]]), np.arange(3),
                   np.array([1j, complex(np.inf, -0.0)])],
        "complex": [1 + 2j, complex(math.inf, math.nan), -0j],
        "fraction": Fraction(-7, 3),
        "dataclass": Sample("s", Fraction(1, 3), (1 + 1j, 0.5)),
        "subclasses": [OrderedDict([("b", Row([1.5, math.nan])), ("a", 2)]),
                       Pair(0.25, Fraction(1, 2)), Row([])],
    }


plain_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=6)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=6)),
    max_leaves=40)


numpy_scalars = st.one_of(
    st.floats(width=16).map(np.float16), st.floats(width=32).map(np.float32),
    st.floats().map(np.float64), st.floats().map(np.longdouble),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.complex_numbers(width=64).map(np.complex64),
    st.complex_numbers().map(np.complex128))

mixed_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | numpy_scalars | st.fractions() | st.complex_numbers()
    | st.lists(st.floats(), max_size=4).map(np.array),
    lambda children: (st.lists(children, max_size=6)
                      | st.lists(children, max_size=6).map(tuple)
                      | st.dictionaries(st.text(max_size=6) | st.integers(),
                                        children, max_size=6)),
    max_leaves=40)


class TestJsonWriterOracle:
    """write_json turns a report into its text in one walk that dispatches
    on exact types; its bytes must equal those of json.dumps over the old
    isinstance chain."""

    def test_every_accepted_type(self, tmp_path):
        payload = every_type_payload()
        path = write_json(tmp_path / "x.json", payload)
        assert path.read_bytes() == old_json_bytes(payload)

    @settings(max_examples=100, deadline=None)
    @given(plain_json)
    def test_plain_json_payload(self, tmp_path_factory, payload):
        path = write_json(tmp_path_factory.mktemp("json") / "x.json",
                          {"payload": payload})
        assert path.read_bytes() == old_json_bytes({"payload": payload})

    @settings(max_examples=100, deadline=None)
    @given(mixed_json)
    def test_mixed_payload(self, tmp_path_factory, payload):
        path = write_json(tmp_path_factory.mktemp("json") / "x.json",
                          {"payload": payload})
        assert path.read_bytes() == old_json_bytes({"payload": payload})

    def test_numpy_bool_and_str(self, tmp_path):
        # the old chain passed these through, and json.dumps refused them
        path = write_json(tmp_path / "x.json",
                          {"t": np.bool_(True), "s": np.str_("a")})
        assert path.read_text() == '{\n  "s": "a",\n  "t": true\n}\n'
        path = write_json(tmp_path / "x.json", [np.bool_(False)])
        assert path.read_text() == "[\n  false\n]\n"

    def test_unknown_type_raises(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "x.json", {"s": {1, 2}})
        # a failed write leaves no file behind
        assert not (tmp_path / "x.json").exists()


class TestBinaryMatrix:
    def test_golden_layout(self, tmp_path):
        M = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
        path = write_matrix(tmp_path / "m.bin", M)
        blob = path.read_bytes()
        assert blob[:8] == MAGIC == b"OQMAPv1\x00"
        assert struct.unpack("<QQ", blob[8:24]) == (2, 2)
        # column-major interleaved (re, im) doubles
        want = struct.pack("<8d", 1, 2, 5, 6, 3, 4, 7, 8)
        assert blob[24:] == want

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        path = write_matrix(tmp_path / "m.bin", M)
        assert np.array_equal(read_matrix(path), M)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + struct.pack("<QQ", 1, 1) + b"\0" * 16)
        with pytest.raises(ValueError, match="magic"):
            read_matrix(path)

    def test_truncated(self, tmp_path):
        M = np.eye(2, dtype=complex)
        path = write_matrix(tmp_path / "m.bin", M)
        blob = path.read_bytes()
        (tmp_path / "short.bin").write_bytes(blob[:24 + 32])
        with pytest.raises(ValueError, match="truncated"):
            read_matrix(tmp_path / "short.bin")

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "m.bin", np.zeros(4))

    def test_write_returns_identical_bytes(self, tmp_path):
        M = np.array([[0.5 + 0.25j]])
        a = write_matrix(tmp_path / "a.bin", M)
        b = write_matrix(tmp_path / "b.bin", M)
        assert sha256_file(a) == sha256_file(b)


def interleaved_matrix_bytes(matrix) -> bytes:
    """The file write_matrix wrote through a (cols, rows, 2) float array."""
    M = np.asarray(matrix, dtype=complex)
    rows, cols = M.shape
    interleaved = np.empty((cols, rows, 2), dtype="<f8")
    interleaved[:, :, 0] = M.T.real
    interleaved[:, :, 1] = M.T.imag
    return MAGIC + struct.pack("<QQ", rows, cols) + interleaved.tobytes()


def special_matrix() -> np.ndarray:
    """Signed zeros, NaN, infinities and a subnormal in both parts.

    The parts are set in place: re + 1j * im would turn an infinite
    imaginary part into a NaN real part and -0.0 into +0.0.
    """
    values = [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan, 5e-324]
    rng = np.random.default_rng(3)
    M = np.empty((6, 8), dtype=complex)
    M.real = rng.choice(values, size=M.shape)
    M.imag = rng.choice(values, size=M.shape)
    return M


def bits(matrix) -> bytes:
    """The complex128 bits of a matrix in row-major order."""
    return np.ascontiguousarray(matrix, dtype=complex).tobytes()


class TestMatrixWriterOracle:
    """write_matrix writes one column-major complex128 copy; the bytes
    must equal those of the interleaved float writer it replaced, and
    read_matrix must give every bit of the input back."""

    @pytest.mark.parametrize("view", [
        lambda M: M,
        lambda M: M[:, ::2],
        lambda M: M.T,
        lambda M: M[::-1, 1:7:3],
        lambda M: M.real,
        lambda M: np.asarray(M.real, dtype=np.float32),
        lambda M: M.imag.astype(">f8"),
    ], ids=["contiguous", "strided columns", "transposed", "reversed strided",
            "real float64", "real float32", "big-endian float64"])
    def test_bytes_match_interleaved_writer(self, tmp_path, view):
        M = view(special_matrix())
        path = write_matrix(tmp_path / "m.bin", M)
        assert path.read_bytes() == interleaved_matrix_bytes(M)
        back = read_matrix(path)
        assert back.dtype == np.complex128 and back.shape == M.shape
        assert bits(back) == bits(M)

    def test_empty_matrix(self, tmp_path):
        M = np.zeros((3, 0), dtype=complex)
        path = write_matrix(tmp_path / "m.bin", M)
        assert path.read_bytes() == interleaved_matrix_bytes(M)
        assert read_matrix(path).shape == (3, 0)

    @pytest.mark.parametrize("widths", [[8], [3, 5], [1, 0, 2, 5], [0, 8]])
    def test_column_blocks_write_the_joined_matrix(self, tmp_path, widths):
        M = special_matrix()
        edges = np.cumsum([0, *widths])
        blocks = (M[:, lo:hi] for lo, hi in zip(edges, edges[1:]))
        path = write_matrix(tmp_path / "m.bin", blocks)
        assert path.read_bytes() == interleaved_matrix_bytes(M)

    def test_column_blocks_need_one_row_count(self, tmp_path):
        blocks = iter([np.zeros((3, 2)), np.zeros((4, 2))])
        with pytest.raises(ValueError, match="one row count"):
            write_matrix(tmp_path / "m.bin", blocks)
        # the first block was written under a 0 x 0 header, which
        # read_matrix would take for an empty matrix: no file is left
        assert not (tmp_path / "m.bin").exists()
        with pytest.raises(ValueError, match="one row count"):
            write_matrix(tmp_path / "m.bin", iter([np.zeros(3)]))
        assert not (tmp_path / "m.bin").exists()

    def test_no_column_blocks(self, tmp_path):
        path = write_matrix(tmp_path / "m.bin", iter([]))
        assert path.read_bytes() == MAGIC + struct.pack("<QQ", 0, 0)
        assert read_matrix(path).shape == (0, 0)


class TestCsvSchemas:
    def test_matrix_csv(self, tmp_path):
        path = write_matrix_csv(tmp_path / "m.csv",
                                np.array([[1.0 + 0.5j, 0.0]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,re,im"
        assert lines[1] == "0,0,1,0.5"
        assert lines[2] == "0,1,0,0"

    def test_intervals_csv(self, tmp_path):
        # [0, 1/3) and [2/3, 1) as numerators over 3
        path = write_intervals_csv(tmp_path / "iv.csv",
                                   Intervals((0, 2), (1, 3), 3))
        assert path.read_text() == (
            "lo_num,lo_den,hi_num,hi_den\n0,1,1,3\n2,3,1,1\n")

    def test_spectrum_csv(self, tmp_path):
        path = write_spectrum_csv(tmp_path / "s.csv",
                                  [1.0 + 0.0j, 0.0j, 0.5j])
        lines = path.read_text().splitlines()
        assert lines[0] == "index,re,im,modulus,lifetime"
        assert lines[1] == "0,1,0,1,0"
        assert lines[2] == "1,0,0,0,inf"
        assert lines[3].startswith("2,0,0.5,0.5,")
        assert float(lines[3].split(",")[4]) == pytest.approx(
            -2 * math.log(0.5), rel=1e-15)

    def test_counts_csv(self, tmp_path):
        path = write_counts_csv(tmp_path / "c.csv", [0.5, 1.0], [12, 0],
                                [1.5, 0.0])
        lines = path.read_text().splitlines()
        assert lines[0] == "r,count,rescaled"
        assert lines[1] == "0.5,12,1.5"
        assert lines[2] == "1,0,0"

    def test_husimi_csv(self, tmp_path):
        field = HusimiField(np.array([0.25, 0.75]), np.array([0.5]),
                            np.array([[1.0], [2.0]]))
        path = write_husimi_csv(tmp_path / "h.csv", field)
        assert path.read_text() == (
            "x,xi,value\n0.25,0.5,1\n0.75,0.5,2\n")

    def test_husimi_csv_bytes_match_per_cell_formatting(self, tmp_path):
        field = random_husimi_field(40, 33)
        path = write_husimi_csv(tmp_path / "h.csv", field)
        assert path.read_bytes() == per_cell_husimi_bytes(field)


def random_husimi_field(gx: int, gxi: int) -> HusimiField:
    rng = np.random.default_rng(8)
    return HusimiField((np.arange(gx) + 0.5) / gx,
                       (np.arange(gxi) + 0.5) / gxi,
                       rng.random((gx, gxi)) * 10.0 ** rng.integers(-9, 3, (gx, gxi)))


def per_cell_husimi_bytes(field: HusimiField) -> bytes:
    """Oracle: the Husimi CSV formatted cell by cell and joined."""
    lines = ["x,xi,value"]
    for a, x in enumerate(field.x_centers):
        for b, xi in enumerate(field.xi_centers):
            lines.append(f"{fmt_float(x)},{fmt_float(xi)},"
                         f"{fmt_float(field.values[a, b])}")
    return ("\n".join(lines) + "\n").encode()


def fraction_intervals_csv(path, intervals):
    """Oracle: the interval CSV from one Fraction per endpoint."""
    lines = ["lo_num,lo_den,hi_num,hi_den"]
    for lo, hi in fraction_intervals(intervals):
        lines.append(f"{lo.numerator},{lo.denominator},"
                     f"{hi.numerator},{hi.denominator}")
    return write_lines(path, lines)


class TestIntervalsCsvOracle:
    @pytest.mark.parametrize("partition,keep,horizon", [
        ("0,1/3,2/3,1", "0,2", 12),
        ("0,1/2,3/4,1", "0,2", 12),  # reducible endpoints over 4^m
        ("0,1/4,1/2,3/4,1", "0,1,3", 8),
        ("0,1/47,30/47,1", "0,2", 12),  # numerators past 2^63
    ])
    def test_escape_csv_matches_fraction_writer(self, tmp_path, partition,
                                                keep, horizon):
        # also the mutation check: a writer that skips the gcd writes
        # 0,3^12 for lo = 0 and unreduced numerators over 4^m
        assert main(["escape", "--partition", partition, "--keep", keep,
                     "--horizon", str(horizon),
                     "--outdir", str(tmp_path / "out")]) == 0
        spec = validate_spec(partition.split(","),
                             [int(k) for k in keep.split(",")])
        want = fraction_intervals_csv(
            tmp_path / "oracle.csv",
            escape_report(spec, horizon).survivor_intervals)
        assert ((tmp_path / "out" / "escape_intervals.csv").read_bytes()
                == want.read_bytes())


def joined_lines_bytes(lines) -> bytes:
    """Oracle: the file write_lines wrote from its whole joined text."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def joined_intervals_bytes(intervals) -> bytes:
    """Oracle: write_intervals_csv's file as one list of lines, joined."""
    den = intervals.den
    lines = ["lo_num,lo_den,hi_num,hi_den"]
    for lo, hi in zip(intervals.los, intervals.his):
        g, h = math.gcd(lo, den), math.gcd(hi, den)
        lines.append(f"{lo // g},{den // g},{hi // h},{den // h}")
    return joined_lines_bytes(lines)


@pytest.fixture(scope="module")
def cover_d3_horizon_15():
    """The 2^15 = 32768 survivor intervals of escape D3 --horizon 15."""
    spec = validate_spec(["0", "1/3", "2/3", "1"], [0, 2])
    return escape_report(spec, 15).survivor_intervals


@pytest.fixture(scope="module")
def thermo_payload():
    """thermo.json's payload at --s-grid=-1:3:20000, 40000 floats."""
    spec = validate_spec(["0", "1/2", "3/4", "1"], [0, 2])
    report = thermo_report(spec, parse_float_grid("-1:3:20000"))
    return {"partition": list(spec.partition), "keep": list(spec.keep),
            "s_grid": list(report.s_grid),
            "pressure_values": list(report.values), "nu": report.nu,
            "gamma_cl": report.gamma_cl, "h_top": report.h_top,
            "g_half": report.g_half, "g_cl": report.g_cl,
            "convexity_ok": report.convexity_ok}


def traced_peak(write) -> int:
    """Bytes a call allocates at its peak beyond what exists before it."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamingWriters:
    """Text writers hand _BATCH lines or JSON pieces to the file at a
    time; their bytes must equal those of the whole text joined, and a
    write that fails must leave no file."""

    @pytest.mark.parametrize("count", [0, 1, _BATCH - 1, _BATCH, _BATCH + 1,
                                       2 * _BATCH + 3])
    def test_write_lines_bytes(self, tmp_path, count):
        lines = [f"line {i}" for i in range(count)]
        path = write_lines(tmp_path / "x.txt", iter(lines))
        assert path.read_bytes() == joined_lines_bytes(lines)
        assert write_lines(tmp_path / "y.txt", lines).read_bytes() \
            == joined_lines_bytes(lines)

    def test_write_lines_empty_first_line(self, tmp_path):
        for lines in ([""], ["", ""], ["", "a"], ["a", ""]):
            path = write_lines(tmp_path / "x.txt", lines)
            assert path.read_bytes() == joined_lines_bytes(lines)

    def test_intervals_csv_bytes(self, tmp_path, cover_d3_horizon_15):
        assert len(cover_d3_horizon_15.los) == 2 ** 15
        path = write_intervals_csv(tmp_path / "iv.csv", cover_d3_horizon_15)
        assert path.read_bytes() == joined_intervals_bytes(cover_d3_horizon_15)

    def test_husimi_csv_bytes(self, tmp_path):
        # the benchmark's grid: 36865 lines, nine batches
        field = random_husimi_field(192, 192)
        path = write_husimi_csv(tmp_path / "h.csv", field)
        assert path.read_bytes() == per_cell_husimi_bytes(field)

    def test_thermo_json_bytes(self, tmp_path, thermo_payload):
        path = write_json(tmp_path / "thermo.json", thermo_payload)
        assert path.read_bytes() == old_json_bytes(thermo_payload)

    def test_intervals_csv_holds_one_batch(self, tmp_path,
                                           cover_d3_horizon_15):
        # the joined writer allocated 4.78 MiB beyond its input here
        peak = traced_peak(lambda: write_intervals_csv(
            tmp_path / "iv.csv", cover_d3_horizon_15))
        assert peak < 2 ** 20

    def test_thermo_json_holds_one_batch(self, tmp_path, thermo_payload):
        # the joined writer allocated 3.72 MiB beyond its input here
        peak = traced_peak(lambda: write_json(tmp_path / "thermo.json",
                                              thermo_payload))
        assert peak < 2 ** 20

    def test_writes_hold_at_most_flush_characters(self, tmp_path,
                                                  monkeypatch):
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        @contextmanager
        def recorded(path, mode, **kwargs):
            yield Recorder()

        monkeypatch.setattr(serialize, "_removed_on_failure", recorded)
        long_piece = "y" * (_FLUSH + 7)
        pieces = ["x" * 100] * 2000 + [long_piece] + ["z" * 999] * 200
        serialize._write_text(tmp_path / "x.txt", pieces, "\n")
        assert "".join(writes) == "\n".join(pieces) + "\n"
        assert len(writes) > 3
        assert all(len(w) <= _FLUSH or w == long_piece + "\n" for w in writes)

    def test_long_piece_is_written_before_the_next_is_made(self, tmp_path,
                                                          monkeypatch):
        # a piece past _FLUSH is not held while the producer builds the
        # next one, as it was when it waited in the buffer
        writes = []

        class Recorder:
            def write(self, text):
                writes.append(text)

        @contextmanager
        def recorded(path, mode, **kwargs):
            yield Recorder()

        monkeypatch.setattr(serialize, "_removed_on_failure", recorded)
        long_piece = "y" * (_FLUSH + 7)
        seen = []

        def pieces():
            yield "x" * 100
            yield long_piece
            seen.append(list(writes))  # resumed: the next piece is asked for
            yield long_piece + "z"
            seen.append(list(writes))
            yield "w" * 10

        serialize._write_text(tmp_path / "x.txt", pieces(), "\n")
        assert seen == [["x" * 100 + "\n", long_piece + "\n"],
                        ["x" * 100 + "\n", long_piece + "\n",
                         long_piece + "z\n"]]
        assert "".join(writes) == "\n".join(
            ["x" * 100, long_piece, long_piece + "z", "w" * 10]) + "\n"

    @pytest.mark.parametrize("items", [
        pytest.param([0.5] * _BATCH + [math.nan] + [0.25] * _BATCH,
                     id="nan opens the second slice"),
        pytest.param([0.1 * i for i in range(2 * _BATCH - 1)] + [math.inf],
                     id="inf closes the second slice"),
        pytest.param([1.5] * (_BATCH + 3) + [1, True, None, "a", [2.5]],
                     id="other types in the second slice"),
        pytest.param([np.float64(0.1)] + [0.3] * _BATCH + [np.float32(0.2)],
                     id="numpy floats"),
        pytest.param([[0.5] * (_BATCH + 1)] * 2, id="nested float lists"),
    ])
    def test_float_slices_match_item_walk(self, tmp_path, items):
        for payload in (items, {"a": tuple(items), "b": 1}):
            path = write_json(tmp_path / "x.json", payload)
            assert path.read_bytes() == old_json_bytes(payload)

    def test_lazy_sequence_writes_as_its_list(self, tmp_path):
        grid = _linspace(-1.0, 3.0, 2 * _BATCH + 5)
        empty = LazySequence(0, grid.__getitem__)
        path = write_json(tmp_path / "x.json", {"g": grid, "e": empty})
        assert path.read_bytes() == old_json_bytes({"g": list(grid),
                                                    "e": []})

    def test_sha256_file_reads_in_chunks(self, tmp_path):
        data = bytes(range(256)) * 1000 + b"tail"  # about four reads
        (tmp_path / "x.bin").write_bytes(data)
        assert (sha256_file(tmp_path / "x.bin")
                == hashlib.sha256(data).hexdigest())

    def test_failed_line_producer_leaves_no_file(self, tmp_path):
        def lines():
            # two batches reach the file before the failure
            yield from map(str, range(2 * _BATCH + 1))
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            write_lines(tmp_path / "x.csv", lines())
        assert not (tmp_path / "x.csv").exists()

    def test_failed_csv_row_leaves_no_file(self, tmp_path):
        radii = [0.5] * (3 * _BATCH)
        counts = [1] * (3 * _BATCH - 1) + ["not a count"]
        with pytest.raises(ValueError):
            write_counts_csv(tmp_path / "c.csv", radii, counts, radii)
        assert not (tmp_path / "c.csv").exists()

    def test_late_bad_json_value_leaves_no_file(self, tmp_path):
        # the set sorts after more than two batches of floats
        payload = {"a": [0.5] * (2 * _BATCH + 1), "b": {1, 2}}
        with pytest.raises(TypeError):
            write_json(tmp_path / "x.json", payload)
        assert not (tmp_path / "x.json").exists()

    def test_failed_overwrite_leaves_no_file(self, tmp_path):
        path = write_lines(tmp_path / "x.csv", ["old"])
        with pytest.raises(TypeError):
            write_json(path, [0.5] * (2 * _BATCH) + [object()])
        assert not path.exists()


class TestPgm:
    def make_field(self, values):
        gx, gxi = values.shape
        return HusimiField((np.arange(gx) + 0.5) / gx,
                           (np.arange(gxi) + 0.5) / gxi,
                           values)

    def test_header_and_scale(self, tmp_path):
        values = np.zeros((32, 32))
        values[2, 31] = 1.0
        path = write_husimi_pgm(tmp_path / "h.pgm", self.make_field(values))
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "32 32"
        assert lines[2] == "255"
        assert len(lines) == 3 + 32
        # top pixel row corresponds to the largest xi centre
        top = [int(t) for t in lines[3].split()]
        assert top[2] == 255
        assert sum(top) == 255
        bottom = [int(t) for t in lines[-1].split()]
        assert all(g == 0 for g in bottom)
        greys = [int(t) for row in lines[3:] for t in row.split()]
        assert all(0 <= g <= 255 for g in greys)

    def test_zero_field_is_black(self, tmp_path):
        path = write_husimi_pgm(tmp_path / "z.pgm",
                                self.make_field(np.zeros((32, 32))))
        greys = [int(t) for row in path.read_text().splitlines()[3:]
                 for t in row.split()]
        assert set(greys) == {0}

    def test_log_scale_midpoint(self, tmp_path):
        # a value at sqrt(dynamic_range) of max lands mid-grey
        values = np.full((32, 32), 1e-12)
        values[0, 0] = 1.0
        values[1, 0] = 1e-6
        path = write_husimi_pgm(tmp_path / "m.pgm", self.make_field(values))
        rows = path.read_text().splitlines()[3:]
        bottom = [int(t) for t in rows[-1].split()]
        assert bottom[0] == 255
        assert abs(bottom[1] - 128) <= 1
