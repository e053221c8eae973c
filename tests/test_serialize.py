"""Serialization layer: stable JSON, the binary matrix container, the
CSV table schemas, and the PGM rendering.

Formats are part of the tool's contract (reruns must be byte-identical),
so these tests pin exact bytes, not just values.
"""

import json
import math
import struct
from collections import OrderedDict, namedtuple
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oqmap.serialize
from oqmap import HusimiField, Intervals, escape_report, validate_spec
from oqmap.cli import main
from oqmap.serialize import (
    MAGIC,
    fmt_float,
    fraction_from_json,
    fraction_to_json,
    json_ready,
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


class TestJsonReady:
    def test_complex_and_fraction(self):
        out = json_ready({"z": 1 + 2j, "q": Fraction(1, 3)})
        assert out == {"z": {"re": 1.0, "im": 2.0}, "q": {"num": 1, "den": 3}}

    def test_numpy_scalars_and_arrays(self):
        out = json_ready({"f": np.float64(0.5), "i": np.int64(4),
                          "a": np.array([1.0, 2.0])})
        assert out == {"f": 0.5, "i": 4, "a": [1.0, 2.0]}
        assert isinstance(out["i"], int)

    def test_complex_array(self):
        out = json_ready(np.array([1j]))
        assert out == [{"re": 0.0, "im": 1.0}]

    def test_non_finite_floats_become_strings(self):
        out = json_ready({"p": math.inf, "m": np.float64(-np.inf),
                          "n": math.nan, "z": complex(math.inf, math.nan)})
        assert out == {"p": "inf", "m": "-inf", "n": "nan",
                       "z": {"re": "inf", "im": "nan"}}

    def test_write_json_is_strict(self, tmp_path, monkeypatch):
        path = write_json(tmp_path / "x.json", {"t": [math.inf, 1.5]})
        assert json.loads(path.read_text()) == {"t": ["inf", 1.5]}
        # a value the mapping misses raises instead of writing Infinity
        monkeypatch.setattr(oqmap.serialize, "json_ready", lambda obj: obj)
        with pytest.raises(ValueError):
            write_json(tmp_path / "y.json", {"t": math.inf})

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
    """The isinstance chain json_ready used before its exact-type dispatch."""
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


class TestJsonWriterOracle:
    """write_json dispatches on exact types and emits the text itself; its
    bytes must equal those of json.dumps over the old isinstance chain."""

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

    @pytest.mark.parametrize("value", [
        math.inf, -math.inf, math.nan, [1.5, math.nan], {"a": {"b": -math.inf}},
    ], ids=["inf", "-inf", "nan", "nan in list", "-inf in dict"])
    def test_bare_non_finite_raises(self, tmp_path, monkeypatch, value):
        monkeypatch.setattr(oqmap.serialize, "json_ready", lambda obj: obj)
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", value)
        assert not (tmp_path / "x.json").exists()

    def test_numpy_bool_and_str(self, tmp_path):
        # the old chain passed these through, and json.dumps refused them
        out = json_ready({"t": np.bool_(True), "s": np.str_("a")})
        assert out == {"t": True, "s": "a"}
        assert type(out["t"]) is bool and type(out["s"]) is str
        path = write_json(tmp_path / "x.json", [np.bool_(False)])
        assert path.read_text() == "[\n  false\n]\n"

    def test_unknown_type_raises(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "x.json", {"s": {1, 2}})


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
        rng = np.random.default_rng(8)
        gx, gxi = 40, 33
        field = HusimiField((np.arange(gx) + 0.5) / gx,
                            (np.arange(gxi) + 0.5) / gxi,
                            rng.random((gx, gxi)) * 10.0 ** rng.integers(-9, 3, (gx, gxi)))
        lines = ["x,xi,value"]
        for a, x in enumerate(field.x_centers):
            for b, xi in enumerate(field.xi_centers):
                lines.append(f"{fmt_float(x)},{fmt_float(xi)},"
                             f"{fmt_float(field.values[a, b])}")
        want = ("\n".join(lines) + "\n").encode()
        path = write_husimi_csv(tmp_path / "h.csv", field)
        assert path.read_bytes() == want


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
