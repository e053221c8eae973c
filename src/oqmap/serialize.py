"""Stable on-disk formats: JSON reports, CSV tables, binary matrices, PGM.

All text output is UTF-8 with '.' decimals and LF newlines regardless of
locale.  CSV floats print as %.17g (17 significant digits always
round-trip).  JSON is emitted with sorted keys and two-space indent so
identical payloads are byte-identical, and its floats print as Python's
shortest round-trip repr.  Exact rationals serialize as
{"num": p, "den": q}.  JSON is strict: a non-finite float is written as
the string "inf", "-inf" or "nan", never as a bare NaN/Infinity token.

Matrix files are binary: 8-byte magic "OQMAPv1\\0", little-endian u64
row and column counts, then the entries column-major as interleaved
(re, im) float64 pairs.  The Husimi PGM is a logarithmic grey scale
over the fixed dynamic range _PGM_DYNAMIC_RANGE = 1e-12.

Only the matrix and PGM writers and the reader import numpy, and
json_ready does so only for a value that is not a plain Python type or
a Fraction, so writing an exact report loads no numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .classical import Intervals

if TYPE_CHECKING:
    import numpy as np

    from .phasespace import HusimiField

__all__ = [
    "MAGIC",
    "fmt_float",
    "fraction_to_json",
    "fraction_from_json",
    "json_ready",
    "write_json",
    "write_lines",
    "write_matrix",
    "read_matrix",
    "write_matrix_csv",
    "write_intervals_csv",
    "write_spectrum_csv",
    "write_counts_csv",
    "write_husimi_csv",
    "write_husimi_pgm",
    "sha256_file",
]

MAGIC = b"OQMAPv1\0"
_PGM_DYNAMIC_RANGE = 1e-12

PathLike = Union[str, Path]


def fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def fraction_to_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def fraction_from_json(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def json_ready(obj):
    """Recursively convert reports to plain JSON types.

    Fractions become {"num","den"}, complex numbers {"re","im"}, numpy
    scalars and arrays their Python equivalents, dataclasses dicts.
    Non-finite floats become the strings "inf", "-inf" and "nan".
    """
    # the plain types of a report's bulk first: scalars by exact type, one
    # lookup per value, then the containers and their subclasses
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else fmt_float(obj)
    if kind is int or kind is str or kind is bool or obj is None:
        return obj
    if isinstance(obj, (list, tuple)):
        return [json_ready(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return json_ready(asdict(obj))
    if isinstance(obj, Fraction):
        return fraction_to_json(obj)
    import numpy as np  # only numeric commands hand over other values

    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return {"re": json_ready(float(obj.real)),
                "im": json_ready(float(obj.imag))}
    # np.floating stays here: longdouble.item() returns a longdouble
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else fmt_float(value)
    if isinstance(obj, np.generic):
        return json_ready(obj.item())
    if isinstance(obj, np.ndarray):
        return [json_ready(x) for x in obj.tolist()]
    return obj


def write_lines(path: PathLike, lines: Iterable[str]) -> Path:
    """UTF-8 text, each line ended by LF."""
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _json_text(obj, pad: str = "") -> str:
    """The text json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    gives for a json_ready value, floats as float.__repr__."""
    kind = type(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    if kind is list:
        if not obj:
            return "[]"
        inner = pad + "  "
        # finite floats, the bulk of a report, inline without a call
        items = [float.__repr__(x) if type(x) is float and math.isfinite(x)
                 else _json_text(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [json.dumps(key) + ": " + _json_text(obj[key], inner)
                 for key in sorted(obj)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    # str, int, bool and None keep json's escaping; other types raise TypeError
    return json.dumps(obj, allow_nan=False)


def write_json(path: PathLike, payload) -> Path:
    """Strict JSON: a NaN or Infinity that json_ready missed raises."""
    return write_lines(path, [_json_text(json_ready(payload))])


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def write_matrix(path: PathLike, matrix: np.ndarray) -> Path:
    """Binary dump: magic, u64 rows, u64 cols, column-major (re, im) f64."""
    import numpy as np

    M = np.asarray(matrix, dtype=complex)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {M.shape}")
    rows, cols = M.shape
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<QQ", rows, cols))
        # one column-major copy; each complex128 is its (re, im) pair
        fh.write(np.ascontiguousarray(M.T, dtype="<c16"))
    return path


def read_matrix(path: PathLike) -> np.ndarray:
    import numpy as np

    with Path(path).open("rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        rows, cols = struct.unpack("<QQ", fh.read(16))
        data = fh.read(rows * cols * 16)
    if len(data) != rows * cols * 16:
        raise ValueError("matrix file truncated")
    # whole complex128 entries: re + 1j * im loses -0.0 and inf imaginary parts
    return np.frombuffer(data, dtype="<c16").reshape(cols, rows).T.copy()


def write_matrix_csv(path: PathLike, matrix: np.ndarray) -> Path:
    """Entry list (row, col, re, im); intended for small matrices."""
    import numpy as np

    M = np.asarray(matrix, dtype=complex)
    lines = ["row,col,re,im"]
    for r in range(M.shape[0]):
        for c in range(M.shape[1]):
            z = M[r, c]
            lines.append(f"{r},{c},{fmt_float(z.real)},{fmt_float(z.imag)}")
    return write_lines(path, lines)


# ---------------------------------------------------------------------------
# tabular reports
# ---------------------------------------------------------------------------

def write_intervals_csv(path: PathLike, intervals: Intervals) -> Path:
    """Columns (lo_num, lo_den, hi_num, hi_den), each endpoint in lowest
    terms: one gcd against the common denominator per endpoint."""
    den = intervals.den
    # the text of den // g, per gcd: about m + 1 distinct gcds divide Q^m
    reduced = {}
    lines = ["lo_num,lo_den,hi_num,hi_den"]
    for lo, hi in zip(intervals.los, intervals.his):
        g, h = math.gcd(lo, den), math.gcd(hi, den)
        if g not in reduced:
            reduced[g] = str(den // g)
        if h not in reduced:
            reduced[h] = str(den // h)
        lines.append(f"{lo // g},{reduced[g]},{hi // h},{reduced[h]}")
    return write_lines(path, lines)


def write_spectrum_csv(path: PathLike, eigenvalues: Sequence[complex]) -> Path:
    """Columns (index, re, im, modulus, lifetime), order as given."""
    lines = ["index,re,im,modulus,lifetime"]
    for i, z in enumerate(eigenvalues):
        modulus = abs(z)
        # + 0.0 normalizes -0.0 at modulus 1 so the column reads "0"
        tau = math.inf if modulus == 0.0 else -2.0 * math.log(modulus) + 0.0
        lines.append(f"{i},{fmt_float(z.real)},{fmt_float(z.imag)},"
                     f"{fmt_float(modulus)},{fmt_float(tau)}")
    return write_lines(path, lines)


def write_counts_csv(path: PathLike, radii: Sequence[float],
                     counts: Sequence[int], rescaled: Sequence[float]) -> Path:
    lines = ["r,count,rescaled"]
    for r, c, s in zip(radii, counts, rescaled):
        lines.append(f"{fmt_float(r)},{int(c)},{fmt_float(s)}")
    return write_lines(path, lines)


def write_husimi_csv(path: PathLike, field: HusimiField) -> Path:
    """Columns (x, xi, value), x-major."""
    lines = ["x,xi,value"]
    xs = [fmt_float(x) for x in field.x_centers]
    xis = [fmt_float(xi) for xi in field.xi_centers]
    for x, row in zip(xs, field.values.tolist()):
        lines.extend(f"{x},{xi},{fmt_float(v)}" for xi, v in zip(xis, row))
    return write_lines(path, lines)


def write_husimi_pgm(path: PathLike, field: HusimiField) -> Path:
    """ASCII PGM (P2) rendering on a logarithmic grey scale.

    x runs left to right, xi bottom to top; brightest pixel = field max,
    black = _PGM_DYNAMIC_RANGE (1e-12) times it or less (or anything
    nonpositive).
    """
    import numpy as np

    values = field.values
    gx, gxi = values.shape
    vmax = float(values.max())
    lines = ["P2", f"{gx} {gxi}", "255"]
    if vmax <= 0.0:
        grey = np.zeros((gx, gxi), dtype=int)
    else:
        floor = vmax * _PGM_DYNAMIC_RANGE
        log_span = math.log(1.0 / _PGM_DYNAMIC_RANGE)
        clipped = np.clip(values, floor, vmax)
        grey = np.rint(255.0 * (np.log(clipped / floor)) / log_span).astype(int)
    for row in range(gxi - 1, -1, -1):  # top row of pixels = largest xi
        lines.append(" ".join(str(int(g)) for g in grey[:, row]))
    return write_lines(path, lines)


def sha256_file(path: PathLike) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
