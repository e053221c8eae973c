"""Stable on-disk formats: JSON reports, CSV tables, binary matrices, PGM.

All text output is UTF-8 with '.' decimals and LF newlines regardless of
locale; floats print as %.17g (shortest lossless round-trip for doubles
is not needed, 17 significant digits always suffice).  JSON is emitted
with sorted keys and two-space indent so identical payloads are
byte-identical.  Exact rationals serialize as {"num": p, "den": q}.
JSON is strict: a non-finite float is written as the string "inf",
"-inf" or "nan", never as a bare NaN/Infinity token.

Matrix files are binary: 8-byte magic "OQMAPv1\\0", little-endian u64
row and column counts, then the entries column-major as interleaved
(re, im) float64 pairs.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .classical import Intervals
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
    if is_dataclass(obj) and not isinstance(obj, type):
        return json_ready(asdict(obj))
    if isinstance(obj, Fraction):
        return fraction_to_json(obj)
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return {"re": json_ready(float(obj.real)),
                "im": json_ready(float(obj.imag))}
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else fmt_float(value)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [json_ready(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(x) for x in obj]
    return obj


def write_lines(path: PathLike, lines: Iterable[str]) -> Path:
    """UTF-8 text, each line ended by LF."""
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path: PathLike, payload) -> Path:
    """Strict JSON: a NaN or Infinity that json_ready missed raises."""
    return write_lines(path, [json.dumps(json_ready(payload), sort_keys=True,
                                         indent=2, allow_nan=False)])


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def write_matrix(path: PathLike, matrix: np.ndarray) -> Path:
    """Binary dump: magic, u64 rows, u64 cols, column-major (re, im) f64."""
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
    lines = ["lo_num,lo_den,hi_num,hi_den"]
    for lo, hi in zip(intervals.los, intervals.his):
        g, h = math.gcd(lo, den), math.gcd(hi, den)
        lines.append(f"{lo // g},{den // g},{hi // h},{den // h}")
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


def write_husimi_pgm(path: PathLike, field: HusimiField,
                     dynamic_range: float = 1e-12) -> Path:
    """ASCII PGM (P2) rendering on a logarithmic grey scale.

    x runs left to right, xi bottom to top; brightest pixel = field max,
    black = dynamic_range below it (or anything nonpositive).
    """
    values = field.values
    gx, gxi = values.shape
    vmax = float(values.max())
    lines = ["P2", f"{gx} {gxi}", "255"]
    if vmax <= 0.0:
        grey = np.zeros((gx, gxi), dtype=int)
    else:
        floor = vmax * dynamic_range
        log_span = math.log(1.0 / dynamic_range)
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
