"""Stable on-disk formats: JSON reports, CSV tables, binary matrices, PGM.

All text output is UTF-8 with '.' decimals and LF newlines regardless of
locale and platform: files are opened with newline="\n", so no "\n" is
translated to CRLF.  Text writers stream: each turns its rows, or its
one JSON walk, into pieces of text, and _write_text buffers them and
writes at most _FLUSH characters at a time (or one longer piece), so a
writer holds one batch of text, never the whole file.  A write that
fails, in its producer or in the file, removes its partial file before
the error propagates, so it leaves no file; the binary matrix writer
does the same.

CSV floats print as %.17g (17 significant digits always round-trip).
JSON is emitted with sorted keys and two-space indent so identical
payloads are byte-identical, and its floats print as Python's shortest
round-trip repr.  Exact rationals serialize as {"num": p, "den": q}.
JSON is strict: a non-finite float is written as the string "inf",
"-inf" or "nan", never as a bare NaN/Infinity token.

Matrix files are binary: 8-byte magic "OQMAPv1\\0", little-endian u64
row and column counts, then the entries column-major as interleaved
(re, im) float64 pairs.  The Husimi PGM is a logarithmic grey scale
over the fixed dynamic range _PGM_DYNAMIC_RANGE = 1e-12.

Only the matrix and PGM writers and the reader import numpy, and the
JSON writer does so only for a value that is not a plain Python type, a
dataclass or a Fraction, so writing an exact report loads no numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from contextlib import contextmanager
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from itertools import chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

from .classical import Cover, Intervals, LazySequence

if TYPE_CHECKING:
    import numpy as np

    from .phasespace import HusimiField

__all__ = [
    "MAGIC",
    "fmt_float",
    "fraction_to_json",
    "fraction_from_json",
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
_BATCH = 4096  # list items per piece of JSON text
_FLUSH = 1 << 16  # characters of text per write

PathLike = Union[str, Path]


def fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def fraction_to_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def fraction_from_json(obj: dict) -> Fraction:
    return Fraction(obj["num"], obj["den"])


@contextmanager
def _removed_on_failure(path: Path, mode: str, **kwargs):
    """path opened for writing; if the body raises, the file is closed and
    removed before the error propagates."""
    fh = path.open(mode, **kwargs)
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_text(path: PathLike, pieces: Iterable[str], end: str = "") -> Path:
    """Each piece followed by end, as UTF-8 with LF newlines: the pieces
    are buffered, and joined and written before the buffer would pass
    _FLUSH characters, so a write holds at most _FLUSH of them or one
    longer piece, which is written at once, not held while the next is made."""
    path = Path(path)
    with _removed_on_failure(path, "w", encoding="utf-8", newline="\n") as fh:
        buffer, size = [], 0
        for piece in pieces:
            cost = len(piece) + len(end)
            if size + cost > _FLUSH and buffer:
                fh.write(end.join(buffer) + end)
                buffer, size = [], 0
            if cost > _FLUSH:
                fh.write(piece + end)
            else:
                buffer.append(piece)
                size += cost
            del piece  # nor held by the loop variable
        if buffer:
            fh.write(end.join(buffer) + end)
    return path


def write_lines(path: PathLike, lines: Iterable[str]) -> Path:
    """UTF-8 text, each line ended by LF: the bytes of
    "\n".join(lines) + "\n", so no lines write one LF.  lines may be any
    iterable; it is consumed once, a batch at a time."""
    lines = iter(lines)
    return _write_text(path, chain((next(lines, ""),), lines), "\n")


def _json_text(obj, pad: str = "") -> Iterator[str]:
    """The pieces of the text json.dumps(..., sort_keys=True, indent=2)
    gives for a report value's plain-type equivalent, floats as
    float.__repr__: a dict key by key, a list or LazySequence in slices
    of _BATCH items, each slice of finite floats one piece and any other
    item by item.

    Fractions become {"num","den"}, complex numbers {"re","im"}, numpy
    scalars and arrays their Python equivalents, dataclasses dicts.
    Non-finite floats become the strings "inf", "-inf" and "nan".
    """
    # the plain types of a report's bulk first: scalars by exact type, one
    # lookup per value, then the containers and their subclasses
    kind = type(obj)
    if kind is float:
        yield float.__repr__(obj) if math.isfinite(obj) else f'"{fmt_float(obj)}"'
    elif kind is int or kind is str or kind is bool or obj is None:
        yield json.dumps(obj, allow_nan=False)
    elif isinstance(obj, (list, tuple, LazySequence)):
        if not obj:
            yield "[]"
            return
        inner = pad + "  "
        first, sep = "[\n" + inner, ",\n" + inner
        isfinite, text = math.isfinite, float.__repr__
        for start in range(0, len(obj), _BATCH):
            items = obj[start:start + _BATCH]
            lead = sep if start else first
            # a slice of finite floats, the bulk of a report, is one piece
            if set(map(type, items)) == {float} and all(map(isfinite, items)):
                yield lead + sep.join(map(text, items))
                continue
            for x in items:
                yield lead
                yield from _json_text(x, inner)
                lead = sep
        yield "\n" + pad + "]"
    elif isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = pad + "  "
        # keys as str(k): of keys that collide, the later one's value wins
        values = {str(k): v for k, v in obj.items()}
        sep = "{\n" + inner
        for key in sorted(values):
            yield sep + json.dumps(key) + ": "
            yield from _json_text(values[key], inner)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif is_dataclass(obj) and not isinstance(obj, type):
        yield from _json_text(asdict(obj), pad)
    elif isinstance(obj, Fraction):
        yield from _json_text(fraction_to_json(obj), pad)
    else:
        import numpy as np  # only numeric commands hand over other values

        if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
            yield from _json_text({"re": float(obj.real),
                                   "im": float(obj.imag)}, pad)
        # np.floating stays here: longdouble.item() returns a longdouble
        elif isinstance(obj, (float, np.floating)):
            yield from _json_text(float(obj))
        elif isinstance(obj, np.generic):
            yield from _json_text(obj.item(), pad)
        elif isinstance(obj, np.ndarray):
            yield from _json_text(obj.tolist(), pad)
        else:
            yield json.dumps(obj, allow_nan=False)  # other types raise TypeError


def write_json(path: PathLike, payload) -> Path:
    """Strict JSON: no bare NaN or Infinity token is ever written."""
    return _write_text(path, chain(_json_text(payload), ("\n",)))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def write_matrix(path: PathLike,
                 matrix: Union[np.ndarray, Iterable[np.ndarray]]) -> Path:
    """Binary dump: magic, u64 rows, u64 cols, column-major (re, im) f64.

    matrix is a 2-D array, or its column blocks left to right, each a 2-D
    array with the same row count.  Blocks are written as they come, one
    column-major copy at a time, so an iterator of them is never joined;
    the header is written last, once the column count is known.  A block
    that raises, or has another row count, leaves no file.
    """
    import numpy as np

    blocks = [matrix] if isinstance(matrix, np.ndarray) else matrix
    rows, cols = None, 0
    path = Path(path)
    with _removed_on_failure(path, "wb") as fh:
        fh.write(MAGIC + bytes(16))  # the counts, filled in below
        for block in blocks:
            B = np.asarray(block, dtype=complex)
            if B.ndim != 2 or rows not in (None, B.shape[0]):
                raise ValueError(f"expected 2-D blocks of one row count, "
                                 f"got shape {B.shape} after {rows} rows")
            rows, cols = B.shape[0], cols + B.shape[1]
            # each complex128 is its (re, im) pair
            fh.write(np.ascontiguousarray(B.T, dtype="<c16"))
        fh.seek(len(MAGIC))
        fh.write(struct.pack("<QQ", rows or 0, cols))
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

    def lines():
        yield "row,col,re,im"
        for r in range(M.shape[0]):
            for c in range(M.shape[1]):
                z = M[r, c]
                yield f"{r},{c},{fmt_float(z.real)},{fmt_float(z.imag)}"
    return write_lines(path, lines())


# ---------------------------------------------------------------------------
# tabular reports
# ---------------------------------------------------------------------------

def write_intervals_csv(path: PathLike,
                        intervals: Union[Intervals, Cover]) -> Path:
    """Columns (lo_num, lo_den, hi_num, hi_den), each endpoint in lowest
    terms: one gcd against the common denominator per endpoint.  Each
    batch of a Cover, or an Intervals as one batch, is one piece of
    text."""
    den = intervals.den
    batches = [intervals] if isinstance(intervals, Intervals) else intervals
    # the text of den // g, per gcd: about m + 1 distinct gcds divide Q^m
    reduced = {}

    def text(batch: Intervals) -> str:
        los, his = batch.los, batch.his
        glos = list(map(math.gcd, los, repeat(den)))
        ghis = list(map(math.gcd, his, repeat(den)))
        for g in set(glos).union(ghis):
            if g not in reduced:
                reduced[g] = str(den // g)
        return "\n".join([f"{lo // g},{reduced[g]},{hi // h},{reduced[h]}"
                          for lo, g, hi, h in zip(los, glos, his, ghis)])
    return _write_text(path, chain(("lo_num,lo_den,hi_num,hi_den",),
                                   map(text, batches)), "\n")


def write_spectrum_csv(path: PathLike, eigenvalues: Sequence[complex]) -> Path:
    """Columns (index, re, im, modulus, lifetime), order as given."""
    def lines():
        yield "index,re,im,modulus,lifetime"
        for i, z in enumerate(eigenvalues):
            modulus = abs(z)
            # + 0.0 normalizes -0.0 at modulus 1 so the column reads "0"
            tau = math.inf if modulus == 0.0 else -2.0 * math.log(modulus) + 0.0
            yield (f"{i},{fmt_float(z.real)},{fmt_float(z.imag)},"
                   f"{fmt_float(modulus)},{fmt_float(tau)}")
    return write_lines(path, lines())


def write_counts_csv(path: PathLike, radii: Sequence[float],
                     counts: Sequence[int], rescaled: Sequence[float]) -> Path:
    def lines():
        yield "r,count,rescaled"
        for r, c, s in zip(radii, counts, rescaled):
            yield f"{fmt_float(r)},{int(c)},{fmt_float(s)}"
    return write_lines(path, lines())


def write_husimi_csv(path: PathLike, field: HusimiField) -> Path:
    """Columns (x, xi, value), x-major."""
    xs = [fmt_float(x) for x in field.x_centers]
    xis = [fmt_float(xi) for xi in field.xi_centers]

    def lines():
        yield "x,xi,value"
        for x, row in zip(xs, field.values):
            for xi, v in zip(xis, row.tolist()):
                yield f"{x},{xi},{fmt_float(v)}"
    return write_lines(path, lines())


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
    if vmax <= 0.0:
        grey = np.zeros((gx, gxi), dtype=int)
    else:
        floor = vmax * _PGM_DYNAMIC_RANGE
        log_span = math.log(1.0 / _PGM_DYNAMIC_RANGE)
        clipped = np.clip(values, floor, vmax)
        grey = np.rint(255.0 * (np.log(clipped / floor)) / log_span).astype(int)
    # top row of pixels = largest xi
    rows = (" ".join(str(int(g)) for g in grey[:, row])
            for row in range(gxi - 1, -1, -1))
    return write_lines(path, chain(("P2", f"{gx} {gxi}", "255"), rows))


def sha256_file(path: PathLike) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
