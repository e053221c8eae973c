"""Output checks for every benchmarked command, and a tamper self-test.

Each check reads the files a command wrote and tests them against a
closed form, an exact rational identity, a structural invariant or a
physics band, using only the standard library, so that no code path of
oqmap is reused to check itself.  Every manifest's SHA-256 values are
recomputed from the files on disk.

The physics bands are those of the acceptance criteria, applied only to
the specs they were stated for and only where they hold at every seed:
criterion 05 (|nu_hat - 0.6309| <= 0.15 for D3 keep 0,2), criterion 06
(0.60 <= r_sp <= 0.92 for D5 keep 1,3) and criterion 11 (Husimi
enhancement >= 2 for the top modes of D5 keep 1,3).

``selftest`` feeds tampered copies of good outputs back through the
same grading that counts failed commands, and reports any tamper that
was not counted, so that no check passes vacuously.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import struct
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from workloads import Command

D3_SPEC = ("0,1/3,2/3,1", "0,2")
D5_SPEC = ("0,1/5,2/5,3/5,4/5,1", "1,3")
MAGIC = b"OQMAPv1\0"


class Outcome(NamedTuple):
    """One finished command: how it exited and where it wrote."""

    command: Command
    returncode: int
    outdir: Path
    error: str = ""


# ---------------------------------------------------------------------------
# reading inputs and outputs
# ---------------------------------------------------------------------------

def option(argv: Sequence[str], flag: str) -> str:
    return argv[list(argv).index(flag) + 1]


def _lengths(argv: Sequence[str]) -> Tuple[List[Fraction], List[int]]:
    points = [Fraction(t) for t in option(argv, "--partition").split(",")]
    keep = [int(t) for t in option(argv, "--keep").split(",")]
    widths = [b - a for a, b in zip(points, points[1:])]
    return [widths[i] for i in keep], keep


def _spec(argv: Sequence[str]) -> Tuple[str, str]:
    return option(argv, "--partition"), option(argv, "--keep")


def _dims(text: str) -> List[int]:
    parts = [int(p) for p in text.split(":")]
    return parts if len(parts) == 1 else list(range(parts[0], parts[1] + 1,
                                                    parts[2]))


def _admissible(argv: Sequence[str]) -> List[int]:
    points = [Fraction(t) for t in option(argv, "--partition").split(",")]
    widths = [b - a for a, b in zip(points, points[1:])]
    return [N for N in _dims(option(argv, "--N"))
            if all((w * N).denominator == 1 for w in widths)]


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _rows(path: Path) -> List[List[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# per-command checks; each returns a list of problems
# ---------------------------------------------------------------------------

def _thermo(argv, out: Path) -> List[str]:
    kept, _ = _lengths(argv)
    j = _json(out / "thermo.json")
    problems = []
    moran = sum(float(l) ** j["nu"] for l in kept)
    if not _close(moran, 1.0, 0.0, 1e-9):
        problems.append(f"Moran sum at nu={j['nu']!r} is {moran!r}, not 1")
    gamma = -math.log(float(sum(kept)))
    if not _close(j["gamma_cl"], gamma, 1e-12):
        problems.append(f"gamma_cl {j['gamma_cl']!r} != -log(sum ell) {gamma!r}")
    if j["convexity_ok"] is not True:
        problems.append("convexity_ok is not true")
    grid = [a for a in argv if a.startswith("--s-grid=")]
    if grid and len(j["s_grid"]) != int(grid[0].rsplit(":", 1)[1]):
        problems.append(f"pressure curve has {len(j['s_grid'])} points")
    for s, p in zip(j["s_grid"], j["pressure_values"]):
        # closed form P(-s phi+) = log sum ell^s
        if not _close(p, math.log(sum(float(l) ** s for l in kept)),
                      1e-12, 1e-15):
            problems.append(f"pressure at s={s!r} is not log sum ell^s")
            break
    return problems


def _escape(argv, out: Path) -> List[str]:
    kept, keep = _lengths(argv)
    horizon = int(option(argv, "--horizon"))
    alive = sum(kept)
    j = _json(out / "escape.json")
    problems = []
    volumes = [Fraction(v["num"], v["den"]) for v in j["escaped_volumes"]]
    want = [1 - alive ** m for m in range(1, horizon + 1)]
    if volumes != want:
        problems.append("escaped volumes are not 1 - (sum ell)^m, m=1..horizon")
    survivor = j["survivor_volume"]
    if Fraction(survivor["num"], survivor["den"]) != alive ** horizon:
        problems.append("survivor volume is not (sum ell)^horizon")
    rows = _rows(out / "escape_intervals.csv")
    if len(rows) != len(keep) ** horizon or \
            j["survivor_interval_count"] != len(keep) ** horizon:
        problems.append(f"{len(rows)} survivor intervals, "
                        f"want |keep|^horizon = {len(keep) ** horizon}")
    den = math.lcm(*{int(r[1]) for r in rows}, *{int(r[3]) for r in rows})
    total = sum(int(r[2]) * (den // int(r[3])) - int(r[0]) * (den // int(r[1]))
                for r in rows)
    if Fraction(total, den) != alive ** horizon:
        problems.append("survivor intervals do not sum to (sum ell)^horizon")
    return problems


def _spectrum(argv, out: Path) -> List[str]:
    N = int(option(argv, "--N"))
    j = _json(out / "spectrum.json")
    rows = _rows(out / "spectrum.csv")
    problems = []
    eigs = [complex(float(r[1]), float(r[2])) for r in rows]
    if len(eigs) != N or j["eigenvalue_count"] != N:
        problems.append(f"{len(eigs)} eigenvalues, want N={N}")
    moduli = [abs(z) for z in eigs]
    if any(b > a * (1 + 1e-12) for a, b in zip(moduli, moduli[1:])):
        problems.append("eigenvalues are not in descending modulus order")
    if moduli and moduli[0] > 1 + 1e-9:
        problems.append(f"spectral radius {moduli[0]!r} exceeds 1")
    if "--dump-matrix" in argv:
        path = out / "spectrum_matrix.bin"
        with path.open("rb") as fh:
            magic = fh.read(8)
            rows_n, cols_n = struct.unpack("<QQ", fh.read(16))
            trace = 0j
            for i in range(min(rows_n, cols_n)):
                fh.seek(24 + 16 * (i * rows_n + i))
                re, im = struct.unpack("<dd", fh.read(16))
                trace += complex(re, im)
        if magic != MAGIC or rows_n != N or cols_n != N:
            problems.append(f"matrix header {magic!r} {rows_n}x{cols_n}")
        if path.stat().st_size != 24 + 16 * N * N:
            problems.append(f"matrix file holds {path.stat().st_size} bytes")
        # the trace of M equals the sum of its eigenvalues
        tol = 1e-9 + N * j["backward_error"]
        if abs(trace - sum(eigs)) > tol:
            problems.append(f"trace {trace} != eigenvalue sum {sum(eigs)}")
    return problems


def _count(argv, out: Path) -> List[str]:
    N = int(option(argv, "--N"))
    j = _json(out / "count.json")
    rows = _rows(out / "count.csv")
    problems = []
    radii = [float(r[0]) for r in rows]
    counts = [int(r[1]) for r in rows]
    if radii != sorted(radii) or counts != sorted(counts, reverse=True):
        problems.append("counts are not nonincreasing in the radius")
    if any(not 0 <= c <= N for c in counts):
        problems.append(f"a count lies outside 0..{N}")
    for r, c, s in zip(radii, counts, (float(r[2]) for r in rows)):
        if not _close(s, c / N ** j["nu"], 1e-12):
            problems.append(f"rescaled count at r={r!r} is not C/N^nu")
            break
    if j["spectral_radius"] > 1 + 1e-9:
        problems.append(f"spectral radius {j['spectral_radius']!r} exceeds 1")
    return problems


def _radius_scan(argv, out: Path) -> List[str]:
    kept, _ = _lengths(argv)
    rows = _rows(out / "radius_scan.csv")
    problems = []
    if [int(r[0]) for r in rows] != _admissible(argv):
        problems.append("scanned dimensions differ from the admissible ones")
    g_half = sum(math.sqrt(float(l)) for l in kept)
    g_cl = math.sqrt(float(sum(kept)))
    band = (0.60, 0.92) if _spec(argv) == D5_SPEC else (0.0, 1.0 + 1e-9)
    for r in rows:
        r_sp = float(r[1])
        if not band[0] <= r_sp <= band[1]:
            problems.append(f"r_sp {r_sp!r} at N={r[0]} outside {band}")
        if not (_close(float(r[2]), g_half, 1e-12)
                and _close(float(r[3]), g_cl, 1e-12)):
            problems.append(f"pressure levels at N={r[0]} differ from "
                            f"the closed forms")
    return problems


def _weyl_fit(argv, out: Path) -> List[str]:
    kept, _ = _lengths(argv)
    j = _json(out / "weyl_fit.json")
    rows = _rows(out / "weyl_fit_samples.csv")
    problems = []
    dims = _admissible(argv)
    if [int(r[0]) for r in rows] != dims:
        problems.append("sampled dimensions differ from the admissible ones")
    if any(not 0 <= int(r[1]) <= int(r[0]) for r in rows):
        problems.append("a count lies outside 0..N")
    moran = sum(float(l) ** j["nu_classical"] for l in kept)
    if not _close(moran, 1.0, 0.0, 1e-9):
        problems.append(f"nu_classical fails the Moran equation ({moran!r})")
    if _spec(argv) == D3_SPEC and not abs(j["nu_hat"] - 0.6309) <= 0.15:
        problems.append(f"nu_hat {j['nu_hat']!r} outside 0.6309 +- 0.15")
    return problems


def _walsh(argv, out: Path) -> List[str]:
    D = int(option(argv, "--branches"))
    n = len(option(argv, "--keep").split(","))
    k = int(option(argv, "--word-length"))
    j = _json(out / "walsh.json")
    problems = []
    if j["nontrivial_count"] != n ** k:
        problems.append(f"nontrivial count {j['nontrivial_count']} != n^k "
                        f"= {n ** k}")
    if len(_rows(out / "walsh_spectrum.csv")) != D ** k or \
            j["dimension"] != D ** k:
        problems.append(f"spectrum does not hold D^k = {D ** k} values")
    if j["spectral_radius"] > n / math.sqrt(D) + 1e-8:
        problems.append(f"spectral radius {j['spectral_radius']!r} exceeds "
                        f"n/sqrt(D) = {n / math.sqrt(D)!r}")
    return problems


def _effective(argv, out: Path) -> List[str]:
    j = _json(out / "effective.json")
    rows = _rows(out / "effective_roots.csv")
    problems = []
    if j["unmatched"] != 0:
        problems.append(f"{j['unmatched']} annulus eigenvalues unmatched")
    if not j["max_identity_rel_error"] <= 1e-8:
        problems.append(f"determinant identity error "
                        f"{j['max_identity_rel_error']!r} > 1e-8")
    if not 1 <= j["matched"] == j["outer_count"] == len(rows):
        problems.append(f"matched {j['matched']} of {j['outer_count']} "
                        f"outer eigenvalues, {len(rows)} rows")
    if any(not float(r[5]) <= 1e-6 for r in rows):
        problems.append("a refined root lies more than 1e-6 from its "
                        "eigenvalue")
    return problems


def _husimi(argv, out: Path) -> List[str]:
    grid = int(option(argv, "--grid"))
    j = _json(out / "husimi.json")
    values = [float(r[2]) for r in _rows(out / "husimi.csv")]
    problems = []
    if len(values) != grid * grid:
        problems.append(f"{len(values)} Husimi cells, want {grid * grid}")
    # the grid average of a Husimi field estimates ||u||^2 = 1
    mean = math.fsum(values) / max(len(values), 1)
    if not abs(mean - 1.0) <= 1e-9:
        problems.append(f"Husimi grid mean {mean!r} is not 1")
    if _spec(argv) == D5_SPEC and not j["enhancement_ratio"] >= 2.0:
        problems.append(f"enhancement ratio {j['enhancement_ratio']!r} < 2")
    head = (out / "husimi.pgm").read_text(encoding="ascii").split("\n")[:3]
    if head != ["P2", f"{grid} {grid}", "255"]:
        problems.append(f"PGM header {head!r}")
    return problems


Check = Callable[[Sequence[str], Path], List[str]]

# command -> (outputs it must write, semantic check)
CHECKS: Dict[str, Tuple[Callable[[Sequence[str]], List[str]], Check]] = {
    "thermo": (lambda a: ["thermo.json"], _thermo),
    "escape": (lambda a: ["escape.json", "escape_intervals.csv"], _escape),
    "spectrum": (lambda a: ["spectrum.csv", "spectrum.json"]
                 + (["spectrum_matrix.bin"] if "--dump-matrix" in a else []),
                 _spectrum),
    "count": (lambda a: ["count.csv", "count.json"], _count),
    "radius-scan": (lambda a: ["radius_scan.csv"], _radius_scan),
    "weyl-fit": (lambda a: ["weyl_fit_samples.csv", "weyl_fit.json"],
                 _weyl_fit),
    "walsh": (lambda a: ["walsh_spectrum.csv", "walsh.json"], _walsh),
    "effective": (lambda a: ["effective_roots.csv", "effective.json"],
                  _effective),
    "husimi": (lambda a: ["husimi.csv", "husimi.pgm", "husimi.json"],
               _husimi),
}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_path(command: Command, out: Path) -> Path:
    return out / f"{command.name.replace('-', '_')}_manifest.json"


def check(command: Command, out: Path) -> List[str]:
    """Problems with one command's outputs; empty when they are correct."""
    expected, semantic = CHECKS[command.name]
    try:
        manifest = _json(manifest_path(command, out))
        listed = {o["path"]: o for o in manifest["outputs"]}
        problems = [f"missing output {name}" for name in expected(command.argv)
                    if name not in listed or not (out / name).is_file()]
        for name, entry in listed.items():
            path = out / name
            if path.is_file() and (_sha256(path) != entry["sha256"]
                                   or path.stat().st_size != entry["bytes"]):
                problems.append(f"{name} does not match its manifest entry")
        if problems:
            return problems
        return semantic(command.argv, out)
    except Exception as exc:  # a malformed output is a failed check
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def grade(outcomes: Sequence[Outcome]) -> List[Tuple[Outcome, List[str]]]:
    """The failed commands among ``outcomes``, each with its problems.

    A command fails if it exits nonzero, leaves out an expected output,
    or fails its check.
    """
    failed = []
    for outcome in outcomes:
        if outcome.returncode != 0:
            problems = [f"exit code {outcome.returncode}: {outcome.error}"]
        else:
            problems = check(outcome.command, outcome.outdir)
        if problems:
            failed.append((outcome, problems))
    return failed


# ---------------------------------------------------------------------------
# tamper self-test
# ---------------------------------------------------------------------------

def _edit_json(key: str, change: Callable):
    def edit(path: Path) -> None:
        data = _json(path)
        data[key] = change(data[key])
        path.write_text(json.dumps(data), encoding="utf-8")
    return edit


def _edit_csv(row: int, col: int, change: Callable[[str], str]):
    def edit(path: Path) -> None:
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[row + 1].split(",")
        cells[col] = change(cells[col])
        lines[row + 1] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
    return edit


def _bump_last_volume(volumes):
    volumes[-1]["num"] += 1
    return volumes


# command -> (file, edit) that breaks a semantic check but not the manifest
TAMPERS: Dict[str, Tuple[str, Callable[[Path], None]]] = {
    "thermo": ("thermo.json", _edit_json("nu", lambda v: v * (1 + 1e-6))),
    "escape": ("escape.json", _edit_json("escaped_volumes", _bump_last_volume)),
    "spectrum": ("spectrum.csv", _edit_csv(0, 1, lambda v: repr(float(v) + 1e-3))),
    "count": ("count.csv", _edit_csv(0, 1, lambda v: str(int(v) + 1))),
    "radius-scan": ("radius_scan.csv", _edit_csv(0, 1, lambda v: "0.95")),
    "weyl-fit": ("weyl_fit.json", _edit_json("nu_hat", lambda v: 0.9)),
    "walsh": ("walsh.json", _edit_json("nontrivial_count", lambda v: v - 1)),
    "effective": ("effective.json", _edit_json("unmatched", lambda v: 1)),
    "husimi": ("husimi.csv", _edit_csv(0, 2, lambda v: repr(float(v) + 10.0))),
}


def _reseal(command: Command, out: Path, name: str) -> None:
    """Rewrite the manifest entry of ``name`` to match its edited bytes."""
    path = manifest_path(command, out)
    manifest = _json(path)
    for entry in manifest["outputs"]:
        if entry["path"] == name:
            entry["sha256"] = _sha256(out / name)
            entry["bytes"] = (out / name).stat().st_size
    path.write_text(json.dumps(manifest), encoding="utf-8")


def selftest(outcomes: Sequence[Outcome], scratch: Path) -> List[str]:
    """Tamper with copies of passing outputs; report tampers not caught.

    Three tampers per command: a semantic edit with a resealed manifest
    (only the oracle can catch it), a flipped byte with the manifest left
    alone (the hash check), and a deleted output file.
    """
    tampered: List[Outcome] = []
    for i, outcome in enumerate(outcomes):
        name, edit = TAMPERS[outcome.command.name]
        for kind in ("semantic", "hash", "missing"):
            copy = scratch / f"{i}-{kind}"
            shutil.copytree(outcome.outdir, copy)
            if kind == "semantic":
                edit(copy / name)
                _reseal(outcome.command, copy, name)
            elif kind == "hash":
                data = bytearray((copy / name).read_bytes())
                data[len(data) // 2] ^= 0x01
                (copy / name).write_bytes(bytes(data))
            else:
                (copy / name).unlink()
            tampered.append(outcome._replace(outdir=copy))
    tampered.append(outcomes[0]._replace(returncode=1, error="tamper"))
    caught = {id(o) for o, _ in grade(tampered)}
    missed = [f"{o.command.name} {o.outdir.name}" for o in tampered
              if id(o) not in caught]
    shutil.rmtree(scratch, ignore_errors=True)
    return missed
