"""Command-line pipeline for open-baker experiments.

Each subcommand maps onto one library operation, writes its CSV/JSON
artifacts into --outdir, and records a RunManifest JSON naming every
output with its SHA-256.  Given identical arguments (and seed, where one
applies), one numpy/BLAS build and one BLAS thread count, the artifact
files are byte-identical across reruns; only the manifest's wall_time_s
field varies.  A different BLAS thread count rounds the eigensolver and
the Frobenius norm differently.  Between 1 and 2 threads, on D3 at
N=972 (husimi: D5 at N=500), that moved the spectrum.csv rows in the
|lambda| < 1e-3 cluster, the last digits of backward_error and
spectral_radius, and husimi.csv; count.csv did not move.  The exact
commands (escape, thermo) use no BLAS.

Exit codes: 0 success, 2 ill-posed input (validation), 3 numerical
failure.  Rational inputs are "p/q" tokens; decimal tokens are accepted
only where no exact-arithmetic guarantee is at stake (purely spectral
commands), and are parsed as exact decimal fractions, never binary
floats.  Dimension ranges use start:stop:step (stop inclusive); values
failing the N*ell_i divisibility requirement are skipped and listed in
the manifest.  Sweeps over dimensions run serially; BLAS threads are
the only parallelism.

The exact classical commands (escape, thermo) run on the standard
library alone: numpy and the numeric layers (quantize, spectral,
phasespace) are bound into this module by _bind_numeric, which _run
calls for every other command, so those two start without loading them.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from .classical import (
    INTERVAL_GUARD,
    _DIGIT_GUARD,
    BakerSpec,
    _linspace,
    cantor_dimension,
    escape_report,
    spec_digest,
    thermo_report,
    validate_spec,
)
from .errors import DimensionGuard, DivisibilityError, NumericalError, ValidationError
from .serialize import (
    fmt_float,
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

__all__ = ["main", "build_parser", "exit_code_for"]

# the commands that run on the exact classical layer alone
_EXACT_COMMANDS = ("escape", "thermo")


def _bind_numeric() -> None:
    """Bind numpy and the numeric layers' names as globals of this module.

    Idempotent: a name already bound, by an earlier call or by a caller
    that patched this module (a test, the benchmark's tracer), is kept.
    """
    import numpy as np

    from .phasespace import (
        CoherentFrame,
        _validate_grid,
        husimi_report,
        merged_strip_cover,
    )
    from .quantize import (
        DENSE_GUARD,
        QuantizationConfig,
        _block_sizes,
        _phase_factors,
        quantize_open,
        walsh_open,
    )
    from .spectral import (
        _check_m_max,
        _check_nu,
        _check_probes,
        _check_radii,
        _qr_bound,
        count_profile,
        effective_hamiltonian,
        eigen_decompose,
        trapped_quasiprojector,
        weyl_fit,
    )
    for name, value in dict(locals()).items():
        globals().setdefault(name, value)


def __getattr__(name: str):
    """Outside access to a numeric name binds the numeric layers first."""
    if not name.startswith("__"):
        _bind_numeric()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# token parsing
# ---------------------------------------------------------------------------

def parse_rational(token: str, allow_decimal: bool) -> Fraction:
    """Parse 'p/q', an integer, or (where allowed) an exact decimal."""
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/")
            return Fraction(int(num), int(den))
        if any(c in token for c in ".eE"):
            if not allow_decimal:
                raise ValidationError(
                    f"decimal token {token!r} not accepted here; "
                    f"use an exact p/q rational")
            # the exact value is digits * 10^exponent: bound both of its
            # parts before Fraction forms 10^|exponent|
            _, digits, exponent = Decimal(token).as_tuple()
            if max(len(digits) + max(exponent, 0), 1 - exponent) > _DIGIT_GUARD:
                raise ValidationError(
                    f"cannot parse rational token {token!r}: its exact "
                    f"value needs more than {_DIGIT_GUARD} digits")
            return Fraction(token)  # exact decimal, not a binary float
        return Fraction(int(token))
    except (ArithmeticError, ValueError) as exc:
        raise ValidationError(f"cannot parse rational token {token!r}") from exc


def parse_partition(text: str, allow_decimal: bool) -> Tuple[Fraction, ...]:
    return tuple(parse_rational(tok, allow_decimal)
                 for tok in text.split(",") if tok.strip())


def parse_keep(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"cannot parse keep set {text!r}") from exc


def finite_float(token: str) -> float:
    """A float token other than nan and +-inf.

    Raises ValueError, which argparse turns into a usage error (exit 2).
    """
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token!r} is not a finite number")
    return value


def parse_bloch(text: str) -> Tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"bloch phases must be 'tx,txi', got {text!r}")
    try:
        return finite_float(parts[0]), finite_float(parts[1])
    except ValueError as exc:
        raise ValidationError(f"cannot parse bloch phases {text!r}") from exc


def parse_dimensions(text: str) -> List[int]:
    """A single N or an inclusive start:stop:step range, at most DENSE_GUARD."""
    _bind_numeric()  # the guard is the quantize layer's
    parts = text.split(":")
    if len(parts) == 1:
        parts = [parts[0], parts[0], "1"]
    try:
        start, stop, step = (int(p) for p in parts)
        if step < 1 or stop < start:
            raise ValueError
    except ValueError:
        raise ValidationError(
            f"dimension range must be N or start:stop:step, got {text!r}")
    values = range(start, stop + 1, step)
    if values[0] < 1:
        raise ValidationError(f"dimensions must be >= 1, got {text!r}")
    if values[-1] > DENSE_GUARD:
        raise ValidationError(
            f"dimension {values[-1]} in {text!r} exceeds dense guard {DENSE_GUARD}")
    return list(values)


def parse_float_grid(text: str) -> List[float]:
    """lo:hi:count linear grid, at most INTERVAL_GUARD points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid must be lo:hi:count, got {text!r}")
    try:
        lo, hi = finite_float(parts[0]), finite_float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"cannot parse grid {text!r}") from exc
    if not 1 <= count <= INTERVAL_GUARD:
        raise ValidationError(f"grid needs 1..{INTERVAL_GUARD} points, got {count}")
    # linspace steps by hi - lo, which can overflow between finite ends
    if not math.isfinite(hi - lo):
        raise ValidationError(
            f"grid {text!r}: its span hi - lo is not a finite float")
    return _linspace(lo, hi, count)


def _spec_from_args(args, allow_decimal: bool) -> BakerSpec:
    return validate_spec(parse_partition(args.partition, allow_decimal),
                         parse_keep(args.keep))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _echo_parameters(args) -> Dict[str, object]:
    skip = {"func"}
    echo = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        echo[key] = str(value) if isinstance(value, Path) else value
    return echo


def _run(args) -> None:
    """Run one subcommand in its outdir and write its manifest.

    The manifest names every output with its SHA-256 and size, echoes the
    parsed arguments, and is the only file that records the wall time.
    """
    started = time.perf_counter()
    if args.command not in _EXACT_COMMANDS:
        _bind_numeric()
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    outputs, digest, skipped = args.func(args, out)
    manifest = {
        "tool": "oqmap",
        "version": __version__,
        "command": args.command,
        "parameters": _echo_parameters(args),
        "spec_digest": digest,
        "seed": getattr(args, "phases_seed", None),
        "wall_time_s": time.perf_counter() - started,
        "outputs": [{"path": p.name, "sha256": sha256_file(p),
                     "bytes": p.stat().st_size} for p in outputs],
        "skipped_dimensions": list(skipped),
    }
    write_json(out / f"{args.command.replace('-', '_')}_manifest.json",
               manifest)


# ---------------------------------------------------------------------------
# subcommands: each takes (args, outdir) and returns
# (outputs, spec digest, skipped dimensions) for the manifest
# ---------------------------------------------------------------------------

def cmd_thermo(args, out: Path):
    spec = _spec_from_args(args, allow_decimal=False)
    s_grid = parse_float_grid(args.s_grid) if args.s_grid else None
    report = thermo_report(spec, s_grid)
    digest = spec_digest(spec)
    payload = {
        "spec_digest": digest,
        "partition": list(spec.partition),
        "keep": list(spec.keep),
        "s_grid": list(report.s_grid),
        "pressure_values": list(report.values),
        "nu": report.nu,
        "gamma_cl": report.gamma_cl,
        "h_top": report.h_top,
        "g_half": report.g_half,
        "g_cl": report.g_cl,
        "convexity_ok": report.convexity_ok,
    }
    return [write_json(out / "thermo.json", payload)], digest, ()


def cmd_escape(args, out: Path):
    spec = _spec_from_args(args, allow_decimal=False)
    report = escape_report(spec, args.horizon)
    digest = spec_digest(spec)
    payload = {
        "spec_digest": digest,
        "partition": list(spec.partition),
        "keep": list(spec.keep),
        "horizon": report.horizon,
        "escaped_volumes": list(report.escaped_volumes),
        "survivor_volume": report.survivor_volume,
        "survivor_interval_count": len(report.survivor_intervals),
    }
    outputs = [
        write_json(out / "escape.json", payload),
        write_intervals_csv(out / "escape_intervals.csv",
                            report.survivor_intervals),
    ]
    return outputs, digest, ()


def cmd_spectrum(args, out: Path):
    spec = _spec_from_args(args, allow_decimal=True)
    bloch = parse_bloch(args.bloch)
    qmap = quantize_open(spec, QuantizationConfig(args.N, bloch)).open_map
    spectrum = eigen_decompose(qmap)
    outputs = [write_spectrum_csv(out / "spectrum.csv", spectrum.eigenvalues)]
    if args.dump_matrix:
        outputs.append(write_matrix(out / "spectrum_matrix.bin", qmap.matrix))
        if args.N <= 64:
            outputs.append(write_matrix_csv(out / "spectrum_matrix.csv",
                                            qmap.matrix))
    digest = spec_digest(spec)
    payload = {
        "spec_digest": digest,
        "N": args.N,
        "bloch": list(bloch),
        "kind": qmap.kind,
        "backward_error": spectrum.backward_error,
        "spectral_radius": float(np.abs(spectrum.eigenvalues).max()),
        "eigenvalue_count": spectrum.dimension,
    }
    outputs.append(write_json(out / "spectrum.json", payload))
    return outputs, digest, ()


def cmd_count(args, out: Path):
    spec = _spec_from_args(args, allow_decimal=True)
    bloch = parse_bloch(args.bloch)
    radii = _check_radii(parse_float_grid(args.r_grid))
    nu = _check_nu(args.nu if args.nu is not None else cantor_dimension(spec))
    spectrum = eigen_decompose(
        quantize_open(spec, QuantizationConfig(args.N, bloch)).open_map)
    report = count_profile(spectrum, radii, nu)
    digest = spec_digest(spec)
    outputs = [
        write_counts_csv(out / "count.csv", report.radii, report.counts,
                         report.rescaled),
        write_json(out / "count.json", {
            "spec_digest": digest,
            "N": args.N,
            "bloch": list(bloch),
            "nu": report.nu,
            "backward_error": spectrum.backward_error,
            "spectral_radius": report.spectral_radius,
        }),
    ]
    return outputs, digest, ()


def _admissible(spec: BakerSpec, dims: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(admissible, skipped) dimensions; a sweep with none is refused."""
    good, skipped = [], []
    for N in dims:
        try:
            _block_sizes(spec, N)
        except DivisibilityError:
            skipped.append(N)
        else:
            good.append(N)
    if not good:
        raise ValidationError(
            f"none of the {len(dims)} dimensions is admissible for this "
            f"partition (N times every width must be an integer)")
    return good, skipped


def _sweep(spec: BakerSpec, dims: Sequence[int], bloch: Tuple[float, float],
           measure: Callable[[np.ndarray], object]) -> List[Tuple[int, object]]:
    """(N, measure(eigenvalue moduli)) for each N, one dense map at a time."""
    samples = []
    for N in dims:
        spectrum = eigen_decompose(
            quantize_open(spec, QuantizationConfig(N, bloch)).open_map)
        samples.append((N, measure(np.abs(spectrum.eigenvalues))))
    return samples


def cmd_radius_scan(args, out: Path):
    spec = _spec_from_args(args, allow_decimal=True)
    bloch = parse_bloch(args.bloch)
    dims, skipped = _admissible(spec, parse_dimensions(args.N))
    report = thermo_report(spec)
    bounds = f"{fmt_float(report.g_half)},{fmt_float(report.g_cl)}"
    radii = _sweep(spec, dims, bloch, lambda moduli: float(moduli.max()))
    lines = ["N,r_sp,g_half,g_cl"]
    lines += [f"{N},{fmt_float(r)},{bounds}" for N, r in radii]
    return ([write_lines(out / "radius_scan.csv", lines)], spec_digest(spec),
            skipped)


def cmd_weyl_fit(args, out: Path):
    spec = _spec_from_args(args, allow_decimal=True)
    bloch = parse_bloch(args.bloch)
    radius = args.radius
    _check_radii([radius])
    dims, skipped = _admissible(spec, parse_dimensions(args.N))
    samples = _sweep(spec, dims, bloch,
                     lambda moduli: int(np.count_nonzero(moduli >= radius)))
    fit = weyl_fit(samples, radius)
    digest = spec_digest(spec)
    outputs = [
        write_lines(out / "weyl_fit_samples.csv",
                    ["N,count"] + [f"{N},{c}" for N, c in samples]),
        write_json(out / "weyl_fit.json", {
            "spec_digest": digest,
            "radius": fit.radius,
            "nu_hat": fit.nu_hat,
            "nu_classical": cantor_dimension(spec),
            "log_prefactor": fit.log_prefactor,
            "residual_stderr": fit.residual_stderr,
            "samples_used": [list(s) for s in fit.samples_used],
            "samples_dropped": [list(s) for s in fit.samples_dropped],
        }),
    ]
    return outputs, digest, skipped


def cmd_walsh(args, out: Path):
    if args.threshold < 0:
        raise ValidationError(f"threshold must be >= 0, got {args.threshold}")
    model = walsh_open(args.branches, parse_keep(args.keep), args.word_length)
    block, dimension = model.core_block, model.dimension
    if args.phases_seed is not None:
        # the rows K of diag(e^{i phi}) M, from the same N draws, with the
        # operands of apply_diagonal_phases in their order
        phases = _phase_factors(dimension, seed=args.phases_seed)
        block = phases[model.core][:, None] * block
    # M's spectrum is its core's and N - n^k exact zeros, which sort last
    # and stably, as eigen_decompose(M) orders them
    spectrum = eigen_decompose(block)
    eigenvalues = np.concatenate([spectrum.eigenvalues, np.zeros(
        dimension - len(block), dtype=spectrum.eigenvalues.dtype)])
    moduli = np.abs(eigenvalues)
    keep, omega_tilde = model.keep, model.omega_tilde
    n = len(keep)
    r_c = float(abs(np.linalg.det(omega_tilde))) ** (1.0 / n)
    # the bound on the full M: each of Omega_D's D columns is N/D columns
    # of M, in other rows, and the phases have unit modulus
    backward_error = _qr_bound(dimension, math.sqrt(dimension // args.branches)
                               * float(np.linalg.norm(model.omega)))
    payload = {
        "branches": args.branches,
        "keep": list(keep),
        "word_length": args.word_length,
        "dimension": dimension,
        "phases_seed": args.phases_seed,
        "threshold": args.threshold,
        "nontrivial_count": int(np.count_nonzero(moduli > args.threshold)),
        "spectral_radius": float(moduli.max()),
        "radius_bound": n / math.sqrt(args.branches),
        "r_c": r_c,
        "omega_tilde_eigenvalues": list(np.linalg.eigvals(omega_tilde)),
        "backward_error": backward_error,
    }
    outputs = [
        write_spectrum_csv(out / "walsh_spectrum.csv", eigenvalues),
        write_json(out / "walsh.json", payload),
    ]
    return outputs, model.digest, ()


def cmd_effective(args, out: Path):
    if args.probe_count < 1:
        raise ValidationError(f"need at least one probe, got {args.probe_count}")
    # each probe costs one full N x N slogdet, so the count is guarded too
    if args.probe_count > DENSE_GUARD:
        raise DimensionGuard(f"probe count {args.probe_count} exceeds the "
                             f"dense guard {DENSE_GUARD}")
    _check_m_max(args.m_max)
    probes = [args.probe_radius * np.exp(2j * np.pi * j / args.probe_count)
              for j in range(args.probe_count)]
    _check_probes(probes)
    spec = _spec_from_args(args, allow_decimal=False)
    bloch = parse_bloch(args.bloch)
    config = QuantizationConfig(args.N, bloch)
    # the cover is cheap and exact: refuse a bad level before quantizing
    quasi = trapped_quasiprojector(spec, config, args.level)
    qmap = quantize_open(spec, config).open_map
    report = effective_hamiltonian(qmap, quasi.diagonal,
                                   probes, args.radius, m_max=args.m_max)
    lines = ["index,eig_re,eig_im,root_re,root_im,distance"]
    for i, (eig, root) in enumerate(zip(report.outer_eigenvalues,
                                        report.refined_roots)):
        lines.append(f"{i},{fmt_float(eig.real)},{fmt_float(eig.imag)},"
                     f"{fmt_float(root.real)},{fmt_float(root.imag)},"
                     f"{fmt_float(abs(eig - root))}")
    digest = spec_digest(spec)
    payload = {
        "spec_digest": digest,
        "N": args.N,
        "bloch": list(bloch),
        "cover_level": args.level,
        "projector_rank": report.projector_rank,
        "bulk_spectral_radius": report.bulk_spectral_radius,
        "radius": report.radius,
        "probes": list(report.probes),
        "identity_rel_errors": list(report.identity_rel_errors),
        "max_identity_rel_error": report.max_identity_rel_error,
        "outer_count": len(report.outer_eigenvalues),
        "matched": len(report.match_distances),
        "max_match_distance": max(report.match_distances, default=0.0),
        "unmatched": report.unmatched,
        "clustered": report.clustered,
        "residual_norms": list(report.residual_norms),
    }
    outputs = [write_lines(out / "effective_roots.csv", lines),
               write_json(out / "effective.json", payload)]
    return outputs, digest, ()


def cmd_husimi(args, out: Path):
    _validate_grid(args.grid)
    spec = _spec_from_args(args, allow_decimal=False)
    bloch = parse_bloch(args.bloch)
    config = QuantizationConfig(args.N, bloch)
    if not 0 <= args.mode_rank < args.N:
        raise ValidationError(
            f"mode rank {args.mode_rank} outside 0..{args.N - 1}")
    eps = (3.0 / math.sqrt(2.0 * math.pi * args.N) if args.thicken == "auto"
           else finite_float(args.thicken))
    # the cover is cheap and exact: refuse a bad level or thickening first
    cover = merged_strip_cover(spec, args.level, eps)
    qmap = quantize_open(spec, config).open_map
    spectrum = eigen_decompose(qmap, want_vectors=True)
    mode = spectrum.vectors[:, args.mode_rank]
    mode = mode / np.linalg.norm(mode)
    eigenvalue = complex(spectrum.eigenvalues[args.mode_rank])
    mode_residual = float(np.linalg.norm(qmap.matrix @ mode - eigenvalue * mode))
    backward_error = spectrum.backward_error
    # only this one mode is used below: free the map and the N x N vectors
    del qmap, spectrum

    frame = CoherentFrame(args.N, bloch)
    report = husimi_report(mode, frame, args.grid, cover)
    modulus = abs(eigenvalue)
    digest = spec_digest(spec)
    payload = {
        "spec_digest": digest,
        "N": args.N,
        "bloch": list(bloch),
        "mode_rank": args.mode_rank,
        "eigenvalue": eigenvalue,
        "modulus": modulus,
        "lifetime": math.inf if modulus == 0 else -2.0 * math.log(modulus),
        "mode_residual": mode_residual,
        "grid": args.grid,
        "cover_level": args.level,
        "thickening": eps,
        "mass_near_kplus": report.mass_near_kplus,
        "area_fraction": report.area_fraction,
        "enhancement_ratio": report.enhancement_ratio,
        "backward_error": backward_error,
    }
    outputs = [
        write_husimi_csv(out / "husimi.csv", report.field),
        write_husimi_pgm(out / "husimi.pgm", report.field),
        write_json(out / "husimi.json", payload),
    ]
    return outputs, digest, ()


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--partition", required=True,
                   help="comma-separated partition points 0,...,1 "
                        "as p/q rationals")
    p.add_argument("--keep", required=True,
                   help="comma-separated kept rectangle indices")
    p.add_argument("--outdir", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqmap",
        description="numerical laboratory for open baker maps and their "
                    "quantizations")
    parser.add_argument("--version", action="version",
                        version=f"oqmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thermo", help="pressure curve, dimension, decay rate")
    _add_common(p)
    p.add_argument("--s-grid", default=None, help="pressure grid lo:hi:count")
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("escape", help="exact escape-set volumes")
    _add_common(p)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=cmd_escape)

    p = sub.add_parser("spectrum", help="eigenvalues of the open quantum map")
    _add_common(p)
    p.add_argument("--N", type=int, required=True, help="quantum dimension")
    p.add_argument("--bloch", default="0,0", help="boundary phases tx,txi")
    p.add_argument("--dump-matrix", action="store_true",
                   help="also write the open map matrix (binary; CSV if N<=64)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("count", help="eigenvalue counts over a radius grid")
    _add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--bloch", default="0,0")
    p.add_argument("--r-grid", default="0.05:1.0:20")
    p.add_argument("--nu", type=finite_float, default=None,
                   help="rescaling exponent (default: trapped-set dimension /2 "
                        "exponent of the x-Cantor set)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("radius-scan",
                       help="spectral radius against N with pressure bounds")
    _add_common(p)
    p.add_argument("--N", required=True, help="range start:stop:step")
    p.add_argument("--bloch", default="0,0")
    p.set_defaults(func=cmd_radius_scan)

    p = sub.add_parser("weyl-fit", help="fit the fractal Weyl exponent")
    _add_common(p)
    p.add_argument("--N", required=True, help="range start:stop:step")
    p.add_argument("--radius", type=finite_float, required=True,
                   help="count eigenvalues with modulus >= radius")
    p.add_argument("--bloch", default="0,0")
    p.set_defaults(func=cmd_weyl_fit)

    p = sub.add_parser("walsh", help="Walsh tensor model spectrum")
    p.add_argument("--branches", type=int, required=True, help="symbol count D")
    p.add_argument("--keep", required=True)
    p.add_argument("--word-length", type=int, required=True, help="k, N = D^k")
    p.add_argument("--phases-seed", type=int, default=None,
                   help="seed for a random diagonal phase perturbation")
    p.add_argument("--threshold", type=finite_float, default=1e-8,
                   help="modulus above which an eigenvalue counts as nontrivial")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_walsh)

    p = sub.add_parser("effective",
                       help="Schur-complement reduction onto the trapped cover")
    _add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--bloch", default="0,0")
    p.add_argument("--level", type=int, required=True, help="cover level m")
    p.add_argument("--radius", type=finite_float, required=True,
                   help="annulus |lambda| >= radius to re-derive from det E")
    p.add_argument("--probe-radius", type=finite_float, default=1.5)
    p.add_argument("--probe-count", type=int, default=8)
    p.add_argument("--m-max", type=int, default=6,
                   help="residual norms ||(I-Pi)M^m|| reported for m=1..m_max")
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("husimi", help="Husimi field of one eigenmode")
    _add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--bloch", default="0,0")
    p.add_argument("--mode-rank", type=int, default=0,
                   help="eigenmode index in descending-modulus order")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--level", type=int, default=4, help="K+ cover level")
    p.add_argument("--thicken", default="auto",
                   help="strip thickening; 'auto' = three coherent widths "
                        "3/sqrt(2 pi N)")
    p.set_defaults(func=cmd_husimi)

    return parser


def exit_code_for(exc: BaseException) -> int:
    """Exit-code mapping: validation -> 2, numerical -> 3.

    LAPACK failures (LinAlgError, a ValueError subclass) are numerical;
    one can be raised only once numpy is loaded.
    """
    if isinstance(exc, ValidationError):
        return 2
    numpy = sys.modules.get("numpy")
    if isinstance(exc, NumericalError) or (
            numpy is not None and isinstance(exc, numpy.linalg.LinAlgError)):
        return 3
    if isinstance(exc, ValueError):
        return 2
    raise exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _run(args)
    except (ValidationError, NumericalError, ValueError) as exc:
        print(f"oqmap: error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
