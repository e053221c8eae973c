"""Command-line layer: token parsing, every subcommand end to end
(in process, via main), exit-code mapping, manifests, and output schemas.
"""

import concurrent.futures
import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oqmap.cli
import oqmap.quantize
import oqmap.serialize
import oqmap.spectral
from oqmap import classical, errors, phasespace, quantize, spectral
from oqmap import (
    QuantizationConfig,
    apply_diagonal_phases,
    eigen_decompose,
    quantize_open,
    symmetric_spec,
    walsh_open,
)
from oqmap.cli import (
    exit_code_for,
    finite_float,
    main,
    parse_bloch,
    parse_dimensions,
    parse_float_grid,
    parse_keep,
    parse_partition,
    parse_rational,
)
from oqmap.classical import (
    INTERVAL_GUARD,
    cantor_dimension,
    thermo_report,
    validate_spec,
)
from oqmap.errors import NumericalError, ValidationError
from oqmap.serialize import (
    fmt_float,
    read_matrix,
    sha256_file,
    write_counts_csv,
    write_json,
    write_lines,
    write_matrix,
    write_matrix_csv,
    write_spectrum_csv,
)
from oqmap.spectral import count_profile

from conftest import use_removed_digit_core
from test_acceptance import CLI_RUNS

D3 = ["--partition", "0,1/3,2/3,1", "--keep", "0,2"]
D5 = ["--partition", "0,1/5,2/5,3/5,4/5,1", "--keep", "1,3"]
ASYM = ["--partition", "0,1/2,3/4,1", "--keep", "0,2"]


def run(argv):
    return main([str(a) for a in argv])


def load(path):
    return json.loads(path.read_text())


def refuse_constant(token):
    raise AssertionError(f"non-strict JSON token {token}")


def unreachable(*args, **kwargs):
    raise AssertionError("expensive call reached before input validation")


def traced_peak(argv) -> int:
    """The tracemalloc peak of one successful in-process command."""
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def open_mode(spec, config, rank):
    """cli._open_mode called directly, with the numeric layers bound as
    a command would bind them."""
    oqmap.cli._bind_numeric()
    return oqmap.cli._open_mode(spec, config, rank)


def exit_status(argv):
    """The process exit code: argparse usage errors raise SystemExit."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# token parsing
# ---------------------------------------------------------------------------

class TestParsing:
    def test_rational_forms(self):
        assert parse_rational("1/3", False) == Fraction(1, 3)
        assert parse_rational(" 2 ", False) == Fraction(2)
        assert parse_rational("0.5", True) == Fraction(1, 2)
        # decimal strings parse as exact decimals, not binary floats
        assert parse_rational("0.1", True) == Fraction(1, 10)
        assert parse_rational("2e-1", True) == Fraction(1, 5)

    def test_rational_rejections(self):
        with pytest.raises(ValidationError):
            parse_rational("0.5", False)
        with pytest.raises(ValidationError):
            parse_rational("x", False)
        with pytest.raises(ValidationError):
            parse_rational("1/0", False)

    def test_decimal_digits_bounded(self):
        # the exact value of a decimal token is held to 4300 digits, in
        # numerator and denominator, before Fraction forms 10^|exponent|
        assert parse_rational("1e-4299", True) == Fraction(1, 10 ** 4299)
        assert parse_rational("1e4299", True) == 10 ** 4299
        for token in ("1e-5000", "1e-4300", "1e4300", "1e-1000000000"):
            with pytest.raises(ValidationError, match="4300 digits"):
                parse_rational(token, True)
        with pytest.raises(ValidationError, match="cannot parse"):
            parse_rational("inf.", True)

    def test_keep_and_bloch(self):
        assert parse_keep("0,2") == (0, 2)
        assert parse_bloch("0.5,0.5") == (0.5, 0.5)
        with pytest.raises(ValidationError):
            parse_keep("0,x")
        with pytest.raises(ValidationError):
            parse_bloch("0.5")

    def test_dimension_ranges(self):
        assert parse_dimensions("27") == [27]
        # stop is inclusive
        assert parse_dimensions("50:60:2") == [50, 52, 54, 56, 58, 60]
        assert parse_dimensions("27:27:1") == [27]
        with pytest.raises(ValidationError):
            parse_dimensions("50:40:2")
        with pytest.raises(ValidationError):
            parse_dimensions("50:60:0")
        with pytest.raises(ValidationError):
            parse_dimensions("a:b:c")
        with pytest.raises(ValidationError):
            parse_dimensions("0")
        # the guard applies to the largest value in the range, not to stop
        assert parse_dimensions("4990:5005:20") == [4990]
        with pytest.raises(ValidationError, match="dense guard"):
            parse_dimensions("4990:5010:20")
        with pytest.raises(ValidationError, match="dense guard"):
            parse_dimensions("5001")

    def test_float_grid(self):
        grid = parse_float_grid("0.0:1.0:5")
        assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
        with pytest.raises(ValidationError):
            parse_float_grid("0.0:1.0")
        with pytest.raises(ValidationError):
            parse_float_grid("0:1:0")
        with pytest.raises(ValidationError):
            parse_float_grid("nan:1:3")
        with pytest.raises(ValidationError):
            parse_float_grid(f"0:1:{INTERVAL_GUARD + 1}")

    def test_finite_float(self):
        assert finite_float("1e-8") == 1e-8
        for token in ("nan", "inf", "-inf", "Infinity", "x"):
            with pytest.raises(ValueError):
                finite_float(token)
        with pytest.raises(ValidationError):
            parse_bloch("nan,0")

    def test_exit_codes(self):
        assert exit_code_for(ValidationError("x")) == 2
        assert exit_code_for(NumericalError("x")) == 3
        assert exit_code_for(ValueError("x")) == 2
        # LinAlgError subclasses ValueError but is a numerical failure
        assert exit_code_for(np.linalg.LinAlgError("x")) == 3
        with pytest.raises(KeyError):
            exit_code_for(KeyError("boom"))

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

class TestThermo:
    def test_reference_values(self, tmp_path):
        assert run(["thermo", *D3, "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "thermo.json")
        assert payload["nu"] == pytest.approx(0.6309298, abs=1e-6)
        assert payload["gamma_cl"] == pytest.approx(0.4054651, abs=1e-6)
        assert payload["h_top"] == pytest.approx(math.log(2), abs=1e-12)
        assert payload["convexity_ok"] is True
        assert len(payload["s_grid"]) == len(payload["pressure_values"]) == 50
        assert payload["partition"][1] == {"num": 1, "den": 3}

    def test_manifest_audit(self, tmp_path):
        run(["thermo", *D3, "--outdir", tmp_path])
        manifest = load(tmp_path / "thermo_manifest.json")
        assert manifest["tool"] == "oqmap"
        assert manifest["command"] == "thermo"
        assert len(manifest["spec_digest"]) == 16
        assert manifest["wall_time_s"] >= 0.0
        (entry,) = manifest["outputs"]
        assert entry["path"] == "thermo.json"
        assert entry["sha256"] == sha256_file(tmp_path / "thermo.json")
        assert entry["bytes"] == (tmp_path / "thermo.json").stat().st_size
        # timing lives in the manifest only, never in the report itself
        assert "wall_time_s" not in load(tmp_path / "thermo.json")

    def test_custom_grid(self, tmp_path):
        assert run(["thermo", *D3, "--s-grid", "0:1:11",
                    "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "thermo.json")
        assert payload["s_grid"][0] == 0.0
        assert len(payload["s_grid"]) == 11

    def test_decimal_partition_rejected(self, tmp_path):
        assert run(["thermo", "--partition", "0,0.333,0.667,1",
                    "--keep", "0,2", "--outdir", tmp_path]) == 2

    def test_malformed_partition_rejected(self, tmp_path):
        assert run(["thermo", "--partition", "0,1/3,x,1",
                    "--keep", "0,2", "--outdir", tmp_path]) == 2

    @pytest.mark.parametrize("argv,s", [
        ([*D3, "--s-grid=-2000:3:5"], "s=-2000.0"),
        (["--partition", "0,1/47,30/47,1", "--keep", "0,2",
          "--s-grid=1000:1000:1"], "s=1000.0"),
    ])
    def test_s_grid_outside_float_range_exits_2(self, tmp_path, capsys,
                                                argv, s):
        assert run(["thermo", *argv, "--outdir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert s in err and "widths" in err
        assert not any(tmp_path.iterdir())

    def test_refusal_comes_before_any_file(self, tmp_path, capsys,
                                           monkeypatch):
        # s = 1000, the grid's top, leaves the float range, and s = 750 is
        # the first point that does; thermo.json is never opened
        monkeypatch.setattr(oqmap.cli, "write_json", unreachable)
        assert run(["thermo", "--partition", "0,1/47,30/47,1", "--keep",
                    "0,2", "--s-grid=0:1000:5", "--outdir", tmp_path]) == 2
        assert capsys.readouterr().err == (
            "oqmap: error: pressure at s=750.0 leaves the float range: the "
            "sum of the kept widths (0.0212766, 0.361702) to the power s "
            "is 0.0\n")
        assert not any(tmp_path.iterdir())

    def test_point_past_the_extremes_check_leaves_no_file(self, tmp_path):
        # NaN sorts nowhere, so only the walk of the values meets it; the
        # writer removes its partial file
        spec = validate_spec(("0", "1/3", "2/3", "1"), (0, 2))
        report = thermo_report(spec, [0.0] * 5000 + [math.nan, 1.0])
        with pytest.raises(ValidationError, match="s=nan"):
            write_json(tmp_path / "thermo.json", {"values": report.values})
        assert not any(tmp_path.iterdir())

    def test_million_points_in_bounded_memory(self, tmp_path):
        # a grid and values held as tuples took the peak to 85 MiB
        peak = traced_peak(["thermo", *ASYM, "--s-grid=-1:3:1000000",
                            "--outdir", tmp_path])
        assert peak < 2 << 20
        # two lists of 10^6 values, one a line, and 35 lines of the rest
        with (tmp_path / "thermo.json").open() as fh:
            assert sum(1 for _ in fh) == 2 * 10 ** 6 + 35

    def test_s_grid_span_overflow_exits_2(self, tmp_path, capsys):
        # both ends are finite, but linspace's step hi - lo is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["thermo", *D3, "--s-grid=-1e308:1e308:2",
                        "--outdir", tmp_path]) == 2
        err = capsys.readouterr().err
        assert "'-1e308:1e308:2'" in err and "finite" in err
        assert "nan" not in err
        assert not any(tmp_path.iterdir())


class TestEscape:
    def test_exact_volumes(self, tmp_path):
        assert run(["escape", *D3, "--horizon", "4",
                    "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "escape.json")
        assert payload["survivor_volume"] == {"num": 16, "den": 81}
        assert payload["escaped_volumes"][0] == {"num": 1, "den": 3}
        assert payload["survivor_interval_count"] == 16
        lines = (tmp_path / "escape_intervals.csv").read_text().splitlines()
        assert lines[0] == "lo_num,lo_den,hi_num,hi_den"
        assert lines[1] == "0,1,1,81"
        assert len(lines) == 17

    def test_horizon_guard_comes_before_any_file(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(oqmap.cli, "write_json", unreachable)
        monkeypatch.setattr(oqmap.cli, "write_intervals_csv", unreachable)
        assert run(["escape", *D3, "--horizon", "24",
                    "--outdir", tmp_path]) == 2
        assert capsys.readouterr().err == (
            "oqmap: error: 24 refinement levels need 2^24 intervals "
            "(guard 10000000)\n")
        assert not any(tmp_path.iterdir())

    def test_horizon_18_in_bounded_memory(self, tmp_path):
        # 2^18 intervals; holding every level's lists took the peak to 26 MiB
        peak = traced_peak(["escape", *D3, "--horizon", "18",
                            "--outdir", tmp_path])
        assert peak < 2 << 20
        with (tmp_path / "escape_intervals.csv").open() as fh:
            assert sum(1 for _ in fh) == 2 ** 18 + 1

    def test_horizon_guard_maps_to_exit_2(self, tmp_path):
        tracemalloc.start()
        try:
            status = run(["escape", *D3, "--horizon", "24",
                          "--outdir", tmp_path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 2
        assert peak < 1 << 20


class TestSpectrum:
    def test_basic_run(self, tmp_path):
        assert run(["spectrum", *D3, "--N", "27", "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "spectrum.json")
        assert set(payload) == {"spec_digest", "N", "bloch", "kind",
                                "backward_error", "spectral_radius",
                                "eigenvalue_count"}
        assert payload["kind"] == "open_standard"
        assert payload["eigenvalue_count"] == 27
        assert payload["spectral_radius"] == pytest.approx(0.906742, abs=1e-4)
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,re,im,modulus,lifetime"
        assert len(lines) == 28

    def test_indivisible_dimension_exits_2(self, tmp_path):
        assert run(["spectrum", *D3, "--N", "10", "--outdir", tmp_path]) == 2

    def test_decimal_partition_allowed_and_equivalent(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["spectrum", "--partition", "0,0.2,0.4,0.6,0.8,1",
                    "--keep", "1,3", "--N", "25", "--outdir", a]) == 0
        assert run(["spectrum", *D5, "--N", "25", "--outdir", b]) == 0
        assert (load(a / "spectrum.json")["spec_digest"]
                == load(b / "spectrum.json")["spec_digest"])
        assert (a / "spectrum.csv").read_bytes() \
            == (b / "spectrum.csv").read_bytes()

    def test_dump_matrix_small(self, tmp_path):
        assert run(["spectrum", *D3, "--N", "27", "--dump-matrix",
                    "--outdir", tmp_path]) == 0
        M = read_matrix(tmp_path / "spectrum_matrix.bin")
        assert M.shape == (27, 27)
        assert (tmp_path / "spectrum_matrix.csv").exists()
        # the dumped matrix is the open map itself: column 9..17 zeroed,
        # with +0.0 in both parts (U * 0.0 used to leave -0.0)
        assert np.abs(M[:, 9:18]).max() == 0.0
        assert not np.signbit(M[:, 9:18].view(float)).any()
        rows = (tmp_path / "spectrum_matrix.csv").read_text().splitlines()[1:]
        removed = [r for r in rows if 9 <= int(r.split(",")[1]) < 18]
        assert len(removed) == 27 * 9
        assert all(r.endswith(",0,0") for r in removed)

    def test_dump_matrix_large_skips_csv(self, tmp_path):
        assert run(["spectrum", *D3, "--N", "81", "--dump-matrix",
                    "--outdir", tmp_path]) == 0
        assert (tmp_path / "spectrum_matrix.bin").exists()
        assert not (tmp_path / "spectrum_matrix.csv").exists()


class TestCount:
    def test_default_nu_is_classical_dimension(self, tmp_path):
        assert run(["count", *D3, "--N", "81", "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "count.json")
        assert payload["nu"] == pytest.approx(0.6309297535714574, abs=1e-10)
        lines = (tmp_path / "count.csv").read_text().splitlines()
        assert lines[0] == "r,count,rescaled"
        assert len(lines) == 21  # default 20-point grid

    def test_nu_override(self, tmp_path):
        assert run(["count", *D3, "--N", "27", "--nu", "0.5",
                    "--outdir", tmp_path]) == 0
        assert load(tmp_path / "count.json")["nu"] == 0.5

    def test_bad_grid_exits_2(self, tmp_path):
        assert run(["count", *D3, "--N", "27", "--r-grid", "0.5:1.2:3",
                    "--outdir", tmp_path]) == 2


class TestRadiusScan:
    def test_skips_indivisible_dimensions(self, tmp_path):
        assert run(["radius-scan", *D5, "--N", "50:60:2",
                    "--outdir", tmp_path]) == 0
        lines = (tmp_path / "radius_scan.csv").read_text().splitlines()
        assert lines[0] == "N,r_sp,g_half,g_cl"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [50, 60]
        manifest = load(tmp_path / "radius_scan_manifest.json")
        assert manifest["skipped_dimensions"] == [52, 54, 56, 58]
        g_half = float(lines[1].split(",")[2])
        g_cl = float(lines[1].split(",")[3])
        assert g_half == pytest.approx(2 / math.sqrt(5), abs=1e-12)
        assert g_cl == pytest.approx(math.sqrt(0.4), abs=1e-12)



class TestWeylFit:
    def test_fit_over_dimension_range(self, tmp_path):
        assert run(["weyl-fit", *D3, "--N", "27:243:27", "--radius", "0.5",
                    "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "weyl_fit.json")
        assert 0.0 < payload["nu_hat"] < 1.0
        assert payload["radius"] == 0.5
        assert payload["nu_classical"] == pytest.approx(0.63093, abs=1e-5)
        lines = (tmp_path / "weyl_fit_samples.csv").read_text().splitlines()
        assert lines[0] == "N,count"
        assert len(lines) == 10  # 27..243 step 27, all divisible by 3

    def test_radius_validation(self, tmp_path):
        assert run(["weyl-fit", *D3, "--N", "27:243:27", "--radius", "1.5",
                    "--outdir", tmp_path]) == 2

    def test_too_few_samples(self, tmp_path):
        assert run(["weyl-fit", *D3, "--N", "27", "--radius", "0.5",
                    "--outdir", tmp_path]) == 2


class TestSweep:
    """radius-scan and weyl-fit solve their dimensions on a thread pool,
    each on its kept block; the samples are those of a serial loop over
    the dense maps."""

    @pytest.mark.parametrize("argv", [
        ["weyl-fit", *D3, "--N", "27:243:27", "--radius", "0.5",
         "--bloch", "0.3,0.7"],
        ["radius-scan", *D5, "--N", "50:250:25", "--bloch", "0.6,0.1"],
        ["radius-scan", "--partition", "0,1/2,3/4,1", "--keep", "0,2",
         "--N", "4:64:4"],
    ], ids=lambda argv: argv[0])
    def test_samples_equal_a_serial_dense_loop(self, tmp_path, argv):
        assert run([*argv, "--outdir", tmp_path]) == 0
        args = oqmap.cli.build_parser().parse_args(argv)
        spec = oqmap.cli._spec_from_args(args, allow_decimal=True)
        bloch = parse_bloch(args.bloch)
        dims, _ = oqmap.cli._admissible(spec, parse_dimensions(args.N))
        lines = []
        for N in dims:  # ascending
            moduli = np.abs(eigen_decompose(quantize_open(
                spec, QuantizationConfig(N, bloch)).open_map).eigenvalues)
            if args.command == "weyl-fit":
                lines.append(f"{N},{np.count_nonzero(moduli >= args.radius)}")
            else:
                lines.append(f"{N},{oqmap.serialize.fmt_float(moduli.max())}")
        name = {"weyl-fit": "weyl_fit_samples.csv",
                "radius-scan": "radius_scan.csv"}[args.command]
        got = (tmp_path / name).read_text().splitlines()[1:]
        assert [",".join(line.split(",")[:2]) for line in got] == lines

    def test_failed_dimension_exits_3_with_the_serial_message(
            self, tmp_path, monkeypatch, capsys):
        # N = 54 and N = 108 fail; the pool starts 108 first, a serial
        # loop meets 54 first, and its message is the one reported
        solve = oqmap.cli.eigen_decompose

        def failing(matrix, *args, **kwargs):
            if len(matrix) in (36, 72):  # the kept blocks of N = 54, 108
                raise errors.SolverFailure(f"no convergence at |K|={len(matrix)}")
            return solve(matrix, *args, **kwargs)

        monkeypatch.setattr(oqmap.cli, "eigen_decompose", failing)
        for argv in (["weyl-fit", *D3, "--N", "27:135:27", "--radius", "0.5"],
                     ["radius-scan", *D3, "--N", "27:135:27"]):
            out = tmp_path / argv[0]
            assert run([*argv, "--outdir", out]) == 3
            assert capsys.readouterr().err == \
                "oqmap: error: no convergence at |K|=36\n"
            assert list(out.iterdir()) == []

    def test_pool_width_and_submission_order(self, monkeypatch):
        pools = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.submitted = []
                pools.append(self)

            def submit(self, fn, N):
                self.submitted.append(N)
                return super().submit(fn, N)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(oqmap.cli, "_usable_cores", lambda: 3)
        spec = symmetric_spec(3, (0, 2))
        for dims in ([9, 27, 18, 3], [6, 3]):
            # each measure sees M's N eigenvalues, its kept block's and
            # N - |nz| zeros
            samples = oqmap.cli._sweep(spec, dims, (0.0, 0.0), len)
            assert samples == [(N, N) for N in dims]
        assert [pool._max_workers for pool in pools] == [3, 2]
        assert [pool.submitted for pool in pools] == [[27, 18, 9, 3], [6, 3]]


# spec, N of spectrum and count, dimension range of the sweeps; D3 N=243
# puts a 64-column chunk boundary inside each block of 81 columns, and
# N=64 writes the matrix CSV
DENSE_ORACLE_CASES = {
    "D3-27": (D3, 27, "9:27:9"),
    "D3": (D3, 243, "27:243:27"),
    "D5": (D5, 250, "50:250:25"),
    "asym": (["--partition", "0,1/2,3/4,1", "--keep", "0,2"], 64, "4:64:4"),
}


class TestDenseOracle:
    """spectrum, count, radius-scan and weyl-fit solve M's kept block and
    stream the dumped matrix in chunks; every output is what the same
    writers give on the dense path, eigen_decompose(quantize_open(...)).
    husimi lifts a kept-block eigenvector and effective reduces
    (nz, M[:, nz]); both agree with the library run on the dense map."""

    @pytest.mark.parametrize("bloch", ["0,0", "0.3,0.7"])
    @pytest.mark.parametrize("tag", sorted(DENSE_ORACLE_CASES))
    def test_outputs_equal_the_dense_path(self, tmp_path, tag, bloch):
        spec_argv, N, dims = DENSE_ORACLE_CASES[tag]
        argvs = {
            "spectrum": ["spectrum", *spec_argv, "--N", N, "--dump-matrix"],
            "count": ["count", *spec_argv, "--N", N],
            "radius-scan": ["radius-scan", *spec_argv, "--N", dims],
            "weyl-fit": ["weyl-fit", *spec_argv, "--N", dims, "--radius", "0.5"],
        }
        for name, argv in argvs.items():
            assert run([*argv, "--bloch", bloch, "--outdir", tmp_path / name]) == 0
        spec = validate_spec(parse_partition(spec_argv[1], False),
                             parse_keep(spec_argv[3]))
        theta = parse_bloch(bloch)

        def dense(n):
            qmap = quantize_open(spec, QuantizationConfig(n, theta)).open_map
            return qmap.matrix, eigen_decompose(qmap)

        want = tmp_path / "dense"
        want.mkdir()
        M, spectrum = dense(N)
        report = count_profile(spectrum, parse_float_grid("0.05:1.0:20"),
                               cantor_dimension(spec))
        thermo = thermo_report(spec)
        bounds = f"{fmt_float(thermo.g_half)},{fmt_float(thermo.g_cl)}"
        scan, samples = ["N,r_sp,g_half,g_cl"], ["N,count"]
        for n in parse_dimensions(dims):
            moduli = np.abs(dense(n)[1].eigenvalues)
            scan.append(f"{n},{fmt_float(moduli.max())},{bounds}")
            samples.append(f"{n},{np.count_nonzero(moduli >= 0.5)}")
        expected = {
            "spectrum/spectrum.csv": write_spectrum_csv(
                want / "spectrum.csv", spectrum.eigenvalues),
            "spectrum/spectrum_matrix.bin": write_matrix(
                want / "spectrum_matrix.bin", M),
            "count/count.csv": write_counts_csv(
                want / "count.csv", report.radii, report.counts,
                report.rescaled),
            "radius-scan/radius_scan.csv": write_lines(
                want / "radius_scan.csv", scan),
            "weyl-fit/weyl_fit_samples.csv": write_lines(
                want / "weyl_fit_samples.csv", samples),
        }
        if N <= 64:
            expected["spectrum/spectrum_matrix.csv"] = write_matrix_csv(
                want / "spectrum_matrix.csv", M)
        for name, path in expected.items():
            assert (tmp_path / name).read_bytes() == path.read_bytes(), name
        assert (tmp_path / "spectrum" / "spectrum_matrix.csv").exists() \
            == (N <= 64)
        for name in ("spectrum/spectrum.json", "count/count.json"):
            got = load(tmp_path / name)["backward_error"]
            assert abs(got - spectrum.backward_error) \
                <= 1e-14 * spectrum.backward_error, name
        assert load(tmp_path / "spectrum" / "spectrum.json")[
            "spectral_radius"] == report.spectral_radius

    # spec, N, Bloch phases: the criterion-12 husimi run and the two
    # husimi commands of the benchmark
    HUSIMI_ORACLE_CASES = [
        pytest.param(D3, 81, "0,0", id="D3-81"),
        pytest.param(D5, 500, "0.3,0.7", id="D5-500"),
        pytest.param(D3, 486, "0.3,0.7", id="D3-486"),
    ]

    @pytest.mark.parametrize("spec_argv,N,bloch", HUSIMI_ORACLE_CASES)
    def test_husimi_mode_equals_the_dense_path(self, tmp_path, spec_argv, N,
                                               bloch):
        # the oracle is the dense eig of the full M; the kept block's
        # eigvals and inverse iteration round differently, so the eigenvalue
        # agrees within the backward error and the mode up to its phase
        spec = validate_spec(parse_partition(spec_argv[1], False),
                             parse_keep(spec_argv[3]))
        config = QuantizationConfig(N, parse_bloch(bloch))
        qmap = quantize_open(spec, config).open_map
        dense = eigen_decompose(qmap, want_vectors=True)
        kept = len(oqmap.quantize._kept_block(spec, config))
        for rank in (0, 3, kept):
            value, mode, residual, backward_error = open_mode(spec, config,
                                                              rank)
            assert abs(value - dense.eigenvalues[rank]) <= backward_error
            want = dense.vectors[:, rank] / np.linalg.norm(dense.vectors[:, rank])
            phase = np.vdot(mode, want)
            assert np.abs(mode * phase / abs(phase) - want).max() <= 1e-12, rank
            assert residual <= 1e-12
            out = tmp_path / str(rank)
            assert run(["husimi", *spec_argv, "--N", N, "--bloch", bloch,
                        "--mode-rank", rank, "--grid", "32",
                        "--outdir", out]) == 0
            got = load(out / "husimi.json")
            modulus = abs(value)
            assert got["eigenvalue"] == {"re": value.real, "im": value.imag}
            assert got["modulus"] == modulus
            assert got["lifetime"] == (
                "inf" if modulus == 0 else -2.0 * math.log(modulus))
            assert got["mode_residual"] == residual
            assert got["backward_error"] == backward_error
        assert dense.eigenvalues[kept - 1] != 0 == dense.eigenvalues[kept]

    @pytest.mark.parametrize("spec_argv,N", [
        pytest.param(D3, 486, id="D3-486"),
        pytest.param(D5, 500, id="D5-500"),
    ])
    def test_husimi_eigenvalue_is_the_spectrum_row(self, tmp_path, spec_argv,
                                                   N):
        # one spectrum rule: husimi and spectrum solve the same kept block
        bloch = "0.3,0.7"
        assert run(["spectrum", *spec_argv, "--N", N, "--bloch", bloch,
                    "--outdir", tmp_path]) == 0
        rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
        for rank in (0, 3):
            out = tmp_path / str(rank)
            assert run(["husimi", *spec_argv, "--N", N, "--bloch", bloch,
                        "--mode-rank", rank, "--grid", "32",
                        "--outdir", out]) == 0
            got = load(out / "husimi.json")
            index, re, im, modulus, _ = rows[rank].split(",")
            assert int(index) == rank
            assert (fmt_float(got["eigenvalue"]["re"]),
                    fmt_float(got["eigenvalue"]["im"]),
                    fmt_float(got["modulus"])) == (re, im, modulus)

    # spec, N, level, Bloch phases: the criterion-12 effective run and the
    # two effective commands of the benchmark
    EFFECTIVE_ORACLE_CASES = [
        pytest.param(125, 2, "0,0", id="D5-125"),
        pytest.param(500, 3, "0.3,0.7", id="D5-500"),
        pytest.param(375, 3, "0.3,0.7", id="D5-375"),
    ]

    @pytest.mark.parametrize("N,level,bloch", EFFECTIVE_ORACLE_CASES)
    def test_effective_equals_the_dense_path(self, tmp_path, N, level, bloch):
        assert run(["effective", *D5, "--N", N, "--level", level,
                    "--radius", "0.5", "--bloch", bloch,
                    "--outdir", tmp_path]) == 0
        spec = symmetric_spec(5, (1, 3))
        config = QuantizationConfig(N, parse_bloch(bloch))
        M = quantize_open(spec, config).open_map.matrix
        projector = spectral.trapped_quasiprojector(spec, config, level).diagonal
        probes = [1.5 * np.exp(2j * np.pi * j / 8) for j in range(8)]
        report = spectral.effective_hamiltonian(M, projector, probes, 0.5)
        lines = ["index,eig_re,eig_im,root_re,root_im,distance"]
        for i, (eig, root) in enumerate(zip(report.outer_eigenvalues,
                                            report.refined_roots)):
            lines.append(f"{i},{fmt_float(eig.real)},{fmt_float(eig.imag)},"
                         f"{fmt_float(root.real)},{fmt_float(root.imag)},"
                         f"{fmt_float(abs(eig - root))}")
        want = write_lines(tmp_path / "dense_roots.csv", lines)
        assert (tmp_path / "effective_roots.csv").read_bytes() == \
            want.read_bytes()
        got = load(tmp_path / "effective.json")
        assert got["residual_norms"] == list(report.residual_norms)
        assert got["bulk_spectral_radius"] == report.bulk_spectral_radius
        # against the identity with the N x N determinant det(I - M/lam)
        # on its left, as the dense path took it
        A, B, C, D = oqmap.spectral._blocks(*oqmap.spectral._split(
            *oqmap.spectral._as_columns(M), projector))
        logdet = oqmap.spectral._logdet
        for lam, error in zip(probes, got["identity_rel_errors"]):
            E, _ = oqmap.spectral._effective_pieces(A, B, C, D, lam, False)
            delta = logdet(np.eye(N) - M / lam) - (
                logdet(E) + logdet(np.eye(len(D)) - D / lam))
            assert abs(error - abs(np.exp(delta) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("argv,N,bound", [
        pytest.param(["spectrum", *D3, "--N", "972", "--dump-matrix"], 972,
                     0.65, id="spectrum"),
        pytest.param(["count", *D3, "--N", "972"], 972, 0.65, id="count"),
        pytest.param(["husimi", *D3, "--N", "972", "--grid", "32"], 972, 1.0,
                     id="husimi"),
        pytest.param(["effective", *D5, "--N", "500", "--level", "3",
                      "--radius", "0.5"], 500, 2.0, id="effective"),
    ])
    def test_peak_stays_below_one_dense_map(self, tmp_path, argv, N, bound):
        # spectrum and count: the kept block, 16 |nz|^2 = 0.44 x 16 N^2,
        # N x 64 transients and the eigenvalues; the dense path held the
        # N x N map and its column-major copy for the dump.  husimi: the
        # kept block and its eigenvectors, 0.89 x 16 N^2; the dense path
        # held the map and N x N eigenvectors, 4.2 x 16 N^2.  effective:
        # M[:, nz] = 0.4 x 16 N^2, and two of its powers in the residual
        # audit; the dense path held the map, a copy per probe and the
        # split, 3.6 x 16 N^2
        argv = [*argv, "--bloch", "0.3,0.7"]
        assert run([*argv, "--outdir", tmp_path / "warm"]) == 0  # FFT plans
        tracemalloc.start()
        try:
            status = run([*argv, "--outdir", tmp_path / "traced"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peak < bound * 16 * N ** 2

    @pytest.mark.parametrize("bloch", ["0,0", "0.3,0.7"])
    def test_weyl_fit_sample_is_the_count(self, tmp_path, bloch):
        fit, count = tmp_path / "fit", tmp_path / "count"
        assert run(["weyl-fit", *D3, "--N", "81:243:81", "--radius", "0.5",
                    "--bloch", bloch, "--outdir", fit]) == 0
        assert run(["count", *D3, "--N", "243", "--r-grid", "0.5:0.5:1",
                    "--bloch", bloch, "--outdir", count]) == 0
        sample = (fit / "weyl_fit_samples.csv").read_text().splitlines()[-1]
        row = (count / "count.csv").read_text().splitlines()[1]
        assert sample == "243," + row.split(",")[1]


# the four benchmark specs at small k, and D4 keep (0, 2): its OmegaTilde
# is rank one, so the core's eigenvalues reach down to rounding level,
# just above the N - n^k exact zeros in the sort
WALSH_ORACLE_CASES = [
    (3, (0, 2), 4), (4, (0, 1, 3), 3), (6, (1, 4), 3), (6, (0, 2, 4), 3),
    (4, (0, 2), 3), (4, (0, 2), 5),
]


def check_walsh_against_dense(out, D, keep, k, seed):
    """The walsh command against the dense path, eigen_decompose of the
    (phased) open map: identical spectrum CSV bytes, and the backward
    error bound within 1e-14 relative."""
    argv = ["walsh", "--branches", D, "--keep", ",".join(map(str, keep)),
            "--word-length", k, "--outdir", out / "cli"]
    qmap = walsh_open(D, keep, k).open_map
    if seed is not None:
        argv += ["--phases-seed", seed]
        qmap = apply_diagonal_phases(qmap, seed=seed)
    assert run(argv) == 0
    dense = eigen_decompose(qmap)
    want = write_spectrum_csv(out / "dense_spectrum.csv", dense.eigenvalues)
    assert (out / "cli" / "walsh_spectrum.csv").read_bytes() == \
        want.read_bytes()
    got = load(out / "cli" / "walsh.json")["backward_error"]
    assert abs(got - dense.backward_error) <= 1e-14 * dense.backward_error


class TestWalsh:
    def test_count_law_and_radius(self, tmp_path):
        assert run(["walsh", "--branches", "3", "--keep", "0,2",
                    "--word-length", "3", "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "walsh.json")
        assert payload["dimension"] == 27
        assert payload["nontrivial_count"] == 8
        assert payload["spectral_radius"] == pytest.approx(
            0.8443111017910652, abs=1e-9)
        assert payload["radius_bound"] == pytest.approx(
            2 / math.sqrt(3), abs=1e-12)
        assert payload["r_c"] == pytest.approx(3 ** -0.25, abs=1e-12)
        assert len(payload["omega_tilde_eigenvalues"]) == 2
        assert payload["phases_seed"] is None
        lines = (tmp_path / "walsh_spectrum.csv").read_text().splitlines()
        assert len(lines) == 28

    def test_seeded_phases_lift_degeneracy(self, tmp_path):
        assert run(["walsh", "--branches", "4", "--keep", "0,2",
                    "--word-length", "3", "--phases-seed", "7",
                    "--threshold", "1e-2", "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "walsh.json")
        assert payload["nontrivial_count"] > 1
        manifest = load(tmp_path / "walsh_manifest.json")
        assert manifest["seed"] == 7

    def test_guard_exits_2(self, tmp_path):
        assert run(["walsh", "--branches", "3", "--keep", "0,2",
                    "--word-length", "10", "--outdir", tmp_path]) == 2

    def test_huge_word_length_names_the_guard(self, tmp_path, capsys):
        assert run(["walsh", "--branches", "3", "--keep", "0,2",
                    "--word-length", "99999", "--outdir", tmp_path]) == 2
        assert "dense guard" in capsys.readouterr().err

    def test_dense_guard_exits_2(self, tmp_path):
        # 3^8 = 6561 lies above the dense guard of the eigensolver
        assert run(["walsh", "--branches", "3", "--keep", "0,2",
                    "--word-length", "8", "--outdir", tmp_path]) == 2

    def test_seeded_run_holds_no_dense_matrix(self, tmp_path):
        # walsh_open keeps no block of M and the command solves the
        # 128 x 128 core alone: about 0.05 of the 16 N^2 bytes of M
        N = 3 ** 7
        tracemalloc.start()
        try:
            status = run(["walsh", "--branches", "3", "--keep", "0,2",
                          "--word-length", "7", "--phases-seed", "5",
                          "--outdir", tmp_path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        assert peak <= 0.08 * 16 * N * N

    def test_core_rotation_is_bitwise_apply_diagonal_phases(
            self, tmp_path, monkeypatch):
        solved = []

        def capture(matrix, want_vectors=False):
            solved.append(np.array(matrix, copy=True))
            return oqmap.spectral.eigen_decompose(matrix, want_vectors)

        monkeypatch.setattr(oqmap.cli, "eigen_decompose", capture)
        assert run(["walsh", "--branches", "6", "--keep", "1,4",
                    "--word-length", "4", "--phases-seed", "5",
                    "--outdir", tmp_path]) == 0
        model = walsh_open(6, (1, 4), 4)
        want = apply_diagonal_phases(model.open_map, seed=5).matrix
        assert solved[0].tobytes() == \
            want[np.ix_(model.core, model.core)].tobytes()

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("D,keep,k", WALSH_ORACLE_CASES)
    def test_spectrum_is_the_dense_spectrum(self, tmp_path, D, keep, k, seed):
        check_walsh_against_dense(tmp_path, D, keep, k, seed)

    @pytest.mark.parametrize("seed", [None, 5])
    def test_removed_digit_core_fails_the_dense_oracle(
            self, tmp_path, monkeypatch, seed):
        # D6 keep (0, 2, 4) has as many removed digits as kept ones
        use_removed_digit_core(monkeypatch)
        with pytest.raises(AssertionError):
            check_walsh_against_dense(tmp_path, 6, (0, 2, 4), 3, seed)

    def test_lapack_failure_exits_3(self, tmp_path, monkeypatch):
        def broken_det(a):
            raise np.linalg.LinAlgError("simulated LAPACK failure")

        monkeypatch.setattr(np.linalg, "det", broken_det)
        assert run(["walsh", "--branches", "3", "--keep", "0,2",
                    "--word-length", "3", "--outdir", tmp_path]) == 3


class TestEffective:
    def test_schur_reduction_run(self, tmp_path):
        assert run(["effective", *D5, "--N", "125", "--level", "2",
                    "--radius", "0.5", "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "effective.json")
        assert payload["projector_rank"] == 20
        assert payload["outer_count"] == 6
        assert payload["unmatched"] == 0
        assert payload["max_match_distance"] <= 1e-6
        assert payload["max_identity_rel_error"] <= 1e-8
        assert len(payload["residual_norms"]) == 6
        lines = (tmp_path / "effective_roots.csv").read_text().splitlines()
        assert lines[0] == "index,eig_re,eig_im,root_re,root_im,distance"
        assert len(lines) == 7

    def test_radius_inside_bulk_exits_2(self, tmp_path):
        assert run(["effective", *D5, "--N", "125", "--level", "2",
                    "--radius", "0.01", "--outdir", tmp_path]) == 2

    def test_m_max_checked_before_quantizing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oqmap.cli, "_kept_columns", unreachable)
        assert run([*EFFECTIVE, "--m-max", "13", "--outdir", tmp_path]) == 2
        assert run([*EFFECTIVE, "--m-max", "0", "--outdir", tmp_path]) == 2

    def test_probe_count_names_the_guard(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oqmap.cli, "_kept_columns", unreachable)
        assert run([*EFFECTIVE, "--probe-count", "5001",
                    "--outdir", tmp_path]) == 2
        assert "dense guard 5000" in capsys.readouterr().err


class TestHusimi:
    def test_top_mode_report(self, tmp_path):
        assert run(["husimi", *D3, "--N", "81", "--level", "3",
                    "--outdir", tmp_path]) == 0
        payload = load(tmp_path / "husimi.json")
        assert payload["mode_rank"] == 0
        assert abs(complex(payload["eigenvalue"]["re"],
                           payload["eigenvalue"]["im"])) \
            == pytest.approx(payload["modulus"], rel=1e-12)
        assert 0.0 <= payload["mass_near_kplus"] <= 1.0
        assert payload["enhancement_ratio"] > 0.0
        assert payload["thickening"] == pytest.approx(
            3 / math.sqrt(2 * math.pi * 81), abs=1e-12)
        pgm = (tmp_path / "husimi.pgm").read_text().splitlines()
        assert pgm[0] == "P2"
        assert pgm[1] == "64 64"
        lines = (tmp_path / "husimi.csv").read_text().splitlines()
        assert lines[0] == "x,xi,value"
        assert len(lines) == 1 + 64 * 64

    @pytest.mark.parametrize("argv", [
        # the two husimi commands of the benchmark, at their deepest mode
        ["husimi", *D5, "--N", "500", "--grid", "192", "--level", "4"],
        ["husimi", *D3, "--N", "486", "--grid", "128", "--level", "4"],
    ])
    def test_mode_residual_at_benchmark_sizes(self, tmp_path, argv):
        assert run([*argv, "--bloch", "0.3,0.7", "--mode-rank", "3",
                    "--outdir", tmp_path]) == 0
        assert load(tmp_path / "husimi.json")["mode_residual"] <= 1e-12

    def test_mode_residual_catches_an_unlifted_mode(self, tmp_path, monkeypatch):
        # mutation check: the kept block's eigenvector padded with zeros,
        # never carried onto the rows off nz through M[:, nz]
        def unlifted(v, Mv, value, rest):
            pass

        monkeypatch.setattr(oqmap.cli, "_lift_mode", unlifted)
        assert run(["husimi", *D5, "--N", "500", "--grid", "32",
                    "--outdir", tmp_path]) == 0
        assert load(tmp_path / "husimi.json")["mode_residual"] > 1e-3

    @staticmethod
    def mirror_odd_residuals():
        """mode_residual of ranks 0-3 at D3 N=243, Bloch (1/2, 1/2), where
        R: j -> N-1-j commutes with M and all four modes are R-odd."""
        spec = symmetric_spec(3, (0, 2))
        config = QuantizationConfig(243, (0.5, 0.5))
        residuals = []
        for rank in range(4):
            _, mode, residual, _ = open_mode(spec, config, rank)
            assert np.abs(mode[::-1] + mode).max() <= 1e-10
            residuals.append(residual)
        return residuals

    def test_mirror_odd_modes_converge(self):
        assert max(self.mirror_odd_residuals()) <= 1e-14

    def test_mirror_odd_modes_catch_a_mirror_even_start(self, monkeypatch):
        # mutation check: an all-ones start is R-even, so inverse
        # iteration amplifies only the rounding along the R-odd modes
        monkeypatch.setattr(oqmap.cli, "_start_vector",
                            lambda k: np.ones(k, dtype=complex))
        assert max(self.mirror_odd_residuals()) > 1e-14

    def test_singular_shift_takes_a_fixed_path(self, tmp_path, monkeypatch):
        spec = symmetric_spec(5, (1, 3))
        config = QuantizationConfig(125, (0.3, 0.7))
        solve = np.linalg.solve
        shifts = []

        def singular_first(a, b):
            # the first solve of each _open_mode reports an exactly
            # singular shift
            shifts.append(a.diagonal().copy())
            if len(shifts) % 3 == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_first)
        first = open_mode(spec, config, 2)
        second = open_mode(spec, config, 2)
        assert len(shifts) == 6
        # the retry moves the shift by eps sqrt(k), up to the rounding of
        # the diagonal's own subtraction
        delta = np.finfo(float).eps * math.sqrt(len(shifts[0]))
        assert np.abs(shifts[0] - shifts[1] - delta).max() <= 0.25 * delta
        assert np.array_equal(shifts[1], shifts[2])
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])
        assert first[2] == second[2] <= 1e-12

        # a shift still singular after the move is a numerical failure
        def unsolvable(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", unsolvable)
        assert run(["husimi", *D5, "--N", "125", "--grid", "32",
                    "--outdir", tmp_path]) == 3

    def test_mode_rank_out_of_range(self, tmp_path):
        assert run(["husimi", *D3, "--N", "81", "--mode-rank", "81",
                    "--outdir", tmp_path]) == 2

    def test_grid_checked_before_quantizing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oqmap.cli, "_kept_block", unreachable)
        monkeypatch.setattr(oqmap.cli, "_kept_columns", unreachable)
        assert run([*HUSIMI, "--grid", "1", "--outdir", tmp_path]) == 2

    def test_huge_grid_exits_2_before_allocating(self, tmp_path):
        tracemalloc.start()
        try:
            status = run(["husimi", *D3, "--N", "27", "--grid", "100000",
                          "--outdir", tmp_path])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 2
        assert peak < 1 << 20
        assert not any(tmp_path.iterdir())

    def test_zero_mode_writes_strict_json(self, tmp_path):
        # the last mode of D3 at N=27 has eigenvalue 0, so lifetime is inf
        assert run([*HUSIMI, "--mode-rank", "26", "--grid", "32",
                    "--outdir", tmp_path]) == 0
        text = (tmp_path / "husimi.json").read_text()
        payload = json.loads(text, parse_constant=refuse_constant)
        assert payload["modulus"] == 0.0
        assert payload["lifetime"] == "inf"

    def test_explicit_thickening(self, tmp_path):
        assert run(["husimi", *D3, "--N", "27", "--level", "2",
                    "--thicken", "0.05", "--outdir", tmp_path]) == 0
        assert load(tmp_path / "husimi.json")["thickening"] == 0.05


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["count", *D3, "--N", "27", "--outdir", out]) == 0
        assert (a / "count.csv").read_bytes() == (b / "count.csv").read_bytes()
        assert (a / "count.json").read_bytes() \
            == (b / "count.json").read_bytes()
        # manifests agree up to wall time
        ma, mb = load(a / "count_manifest.json"), load(b / "count_manifest.json")
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        ma["parameters"].pop("outdir"), mb["parameters"].pop("outdir")
        assert ma == mb


# ---------------------------------------------------------------------------
# ill-posed numbers and the runner
# ---------------------------------------------------------------------------

WALSH3 = ["walsh", "--branches", "3", "--keep", "0,2", "--word-length", "3"]
EFFECTIVE = ["effective", *D5, "--N", "125", "--level", "2", "--radius", "0.5"]
HUSIMI = ["husimi", *D3, "--N", "27", "--level", "2"]


@pytest.mark.parametrize("argv", [
    ["count", *D3, "--N", "27", "--nu", "nan"],
    ["count", *D3, "--N", "27", "--nu", "inf"],
    ["count", *D3, "--N", "27", "--bloch", "nan,0"],
    [*HUSIMI, "--thicken", "nan"],
    [*HUSIMI, "--thicken", "inf"],
    ["effective", *D5, "--N", "125", "--level", "2", "--radius", "nan"],
    [*EFFECTIVE, "--probe-count", "0"],
    [*EFFECTIVE, "--probe-count", "-3"],
    # every probe is a |nz| x |nz| slogdet and bulk solves: the count is
    # held to the dense guard
    [*EFFECTIVE, "--probe-count", "5001"],
    [*EFFECTIVE, "--probe-radius", "nan"],
    # 0 divided by zero in symmetric_spec; 1 and -1 leave one rectangle or none
    ["walsh", "--keep", "0", "--word-length", "1", "--branches", "0"],
    ["walsh", "--keep", "0", "--word-length", "1", "--branches", "1"],
    ["walsh", "--keep", "0", "--word-length", "1", "--branches", "-1"],
    [*WALSH3, "--threshold", "nan"],
    [*WALSH3, "--threshold", "-1"],
    ["thermo", *D3, "--s-grid", "nan:1:3"],
    ["weyl-fit", *D3, "--N", "27:135:27", "--radius", "inf"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_non_finite_or_vacuous_input_exits_2(tmp_path, argv):
    out = tmp_path / "out"
    assert exit_status([*argv, "--outdir", out]) == 2
    assert not out.exists() or not any(out.iterdir())


HUGE = "1000000000000000"


@pytest.mark.parametrize("argv", [
    ["weyl-fit", *D3, "--N", f"1:{HUGE}:1", "--radius", "0.5"],
    ["radius-scan", *D5, "--N", f"5:{HUGE}:5"],
    ["thermo", *D3, f"--s-grid=0:1:{HUGE}"],
    ["count", *D3, "--N", "27", "--r-grid", f"0.1:1:{HUGE}"],
    [*HUSIMI, "--mode-rank", "27"],
    # the radius grid rule of count_profile, checked before quantizing
    pytest.param(["count", *D3, "--N", "972", "--r-grid", "0:1:10"],
                 id="count r=0"),
    pytest.param(["count", *D3, "--N", "972", "--r-grid", "0.9:0.1:10"],
                 id="count descending"),
    # the rescaling exponent lies in [0, 1], checked before quantizing
    pytest.param(["count", *D3, "--N", "9", "--nu", "1e308"], id="count nu huge"),
    pytest.param(["count", *D3, "--N", "972", "--nu", "150"], id="count nu 150"),
    pytest.param(["count", *D3, "--N", "9", "--nu", "-400"], id="count nu negative"),
    # the exact strip covers are built before the map is quantized
    pytest.param(["husimi", *D5, "--N", "500", "--level", "30"],
                 id="husimi interval guard"),
    pytest.param(["husimi", *D5, "--N", "500", "--thicken", "-1"],
                 id="husimi negative thickening"),
    pytest.param(["effective", *D5, "--N", "500", "--level", "5",
                  "--radius", "0.5"], id="effective cover too fine"),
    pytest.param(["effective", *D5, "--N", HUGE, "--level", "0",
                  "--radius", "0.5"], id="effective huge N level 0"),
    pytest.param(["effective", *D5, "--N", HUGE, "--level", "1",
                  "--radius", "0.5"], id="effective huge N level 1"),
    # E(lam) divides by lam^2, which overflows past sqrt(float max)
    pytest.param([*EFFECTIVE, "--probe-radius", "1e300"],
                 id="effective probe square overflows"),
    pytest.param([*EFFECTIVE, "--probe-radius", "1.4e154"],
                 id="effective probe past sqrt(float max)"),
    # a sweep with no admissible dimension is refused, not run empty
    pytest.param(["radius-scan", *D3, "--N", "7:8:1"],
                 id="radius-scan none admissible"),
    pytest.param(["weyl-fit", *D3, "--N", "7:8:1", "--radius", "0.5"],
                 id="weyl-fit none admissible"),
    # QuantizationConfig refuses a dimension below 1 and Bloch phases
    # outside [0, 1)^2 before the map is quantized
    pytest.param(["spectrum", *D3, "--N", "0"], id="spectrum N=0"),
    pytest.param(["spectrum", *D3, "--N=-3"], id="spectrum N=-3"),
    *(pytest.param([*argv, f"--bloch={bloch}"], id=f"{argv[0]} bloch {bloch}")
      for argv in (["count", *D3, "--N", "27"], ["spectrum", *D3, "--N", "27"],
                   ["radius-scan", *D5, "--N", "50:60:2"],
                   ["weyl-fit", *D3, "--N", "27:135:27", "--radius", "0.5"],
                   EFFECTIVE, HUSIMI)
      for bloch in ("1,0", "0,1", "0.5,1.5", "2,0", "-0.25,0")),
], ids=lambda argv: argv[0])
def test_oversized_input_exits_2_before_allocating(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(oqmap.cli, "_kept_columns", unreachable)
    monkeypatch.setattr(oqmap.cli, "_kept_block", unreachable)
    tracemalloc.start()
    try:
        status = run([*argv, "--outdir", tmp_path])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 2
    assert peak < 1 << 20
    assert not any(tmp_path.iterdir())


def test_no_command_forms_the_unitary(tmp_path, monkeypatch):
    # every command that quantizes needs only the open map M = U Pi
    monkeypatch.setattr(oqmap.quantize.OpenQuantization, "unitary",
                        property(unreachable))
    with pytest.raises(AssertionError):
        quantize_open(symmetric_spec(3, (0, 2)), QuantizationConfig(9)).unitary
    names = ("spectrum", "count", "radius-scan", "weyl-fit", "effective", "husimi")
    runs = [(name, argv) for name, argv in CLI_RUNS if name in names]
    assert [name for name, _ in runs] == list(names)
    assert "--dump-matrix" in runs[0][1]
    for name, argv in runs:
        assert run([*argv, "--outdir", tmp_path / name]) == 0, name


@pytest.mark.parametrize("name,argv", CLI_RUNS, ids=[n for n, _ in CLI_RUNS])
def test_manifest_lists_every_output(tmp_path, name, argv):
    assert run([*argv, "--outdir", tmp_path]) == 0
    manifest_name = f"{name.replace('-', '_')}_manifest.json"
    manifest = load(tmp_path / manifest_name)
    assert manifest["command"] == name
    assert "func" not in manifest["parameters"]
    on_disk = {p.name for p in tmp_path.iterdir()} - {manifest_name}
    listed = {entry["path"]: entry for entry in manifest["outputs"]}
    assert set(listed) == on_disk
    for fname, entry in listed.items():
        assert entry["sha256"] == sha256_file(tmp_path / fname)
        assert entry["bytes"] == (tmp_path / fname).stat().st_size


def test_manifest_records_the_numpy_build(tmp_path, monkeypatch):
    def build(name):
        doc = load(tmp_path / name / f"{name}_manifest.json")
        return [doc[key] for key in ("numpy_version", "blas_name",
                                     "blas_version")]

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert run(["count", *D3, "--N", "27", "--outdir", tmp_path / "count"]) == 0
    assert build("count") == [np.__version__, blas["name"], blas["version"]]
    # the exact commands load no numpy, so they name no build
    assert run(["thermo", *D3, "--outdir", tmp_path / "thermo"]) == 0
    assert build("thermo") == [None, None, None]
    # numpy < 1.26 has show_config() but no dicts mode to read the BLAS from
    monkeypatch.setattr(np, "show_config", lambda: None)
    assert run(["count", *D3, "--N", "27", "--outdir", tmp_path / "count"]) == 0
    assert build("count") == [np.__version__, None, None]


def test_package_reexports_each_module_all():
    modules = (classical, errors, phasespace, quantize, spectral)
    names = oqmap.__all__
    assert names == ["__version__", *(n for m in modules for n in m.__all__)]
    assert len(set(names)) == len(names)
    for module in modules:
        for name in module.__all__:
            obj = getattr(oqmap, name)
            assert obj is getattr(module, name)
            assert obj.__module__ == module.__name__, name


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this oqmap."""
    env = {**os.environ, "PYTHONPATH": str(Path(oqmap.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, check=True, env=env)


def test_import_loads_no_scipy():
    # every command pays the import; scipy alone would add ~0.5 s
    code = ("import sys, oqmap.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert fresh_python(code).stdout.strip() == "[]"


# each command in turn in one interpreter, with whether numpy is loaded
# after it; the exit codes of a refused input are checked on the way
NUMPY_PROBE = """
import json, sys
import oqmap, oqmap.cli
from oqmap.errors import NumericalError

def loaded():
    return "numpy" in sys.modules

steps = [["import", loaded()]]
for argv in json.loads(sys.argv[1]):
    try:
        code = oqmap.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    steps.append([argv[0], code, loaded()])
    if argv[0] == "escape" and code == 2:
        codes = [oqmap.cli.exit_code_for(exc)
                 for exc in (ValueError("x"), NumericalError("x"))]
        steps.append(["exit_code_for", codes, loaded()])
import numpy
steps.append(["LinAlgError", oqmap.cli.exit_code_for(
    numpy.linalg.LinAlgError("x"))])
print(json.dumps(steps))
"""


def test_exact_commands_load_no_numpy(tmp_path):
    # escape and thermo run on the exact classical layer alone, so they
    # skip numpy's import, about half of their start-up
    argvs = [
        ["--version"],
        ["escape", *D3, "--horizon", "3"],
        ["thermo", *D3],
        ["thermo", *D3, "--s-grid=-1:3:7"],
        ["escape", *D3, "--horizon", "0"],
        ["spectrum", "--partition", "0,1/2,1", "--keep", "0", "--N", "4"],
    ]
    argvs = [argv if argv[0] == "--version"
             else [*argv, "--outdir", str(tmp_path / str(i))]
             for i, argv in enumerate(argvs)]
    # the last line: --version prints its own line first
    out = fresh_python(NUMPY_PROBE, json.dumps(argvs)).stdout
    steps = json.loads(out.splitlines()[-1])
    assert steps == [
        ["import", False],
        ["--version", 0, False],
        ["escape", 0, False],
        ["thermo", 0, False],
        ["thermo", 0, False],
        ["escape", 2, False],
        ["exit_code_for", [2, 3], False],
        ["spectrum", 0, True],
        ["LinAlgError", 3],
    ]


PIN_PROBE = """
import json, os, sys
if sys.argv[1] == "numpy first":
    import numpy
import oqmap.cli
for var in oqmap.cli._BLAS_THREAD_VARS:
    os.environ[var] = "3"
code = oqmap.cli.main(sys.argv[2:])
print(json.dumps([code, {v: os.environ[v] for v in oqmap.cli._BLAS_THREAD_VARS}]))
"""


@pytest.mark.parametrize("order,threads", [("main first", "1"),
                                           ("numpy first", "3")])
def test_main_pins_blas_before_numpy_loads(tmp_path, order, threads):
    # BLAS reads its thread count when numpy loads it: main overrides the
    # caller's value only while that is still to come
    out = fresh_python(PIN_PROBE, order, "spectrum", *D3, "--N", "9",
                       "--outdir", str(tmp_path)).stdout
    code, seen = json.loads(out)
    assert code == 0
    assert seen == {var: threads for var in oqmap.cli._BLAS_THREAD_VARS}
    assert set(seen) >= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS"}


@pytest.mark.parametrize("argv", [
    # at one and two BLAS threads without the pin, spectrum.csv and
    # spectrum.json differ, and so does radius_scan.csv
    ["spectrum", *D3, "--N", "243", "--bloch", "0.3,0.7"],
    ["radius-scan", *D5, "--N", "250:500:250"],
], ids=lambda argv: argv[0])
def test_outputs_do_not_depend_on_the_blas_thread_variables(tmp_path, argv):
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(oqmap.__file__).parents[1])}
        subprocess.run([sys.executable, "-m", "oqmap.cli", *argv,
                        "--outdir", str(out)], env=env, check=True)
        files = {}
        for path in sorted(out.iterdir()):
            if path.name.endswith("_manifest.json"):
                doc = load(path)
                doc.pop("wall_time_s")
                doc["parameters"].pop("outdir")
                files[path.name] = doc
            else:
                files[path.name] = path.read_bytes()
        outputs.append(files)
    assert len(outputs[0]) >= 2
    assert outputs[0] == outputs[1]


def test_patch_before_the_first_command_takes_effect(tmp_path):
    # loading the numeric layers keeps a name a caller bound first, the
    # way tests monkeypatch oqmap.cli and the benchmark's tracer wraps it
    code = """
import sys, oqmap.cli
from oqmap.errors import ValidationError

def patched(*args, **kwargs):
    raise ValidationError("patched _kept_block")

oqmap.cli._kept_block = patched
print(oqmap.cli.main(sys.argv[1:]))
print(oqmap.cli._kept_block is patched)
"""
    result = fresh_python(code, "spectrum", *D3, "--N", "9", "--outdir",
                          str(tmp_path))
    assert result.stdout.split() == ["2", "True"]
    assert "patched _kept_block" in result.stderr


def test_parse_dimensions_before_any_command():
    # its dense guard is the classical layer's, so no command has loaded
    # the numeric layers in a new interpreter, and the call loads none
    code = ("import sys, oqmap.cli; print(oqmap.cli.parse_dimensions('4:8:2')); "
            "print('numpy' in sys.modules)")
    assert fresh_python(code).stdout.split() == ["[4,", "6,", "8]", "False"]


def test_module_getattr_binds_the_numeric_layers():
    # before any command, a numeric name read from outside binds the
    # numeric layers; an unknown name is refused, and a dunder lookup
    # loads no numpy
    code = """
import sys, oqmap.cli
try:
    oqmap.cli.__wrapped__
except AttributeError:
    print("dunder refused")
print("numpy" in sys.modules, "eigen_decompose" in vars(oqmap.cli))
found = oqmap.cli.eigen_decompose
import oqmap.spectral
print(found is oqmap.spectral.eigen_decompose)
try:
    oqmap.cli.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert fresh_python(code).stdout.splitlines() == [
        "dunder refused", "False False", "True",
        "module 'oqmap.cli' has no attribute 'no_such_name'"]


# the layer names oqmap.cli bound by its imports when every layer loaded
# with it; the benchmark's tracer wraps the functions among them
CLI_LAYER_NAMES = {
    classical: ("DENSE_GUARD", "INTERVAL_GUARD", "_DIGIT_GUARD", "BakerSpec",
                "cantor_dimension", "escape_report", "spec_digest",
                "thermo_report", "validate_spec"),
    phasespace: ("CoherentFrame", "_validate_grid", "husimi_report",
                 "merged_strip_cover"),
    quantize: ("QuantizationConfig", "_block_sizes", "_joined",
               "_kept_block", "_kept_columns", "_open_columns",
               "_phase_factors", "walsh_open"),
    oqmap.serialize: ("fmt_float", "sha256_file", "write_counts_csv",
                      "write_husimi_csv", "write_husimi_pgm",
                      "write_intervals_csv", "write_json", "write_lines",
                      "write_matrix", "write_matrix_csv",
                      "write_spectrum_csv"),
    spectral: ("_check_m_max", "_check_nu", "_check_probes", "_check_radii",
               "_with_zeros", "count_profile", "effective_hamiltonian",
               "eigen_decompose", "trapped_quasiprojector", "weyl_fit"),
}


def test_numeric_command_binds_every_layer_name(tmp_path):
    assert run(["spectrum", *D3, "--N", "9", "--outdir", tmp_path]) == 0
    bound = vars(oqmap.cli)
    assert bound["np"] is np
    for module, names in CLI_LAYER_NAMES.items():
        for name in names:
            assert bound[name] is getattr(module, name), name
    layers = {m.__name__ for m in CLI_LAYER_NAMES}
    functions = {name for name, fn in bound.items() if inspect.isfunction(fn)
                 and fn.__module__ in layers}
    listed = {name for names in CLI_LAYER_NAMES.values() for name in names}
    assert functions - listed == {"_linspace"}


# ---------------------------------------------------------------------------
# token fuzz: every command, each option a valid token or a hostile one
# ---------------------------------------------------------------------------

# option -> (valid tokens, hostile tokens); None is the bare flag
BAD_INT = ["0", "-3", "x", "nan", "1e-5000", HUGE]
BAD_REAL = ["nan", "inf", "-inf", "-1", "1e308", HUGE, "x"]
BAD_GRID = ["0:1:10", "0.9:0.1:10", "nan:1:3", "-inf:0:3", "1e-5000:1:2",
            f"0:1:{HUGE}", "0:1:0", "0:1", "-1e308:1e308:3"]
MAP = {
    "--partition": (["0,1/3,2/3,1", "0,1/5,2/5,3/5,4/5,1", "0,1/2,3/4,1"],
                    ["0,0.5,1", "0,1/3,1/3,1", "0,1", "1,0", "0,1e-5000,1",
                     "nan", ""]),
    "--keep": (["0,2", "1,3", "0"], ["", "0,1,2", "7", "-1", HUGE]),
}
# N = 60 holds every width of the three valid partitions
SPECTRAL = {
    **MAP,
    "--N": (["60", "30", "12"], ["7", *BAD_INT]),
    "--bloch": (["0,0", "0.3,0.7", "0.5,0.25"],
                ["1,0", "0,1", "0.5,1.5", "2,0", "-0.25,0", "nan,0", "inf,0",
                 "0"]),
}
SWEEP = {**SPECTRAL, "--N": (["12:60:12", "12:36:12", "30:90:30"],
                             ["7:8:1", "27:9:1", "9:27:0", "0:9:3",
                              f"1:{HUGE}:1", "nan"])}
FUZZ_OPTIONS = {
    "thermo": {**MAP, "--s-grid": (["-1:3:5", "0.1:1:3", "0:0:1"], BAD_GRID)},
    "escape": {**MAP, "--horizon": (["1", "3", "5"], BAD_INT)},
    "spectrum": {**SPECTRAL, "--dump-matrix": ([None], [])},
    "count": {**SPECTRAL, "--r-grid": (["0.05:1.0:20", "0.1:1:3"], BAD_GRID),
              "--nu": (["0.5", "0", "1"], BAD_REAL)},
    "radius-scan": SWEEP,
    "weyl-fit": {**SWEEP, "--radius": (["0.5", "0.3", "0.9"], BAD_REAL)},
    "walsh": {"--branches": (["2", "3", "4"], ["1", *BAD_INT]),
              "--keep": (["0", "1", "0,2"], MAP["--keep"][1]),
              "--word-length": (["1", "2", "3"], BAD_INT),
              "--phases-seed": (["1", "7"], ["x", "nan"]),
              "--threshold": (["1e-8", "0.5", "0"], BAD_REAL)},
    "effective": {**SPECTRAL, "--level": (["0", "1", "2"], BAD_INT),
                  "--radius": (["0.5", "0.7"], ["0", *BAD_REAL]),
                  "--probe-radius": (["1.5", "2"], ["0.01", *BAD_REAL]),
                  "--probe-count": (["1", "3", "8"], BAD_INT),
                  "--m-max": (["1", "6", "12"], ["13", *BAD_INT])},
    "husimi": {**SPECTRAL, "--mode-rank": (["0", "3"], ["60", *BAD_INT]),
               "--grid": (["32", "40"], ["1", *BAD_INT]),
               "--level": (["1", "2", "3"], BAD_INT),
               "--thicken": (["auto", "0.05"], BAD_REAL)},
}


@st.composite
def fuzz_argv(draw):
    """A command with a valid token for each option, except that about one
    option in six gets a hostile token or is left out (a required option
    left out is a usage error)."""
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    for flag, (good, bad) in FUZZ_OPTIONS[command].items():
        if draw(st.sampled_from([False] * 5 + [True])):
            if not bad or draw(st.integers(0, 3)) == 0:
                continue
            value = draw(st.sampled_from(bad))
        else:
            value = draw(st.sampled_from(good))
        # "--flag=value" keeps a leading "-" a value, as in "--bloch=-0.25,0"
        argv.append(flag if value is None else f"{flag}={value}")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(fuzz_argv())
def test_token_fuzz_exits_0_2_or_3_with_strict_json(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        status = exit_status([*argv, f"--outdir={out}"])
        assert status in (0, 2, 3), argv
        written = list(out.iterdir()) if out.exists() else []
        if status == 2:
            assert written == [], argv
        for path in written:
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=refuse_constant)
