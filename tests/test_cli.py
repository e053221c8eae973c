"""Command-line layer: token parsing, every subcommand end to end
(in process, via main), exit-code mapping, manifests, and output schemas.
"""

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
    parse_rational,
)
from oqmap.classical import INTERVAL_GUARD
from oqmap.errors import NumericalError, ValidationError
from oqmap.serialize import read_matrix, sha256_file, write_spectrum_csv

from conftest import use_removed_digit_core
from test_acceptance import CLI_RUNS

D3 = ["--partition", "0,1/3,2/3,1", "--keep", "0,2"]
D5 = ["--partition", "0,1/5,2/5,3/5,4/5,1", "--keep", "1,3"]


def run(argv):
    return main([str(a) for a in argv])


def load(path):
    return json.loads(path.read_text())


def refuse_constant(token):
    raise AssertionError(f"non-strict JSON token {token}")


def unreachable(*args, **kwargs):
    raise AssertionError("expensive call reached before input validation")


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
        # 128 x 128 core alone: about 0.15 of the 16 N^2 bytes of M
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
        assert peak <= 0.25 * 16 * N * N

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
        monkeypatch.setattr(oqmap.cli, "quantize_open", unreachable)
        assert run([*EFFECTIVE, "--m-max", "13", "--outdir", tmp_path]) == 2
        assert run([*EFFECTIVE, "--m-max", "0", "--outdir", tmp_path]) == 2

    def test_probe_count_names_the_guard(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oqmap.cli, "quantize_open", unreachable)
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
        # mutation check: the core eigenvector padded with zeros, never
        # carried onto the dropped indices through M[:, K]
        def unlifted(M, core, sweeps, Y, values, V):
            V[core] = Y

        monkeypatch.setattr(oqmap.spectral, "_lift", unlifted)
        assert run(["husimi", *D5, "--N", "500", "--grid", "32",
                    "--outdir", tmp_path]) == 0
        assert load(tmp_path / "husimi.json")["mode_residual"] > 1e-3

    def test_mode_rank_out_of_range(self, tmp_path):
        assert run(["husimi", *D3, "--N", "81", "--mode-rank", "81",
                    "--outdir", tmp_path]) == 2

    def test_grid_checked_before_quantizing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(oqmap.cli, "quantize_open", unreachable)
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
    # every probe is one N x N slogdet: the count is held to the dense guard
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
    monkeypatch.setattr(oqmap.cli, "quantize_open", unreachable)
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


def test_patch_before_the_first_command_takes_effect(tmp_path):
    # loading the numeric layers keeps a name a caller bound first, the
    # way tests monkeypatch oqmap.cli and the benchmark's tracer wraps it
    code = """
import sys, oqmap.cli
from oqmap.errors import ValidationError

def patched(*args, **kwargs):
    raise ValidationError("patched quantize_open")

oqmap.cli.quantize_open = patched
print(oqmap.cli.main(sys.argv[1:]))
print(oqmap.cli.quantize_open is patched)
"""
    result = fresh_python(code, "spectrum", *D3, "--N", "9", "--outdir",
                          str(tmp_path))
    assert result.stdout.split() == ["2", "True"]
    assert "patched quantize_open" in result.stderr


def test_parse_dimensions_before_any_command():
    # its dense guard comes from the numeric layers, which no command has
    # loaded yet in a new interpreter
    code = "import oqmap.cli; print(oqmap.cli.parse_dimensions('4:8:2'))"
    assert fresh_python(code).stdout.strip() == "[4, 6, 8]"


# the layer names oqmap.cli bound by its imports when every layer loaded
# with it; the benchmark's tracer wraps the functions among them
CLI_LAYER_NAMES = {
    classical: ("INTERVAL_GUARD", "_DIGIT_GUARD", "BakerSpec",
                "cantor_dimension", "escape_report", "spec_digest",
                "thermo_report", "validate_spec"),
    phasespace: ("CoherentFrame", "_validate_grid", "husimi_report",
                 "merged_strip_cover"),
    quantize: ("DENSE_GUARD", "QuantizationConfig", "_block_sizes",
               "_phase_factors", "quantize_open", "walsh_open"),
    oqmap.serialize: ("fmt_float", "sha256_file", "write_counts_csv",
                      "write_husimi_csv", "write_husimi_pgm",
                      "write_intervals_csv", "write_json", "write_lines",
                      "write_matrix", "write_matrix_csv",
                      "write_spectrum_csv"),
    spectral: ("_check_m_max", "_check_nu", "_check_probes", "_check_radii",
               "_qr_bound", "count_profile", "effective_hamiltonian",
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
