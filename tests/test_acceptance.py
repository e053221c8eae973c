"""Acceptance gate: twelve end-to-end claims about the laboratory.

Each test prints one PASS/FAIL line (visible with -s or in the captured
output of a failure) and asserts the claim with its pinned tolerance.
The criteria are intentionally redundant with the unit suite: they
exercise the shipped pipeline at production sizes, not the internals.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from oqmap import (
    QuantizationConfig,
    apply_diagonal_phases,
    CoherentFrame,
    effective_hamiltonian,
    eigen_decompose,
    escape_report,
    husimi_report,
    merged_strip_cover,
    pressure,
    quantize_open,
    symmetric_spec,
    trapped_quasiprojector,
    weyl_fit,
)
from oqmap.cli import main

from conftest import (
    get_open_spectrum,
    get_quantization,
    get_spec,
    get_walsh,
    get_walsh_spectrum,
    random_rational_spec,
)

pytestmark = pytest.mark.acceptance


def report(num, slug, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d} ({slug}): {detail}"
    print(line)
    assert ok, line


def nontrivial_count(branches, keep, k, threshold):
    eigs = get_walsh_spectrum(branches, keep, k).eigenvalues
    return int(np.sum(np.abs(eigs) > threshold))


def test_criterion_01_walsh_count_law():
    counts = {k: nontrivial_count(3, (0, 2), k, 1e-8) for k in range(1, 7)}
    ok = all(counts[k] == 2 ** k for k in counts)
    report(1, "walsh-count-law", ok,
           f"D=3 keep(0,2) counts(|lam|>1e-8) {counts} vs 2^k")


def test_criterion_02_walsh_degeneracy():
    # The D=4 keep(0,2) tensor model has Jordan blocks at zero whose
    # numerically recovered moduli scale like eps^(1/k); a 1e-2 threshold
    # separates them cleanly from the single modulus-1 eigenvalue
    # (largest spurious modulus observed: 6.2e-4 at k=5).
    details = []
    ok = True
    for k in range(1, 6):
        eigs = get_walsh_spectrum(4, (0, 2), k).eigenvalues
        moduli = np.sort(np.abs(eigs))
        count = int(np.sum(moduli > 1e-2))
        simple = moduli[-1] > 0.9 and (moduli.size == 1 or moduli[-2] <= 1e-2)
        perturbed = apply_diagonal_phases(
            get_walsh(4, (0, 2), k).open_map, seed=7)
        count_p = int(np.sum(np.abs(
            eigen_decompose(perturbed).eigenvalues) > 1e-2))
        # k=1 is exempt from the lifting clause: the kept 2x2 block of
        # the D=4 symbol matrix has rank 1, so the map has exactly one
        # nonzero eigenvalue no matter which diagonal phases act on it.
        lifted = count_p > 1 if k >= 2 else count_p == 1
        ok = ok and count == 1 and simple and lifted
        details.append(f"k={k}:{count}->{count_p}")
    report(2, "walsh-degeneracy", ok,
           "unperturbed->seed7 nontrivial counts " + ", ".join(details))


def test_criterion_03_walsh_radius_constancy():
    details = []
    ok = True
    for D, keep in ((3, (0, 2)), (4, (0, 2))):
        radii = [float(np.abs(
            get_walsh_spectrum(D, keep, k).eigenvalues).max())
            for k in range(1, 6)]
        bound = len(keep) / math.sqrt(D)
        spread = max(radii) - min(radii)
        ok = ok and spread <= 1e-8 and max(radii) <= bound + 1e-8
        details.append(f"D={D}: r_sp={radii[0]:.12f} spread={spread:.2e} "
                       f"bound={bound:.6f}")
    report(3, "walsh-radius-constancy", ok, "; ".join(details))


def test_criterion_04_walsh_step_concentration():
    model = get_walsh(3, (0, 2), 1)
    r_c = abs(np.linalg.det(model.omega_tilde)) ** 0.5
    fractions = []
    for k in range(3, 8):
        moduli = np.abs(get_walsh_spectrum(3, (0, 2), k).eigenvalues)
        nontrivial = moduli[moduli > 1e-8]
        fractions.append(float(np.mean(np.abs(nontrivial - r_c) <= 0.1)))
    # observed fractions are all exactly 1.0 from k=3 on, so the
    # "increases" clause is checked as non-decreasing
    monotone = all(b >= a for a, b in zip(fractions, fractions[1:]))
    ok = monotone and fractions[-1] > 0.6 and abs(r_c - 3 ** -0.25) < 1e-12
    report(4, "walsh-step-concentration", ok,
           f"r_c={r_c:.10f} fractions(k=3..7)={fractions}")


def test_criterion_05_fractal_weyl_exponent():
    samples = []
    for k in range(3, 8):
        N = 3 ** k
        eigs = get_open_spectrum("D3", N).eigenvalues
        samples.append((N, int(np.sum(np.abs(eigs) >= 0.5))))
    fit = weyl_fit(samples, radius=0.5)
    ok = abs(fit.nu_hat - 0.6309) <= 0.15
    report(5, "fractal-weyl-exponent", ok,
           f"counts={samples} nu_hat={fit.nu_hat:.6f} vs 0.6309 +- 0.15")


def test_criterion_06_gap_bracket():
    d5 = {N: float(np.abs(get_open_spectrum("D5", N).eigenvalues).max())
          for N in (50, 100, 200, 400, 800, 1000)}
    d3 = {N: float(np.abs(get_open_spectrum("D3", N).eigenvalues).max())
          for N in (27, 81, 243, 729)}
    ok = (all(0.60 <= r <= 0.92 for r in d5.values())
          and all(r <= 0.99 for r in d3.values()))
    fmt = lambda d: {n: round(r, 4) for n, r in d.items()}
    report(6, "gap-bracket", ok,
           f"D=5 r_sp in [0.60,0.92]: {fmt(d5)}; D=3 r_sp<=0.99: {fmt(d3)}")


def test_criterion_07_pressure_cross_validation():
    rng = np.random.default_rng(714)
    worst_pair = 0.0
    for _ in range(50):
        spec = random_rational_spec(rng)
        for s in rng.uniform(-1.0, 3.0, 10):
            diff = abs(pressure(spec, s, "closed_form")
                       - pressure(spec, s, "markov"))
            worst_pair = max(worst_pair, diff)
    worst_sym = 0.0
    for _ in range(10):
        D = int(rng.integers(2, 9))
        size = int(rng.integers(1, D))
        keep = tuple(sorted(rng.choice(D, size=size, replace=False)))
        spec = symmetric_spec(D, keep)
        for s in rng.uniform(-1.0, 3.0, 10):
            exact = math.log(len(keep)) - s * math.log(D)
            worst_sym = max(worst_sym, abs(pressure(spec, s) - exact))
    ok = worst_pair <= 1e-10 and worst_sym <= 1e-12
    report(7, "pressure-cross-validation", ok,
           f"closed vs markov worst {worst_pair:.3e} (tol 1e-10); "
           f"symmetric worst {worst_sym:.3e} (tol 1e-12)")


def test_criterion_08_exact_escape_volumes():
    # keep sets are capped at 2 branches so that horizon 12 stays inside
    # the refinement guard (2^12 intervals) at exact-rational cost
    rng = np.random.default_rng(815)
    checked = 0
    for _ in range(20):
        spec = random_rational_spec(rng, max_keep=2)
        sigma = sum(spec.partition[i + 1] - spec.partition[i]
                    for i in spec.keep)
        rep = escape_report(spec, 12)
        assert rep.survivor_volume == sigma ** 12
        for n, escaped in enumerate(rep.escaped_volumes, start=1):
            assert Fraction(1) - escaped == sigma ** n
            checked += 1
    report(8, "exact-escape-volumes", True,
           f"20 random rational specs, {checked} exact volume identities "
           f"at horizons 1..12")


def test_criterion_09_structure_invariants():
    details = []
    ok = True
    for tag, dims in (("D3", (27, 243, 2187)), ("D5", (50, 125))):
        spec = get_spec(tag)
        sigma = sum(spec.partition[i + 1] - spec.partition[i]
                    for i in spec.keep)
        for N in dims:
            q = get_quantization(tag, N)
            # ||U*U - I||_2 == max |s^2 - 1| over singular values of U
            s = np.linalg.svd(q.unitary.matrix, compute_uv=False)
            defect = float(np.abs(s * s - 1.0).max())
            sv = np.linalg.svd(q.open_map.matrix, compute_uv=False)
            sv_dev = float(np.abs(sv - np.round(sv)).max())
            ones = int(np.sum(sv > 0.5))
            want = int(N * sigma)
            top = float(np.abs(get_open_spectrum(tag, N).eigenvalues).max())
            ok = ok and (defect <= 1e-12 and sv_dev <= 1e-10
                         and ones == want and top <= 1.0 + 1e-8)
            details.append(f"{tag} N={N}: unit={defect:.1e} "
                           f"sv_dev={sv_dev:.1e} ones={ones}/{want} "
                           f"r_sp={top:.4f}")
    report(9, "structure-invariants", ok, "; ".join(details))


def test_criterion_10_effective_hamiltonian():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for trial in range(200):
        d = int(rng.integers(2, 33))
        M = (rng.standard_normal((d, d))
             + 1j * rng.standard_normal((d, d))) / math.sqrt(d)
        if trial % 2 == 0:
            projector = rng.integers(0, 2, d).astype(float)
        else:
            r = int(rng.integers(1, d))
            raw = (rng.standard_normal((d, d))
                   + 1j * rng.standard_normal((d, d)))
            Q = np.linalg.qr(raw)[0][:, :r]
            projector = Q @ Q.conj().T
        R = 2.0 * float(np.linalg.norm(M, 2)) + 1.0
        rep = effective_hamiltonian(M, projector, probes=(R,), radius=R)
        worst = max(worst, rep.max_identity_rel_error)

    spec5 = get_spec("D5")
    config = QuantizationConfig(125)
    quantized = quantize_open(spec5, config)
    quasi = trapped_quasiprojector(spec5, config, 2)
    probes = tuple(1.5 * np.exp(2j * np.pi * j / 16) for j in range(16))
    rep = effective_hamiltonian(quantized.open_map.matrix, quasi.diagonal,
                                probes, radius=0.5, match_tol=1e-6)
    recovered = (rep.unmatched == 0 and len(rep.outer_eigenvalues) >= 1
                 and not rep.clustered)
    ok = worst <= 1e-8 and recovered
    report(10, "effective-hamiltonian", ok,
           f"det identity worst {worst:.3e} over 200 trials (tol 1e-8); "
           f"D=5 N=125 level-2: {len(rep.outer_eigenvalues)} annulus "
           f"eigenvalues, unmatched={rep.unmatched}, worst root distance "
           f"{max(rep.match_distances, default=0.0):.2e} (tol 1e-6)")


def test_criterion_11_husimi_localization():
    N = 500
    spec5 = get_spec("D5")
    eps = 3.0 / math.sqrt(2.0 * math.pi * N)
    spectrum = get_open_spectrum("D5", N, (0.5, 0.5), vectors=True)
    frame = CoherentFrame(N, (0.5, 0.5))
    cover = merged_strip_cover(spec5, 4, eps)
    mode_ratios = []
    for i in range(10):
        v = spectrum.vectors[:, i]
        v = v / np.linalg.norm(v)
        rep = husimi_report(v, frame, 64, cover)
        mode_ratios.append(rep.enhancement_ratio)
    rng = np.random.default_rng(42)
    random_ratios = []
    for _ in range(20):
        u = rng.normal(size=N) + 1j * rng.normal(size=N)
        u = u / np.linalg.norm(u)
        random_ratios.append(
            husimi_report(u, frame, 64, cover).enhancement_ratio)
    mean_random = float(np.mean(random_ratios))
    ok = min(mode_ratios) >= 2.0 and abs(mean_random - 1.0) <= 0.3
    report(11, "husimi-localization", ok,
           f"top-10 mode enhancement min {min(mode_ratios):.3f} (>= 2); "
           f"random-vector mean {mean_random:.3f} (within 1 +- 0.3)")


CLI_RUNS = (
    ("thermo", ["thermo", "--partition", "0,1/3,2/3,1", "--keep", "0,2"]),
    ("escape", ["escape", "--partition", "0,1/3,2/3,1", "--keep", "0,2",
                "--horizon", "4"]),
    ("spectrum", ["spectrum", "--partition", "0,1/3,2/3,1", "--keep", "0,2",
                  "--N", "27", "--dump-matrix"]),
    ("count", ["count", "--partition", "0,1/3,2/3,1", "--keep", "0,2",
               "--N", "27"]),
    ("radius-scan", ["radius-scan", "--partition", "0,1/5,2/5,3/5,4/5,1",
                     "--keep", "1,3", "--N", "50:60:2"]),
    ("weyl-fit", ["weyl-fit", "--partition", "0,1/3,2/3,1", "--keep", "0,2",
                  "--N", "27:135:27", "--radius", "0.5"]),
    ("walsh", ["walsh", "--branches", "3", "--keep", "0,2",
               "--word-length", "3", "--phases-seed", "7"]),
    ("effective", ["effective", "--partition", "0,1/5,2/5,3/5,4/5,1",
                   "--keep", "1,3", "--N", "125", "--level", "2",
                   "--radius", "0.5"]),
    ("husimi", ["husimi", "--partition", "0,1/3,2/3,1", "--keep", "0,2",
                "--N", "81", "--level", "3"]),
)


def test_criterion_12_cli_determinism(tmp_path):
    compared = 0
    for name, argv in CLI_RUNS:
        dirs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            out.mkdir()
            assert main(argv + ["--outdir", str(out)]) == 0
            dirs.append(out)
        first = {p.name: p for p in dirs[0].iterdir()}
        second = {p.name: p for p in dirs[1].iterdir()}
        assert first.keys() == second.keys(), name
        for fname in first:
            if fname.endswith("_manifest.json"):
                manifests = []
                for p in (first[fname], second[fname]):
                    doc = json.loads(p.read_text())
                    doc.pop("wall_time_s")
                    doc["parameters"].pop("outdir")
                    manifests.append(doc)
                assert manifests[0] == manifests[1], f"{name}/{fname}"
            else:
                assert (first[fname].read_bytes()
                        == second[fname].read_bytes()), f"{name}/{fname}"
                compared += 1
    report(12, "cli-determinism", True,
           f"{len(CLI_RUNS)} commands rerun, {compared} output files "
           f"byte-identical, manifests equal up to wall time")
