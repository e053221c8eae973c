#!/usr/bin/env python3
"""Benchmark of the oqmap command line: four study workloads.

Run from the repository root:

    python3 perfbench/run.py --workload weyl_sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` one client runs the workload as a closed loop: its
four commands, each in a fresh ``python -m oqmap.cli`` subprocess that
starts only after the previous one has exited, pass after pass until
``--seconds`` have elapsed.  It reports the end-to-end metrics.  With
``--trace 1`` the same commands run in this process through
``oqmap.cli.main``, alternating traced and untraced passes, and it
reports the per-layer metrics.  Every command's outputs are checked
(oracles.py) and a tamper self-test confirms that the checks catch bad
outputs.  The last line of stdout is the result as JSON; README.md
describes every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, NoReturn, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

from oracles import Outcome, grade, selftest  # noqa: E402
from probe import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, Command, commands  # noqa: E402

# fresh-interpreter set-ups measured before the first pass; one more
# follows every pass, so that set-up samples the same machine state
SETUP_SPAWNS = 5
SETUP_CODE = "import oqmap.cli; oqmap.cli.build_parser()"


def fail(message: str) -> NoReturn:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def describe(values: Sequence[float], unit: str) -> str:
    """Median, plus the highest percentile with ten samples beyond it."""
    n = len(values)
    text = f"median {median(values):.4f} {unit}"
    for p in (99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            rank = math.ceil(p / 100 * n) - 1
            return text + f", p{p:g} {sorted(values)[rank]:.4f} {unit} (n={n})"
    return text + f" (n={n}; a tail percentile needs n >= 20)"


def child_env() -> Dict[str, str]:
    """The environment users get: no thread pinning, this checkout's src."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


# ---------------------------------------------------------------------------
# closed loop over subprocesses (--trace 0)
# ---------------------------------------------------------------------------

def spawn(argv: List[str], env: Dict[str, str],
          stderr: Path) -> Tuple[float, float, int]:
    """Run one child to completion: wall seconds, peak RSS MiB, exit code."""
    with stderr.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_closed_loop(cmds: List[Command], seconds: float, work: Path):
    env = child_env()
    probe = work / "probe.json"
    with probe.open("w") as fh:
        done = subprocess.run([sys.executable, str(HERE / "probe.py")],
                              env=env, cwd=ROOT, stdout=fh, check=False)
    if done.returncode != 0:
        fail("cannot import numpy and oqmap from this checkout")
    provenance = json.loads(probe.read_text())
    if Path(provenance["oqmap_file"]).resolve().parent != SRC / "oqmap":
        fail(f"oqmap imported from {provenance['oqmap_file']}, not {SRC}")

    setup = []

    def set_up() -> None:
        wall, _, rc = spawn([sys.executable, "-c", SETUP_CODE], env,
                            work / "setup.stderr")
        if rc != 0:
            fail(f"'{SETUP_CODE}' exited with {rc}")
        setup.append(wall)

    for _ in range(SETUP_SPAWNS):
        set_up()

    study, peaks, per_slot, passes = [], [], [[] for _ in cmds], []
    start = time.perf_counter()
    while not study or time.perf_counter() - start < seconds:
        pdir = work / f"pass{len(study)}"
        outcomes, rss = [], []
        first = time.perf_counter()
        for i, cmd in enumerate(cmds):
            out = pdir / str(i + 1)
            out.mkdir(parents=True)
            wall, mib, rc = spawn(
                [sys.executable, "-m", "oqmap.cli", *cmd.argv,
                 "--outdir", str(out)], env, pdir / f"{i + 1}.stderr")
            per_slot[i].append(wall)
            rss.append(mib)
            error = (pdir / f"{i + 1}.stderr").read_text(errors="replace")
            outcomes.append(Outcome(cmd, rc, out, error.strip()[-300:]))
        study.append(time.perf_counter() - first)
        peaks.append(max(rss))
        passes.append(outcomes)
        set_up()

    # outputs are checked after the loop so that checking takes no
    # time from the measured passes
    failures, missed = [], []
    for outcomes in passes:
        failures += grade(outcomes)
    if not failures:
        missed = selftest(passes[0], work / "tamper")
    for p in range(len(passes)):
        shutil.rmtree(work / f"pass{p}")
    attempted = len(cmds) * len(passes)

    samples = {"study_s": (study, "s")}
    for i, walls in enumerate(per_slot):
        samples[f"cmd_s.{i + 1}"] = (walls, "s")
    samples["setup_s"] = (setup, "s")
    samples["peak_rss_mb"] = (peaks, "MiB")
    return samples, attempted, failures, missed, provenance


# ---------------------------------------------------------------------------
# in-process traced and untraced passes (--trace 1)
# ---------------------------------------------------------------------------

def run_traced(cmds: List[Command], seconds: float, work: Path):
    # the thread variables must be gone before numpy loads OpenBLAS
    for var in THREAD_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import oqmap
    if Path(oqmap.__file__).resolve().parent != SRC / "oqmap":
        fail(f"oqmap imported from {oqmap.__file__}, not {SRC}")
    import oqmap.cli
    import probe
    import tracer

    attempted, failures, missed, problems = 0, [], [], []
    traced_walls, untraced_walls, layer_runs = [], [], []
    all_spans, accounts = [], {}

    def one_pass(traced: bool):
        nonlocal attempted, failures, missed, accounts
        pdir = work / f"pass{attempted // len(cmds)}"
        t = tracer.Tracer()
        if traced:
            t.install()
        outcomes = []
        gc.collect()
        start = time.perf_counter()
        try:
            for i, cmd in enumerate(cmds):
                out = pdir / str(i + 1)
                out.mkdir(parents=True)
                argv = [*cmd.argv, "--outdir", str(out)]
                try:
                    rc = t.command(argv) if traced else oqmap.cli.main(argv)
                    error = ""
                except Exception:  # a crash is a failed command, not ours
                    rc, error = 1, traceback.format_exc(limit=3)
                outcomes.append(Outcome(cmd, rc, out, error))
        finally:
            t.uninstall()
        wall = time.perf_counter() - start
        attempted += len(cmds)
        bad = grade(outcomes)
        failures += bad
        if traced:
            metrics, accounts = tracer.layer_metrics(t.spans, t.counts)
            problems.extend(p for a in accounts.values() for p in a.problems)
            layer_runs.append(metrics)
            traced_walls.append(wall)
            all_spans.append(t.spans)
            if not missed and not bad and len(traced_walls) == 1:
                missed = selftest(outcomes, pdir / "tamper")
        else:
            untraced_walls.append(wall)
        shutil.rmtree(pdir)

    # the window includes the warm-up pass (imports, BLAS threads,
    # first-touch pages); a pair starts if at least half of it fits
    start = time.perf_counter()
    one_pass(False)
    untraced_walls.clear()
    pair, last = 0, 0.0
    while not traced_walls or \
            time.perf_counter() - start + last / 2 <= seconds:
        began = time.perf_counter()
        for traced in ((True, False) if pair % 2 == 0 else (False, True)):
            one_pass(traced)
        pair, last = pair + 1, time.perf_counter() - began

    metrics = {name: median([m[name] for m in layer_runs])
               for name in layer_runs[0]}
    metrics["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)

    origin = min(s.start for spans in all_spans for s in spans)
    with (work / "spans.jsonl").open("w") as fh:
        for p, spans in enumerate(all_spans):
            for s in spans:
                fh.write(json.dumps({"pass": p, **s._asdict(),
                                     "start": s.start - origin,
                                     "end": s.end - origin}) + "\n")
    return (metrics, attempted, failures, missed, probe.provenance(),
            accounts, problems, tracer)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def declared_metrics(trace: int) -> List[Tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oqmap" / "cli.py").is_file():
        fail(f"no oqmap sources under {SRC}; run from a full checkout")
    declared = declared_metrics(args.trace)
    seen = {v: os.environ.get(v) for v in THREAD_VARS}
    cmds = commands(args.workload, args.seed)
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    print(f"oqmap benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'in-process traced run' if args.trace else 'closed loop, one client'}")
    print(f"  why: {WORKLOADS[args.workload].why}")
    for i, cmd in enumerate(cmds, 1):
        print(f"  cmd_s.{i} = oqmap {' '.join(cmd.argv)}")

    metrics: Dict[str, float] = {}
    if args.trace:
        (metrics, attempted, failures, missed, provenance, accounts,
         problems, tracer) = run_traced(cmds, args.seconds, work)
        kinds = {name: kind for name, _, kind in tracer.COUNTS}
        print("per-command accounting of the last traced pass "
              "(self seconds by layer; cli = wall minus child spans):")
        for (cid, a), cmd in zip(sorted(accounts.items()), cmds):
            layers = sorted(a.layer_self.items(), key=lambda kv: -kv[1])
            top = ", ".join(f"{k} {v:.3f}" for k, v in layers[:3])
            print(f"  {cmd.name:<11} wall {a.wall:.3f}  cli {a.cli_self:.3f}"
                  f"  {top}  concurrency {a.concurrency}")
        busy: Dict[str, float] = {}
        for a in accounts.values():
            for layer, value in a.layer_self.items():
                busy[layer] = busy.get(layer, 0.0) + value
        print(f"  dominant layer: {max(busy, key=busy.get)} (expected "
              f"{WORKLOADS[args.workload].dominant})")
    else:
        samples, attempted, failures, missed, provenance = run_closed_loop(
            cmds, args.seconds, work)
        problems, kinds = [], {}
        for name, (values, unit) in samples.items():
            metrics[name] = median(values)
            print(f"  {name:<12} {describe(values, unit)}")

    provenance.update({"thread_vars_in_benchmark_env": seen,
                       "git_commit": git_commit(), "seed": args.seed,
                       "workload": args.workload,
                       "why": WORKLOADS[args.workload].why})
    (work / "provenance.json").write_text(json.dumps(provenance, indent=2))
    print(f"provenance: {json.dumps(provenance, sort_keys=True)}")
    for outcome, why in failures:
        print(f"FAILED {outcome.command.name}: {'; '.join(why)}")
    for what in missed:
        print(f"TAMPER NOT CAUGHT: {what}")
    for what in problems:
        print(f"TRACE INVALID: {what}")

    result_metrics = {}
    for name, unit in declared:
        if name not in metrics:
            raise KeyError(f"BENCHMARK.json declares {name}, not measured")
        result_metrics[name] = {"value": metrics[name], "unit": unit}
        if args.trace:
            label = kinds.get(name, "measured")
            print(f"  {name:<40} {metrics[name]:.6g} {unit} ({label})")
    result = {"correct": not failures and not missed and not problems,
              "attempted": attempted, "failed": len(failures),
              "metrics": result_metrics}
    (work / "result.json").write_text(json.dumps(result, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
