"""The four oqmap study workloads, each a fixed list of CLI commands.

Every workload has exactly four commands, so every workload reports the
same end-to-end metric names: ``cmd_s.1`` .. ``cmd_s.4`` are the wall
times of its first .. fourth command (README.md maps slots to commands).

The seed picks only inputs that leave the amount of work unchanged:
Bloch phases of the standard quantization, the Walsh ``--phases-seed``
and the Husimi ``--mode-rank`` among the top four modes.  It never picks
a size.  ``exact_classical`` has no such input, so its commands are the
same at every seed.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Tuple

D3 = ("--partition", "0,1/3,2/3,1", "--keep", "0,2")
D5 = ("--partition", "0,1/5,2/5,3/5,4/5,1", "--keep", "1,3")
ASYM = ("--partition", "0,1/2,3/4,1", "--keep", "0,2")
D4_THREE = ("--partition", "0,1/4,1/2,3/4,1", "--keep", "0,1,3")

SLOTS = 4


class Command(NamedTuple):
    name: str               # the oqmap subcommand
    argv: Tuple[str, ...]   # full argument list, without --outdir


class Workload(NamedTuple):
    why: str
    dominant: str           # the layer expected to dominate the traced time


WORKLOADS: Dict[str, Workload] = {
    "weyl_sweep": Workload(
        "the headline fractal Weyl study: dense eigensolves and "
        "quantize_open under the CLI thread pool, plus a large binary "
        "matrix dump", "spectral"),
    "walsh_tensor": Workload(
        "Walsh tensor spectra, dominated by the walsh_open power "
        "self-check; no quantize_open, pool or classical work, so it is "
        "the control for standard-quantization and pool changes",
        "quantize"),
    "trapped_audit": Workload(
        "Schur-complement reduction and Husimi audits: linear solves, "
        "slogdet, SVD, eigenvectors and phasespace work with float CSVs",
        "spectral"),
    "exact_classical": Workload(
        "exact Fraction refinement of escape sets and thermodynamics, "
        "with MB-sized CSVs of rationals and no dense linear algebra",
        "classical"),
}


def _bloch(rng: random.Random) -> str:
    return f"{rng.randrange(1000) / 1000:g},{rng.randrange(1000) / 1000:g}"


def commands(workload: str, seed: int) -> List[Command]:
    """The commands of one pass of ``workload`` for ``seed``, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "weyl_sweep":
        bloch = _bloch(rng)
        cmds = [
            Command("weyl-fit", ("weyl-fit", *D3, "--N", "162:972:162",
                                 "--radius", "0.5", "--bloch", bloch)),
            Command("radius-scan", ("radius-scan", *D5, "--N", "250:1000:250",
                                    "--bloch", bloch)),
            Command("spectrum", ("spectrum", *D3, "--N", "972",
                                 "--bloch", bloch, "--dump-matrix")),
            Command("count", ("count", *D3, "--N", "972", "--bloch", bloch)),
        ]
    elif workload == "walsh_tensor":
        phases = rng.randrange(1 << 31)
        cmds = [
            Command("walsh", ("walsh", "--branches", "3", "--keep", "0,2",
                              "--word-length", "7",
                              "--phases-seed", str(phases))),
            Command("walsh", ("walsh", "--branches", "4", "--keep", "0,1,3",
                              "--word-length", "5")),
            Command("walsh", ("walsh", "--branches", "6", "--keep", "1,4",
                              "--word-length", "4",
                              "--phases-seed", str(phases + 1))),
            Command("walsh", ("walsh", "--branches", "6", "--keep", "0,2,4",
                              "--word-length", "4")),
        ]
    elif workload == "trapped_audit":
        bloch = _bloch(rng)
        cmds = [
            Command("effective", ("effective", *D5, "--N", "500",
                                  "--level", "3", "--radius", "0.5",
                                  "--bloch", bloch)),
            Command("husimi", ("husimi", *D5, "--N", "500", "--grid", "192",
                               "--level", "4", "--bloch", bloch,
                               "--mode-rank", str(rng.randrange(4)))),
            Command("effective", ("effective", *D5, "--N", "375",
                                  "--level", "3", "--radius", "0.5",
                                  "--bloch", bloch)),
            Command("husimi", ("husimi", *D3, "--N", "486", "--grid", "128",
                               "--level", "4", "--bloch", bloch,
                               "--mode-rank", str(rng.randrange(4)))),
        ]
    elif workload == "exact_classical":
        cmds = [
            Command("escape", ("escape", *D3, "--horizon", "15")),
            Command("escape", ("escape", *ASYM, "--horizon", "15")),
            Command("thermo", ("thermo", *ASYM, "--s-grid=-1:3:20000")),
            Command("escape", ("escape", *D4_THREE, "--horizon", "9")),
        ]
    else:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {', '.join(WORKLOADS)}")
    assert len(cmds) == SLOTS
    return cmds
