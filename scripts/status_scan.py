"""Per-op outcomes of the benchmark's workloads, untimed.

For each seed and op index given, runs the workload's own ``prepare``,
``run`` and ``check`` from perfbench/workloads.py, with BLAS pinned to
one thread as perfbench pins it, and prints one JSON line per op:

- ``solves``: status and iteration count of each dual solve the op made;
- ``variance``: the verdict of each ``weighted_estimates`` call, ``ok`` or
  the class of the error it raised (a study counts such a fit as failed);
- ``warnings``: each warning the op emitted, as its category and the
  first five words of its message;
- ``exit``: the exit code of a CLI op;
- ``raised``: the error a failed op raised, if any;
- ``fits_failed``, ``failed``, ``errors``: the check's counts and its
  failed checks;
- ``values``: the check's estimates and variances by label.

Two checkouts' outputs, compared line by line, show every op whose
outcome changed. The scan writes nothing in the checkout; the CLI
workload's CSVs go to a temporary directory.

Usage, from the root of a source checkout:

    python3 scripts/status_scan.py --workload fit5-n100k --seeds 11-30 --ops 0-29
    python3 scripts/status_scan.py --workload cli5-incomplete-n5k --smoke --seeds 1 --ops 0-7
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # no __pycache__ in the benchmark's directory

from run import PINNED  # noqa: E402  (perfbench/run.py; imports no numpy)

os.environ.update(PINNED)

import workloads  # noqa: E402
from tracing import patched  # noqa: E402


def indices(text: str) -> list[int]:
    """``"3"``, ``"0-29"`` or a comma-separated list of either."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def scan(wl, i: int) -> dict:
    """Run, check and describe op ``i`` of workload ``wl``."""
    module = next(m for m, names in wl.traced if "solve_dual" in names)
    solve = module.solve_dual
    est_module = next(m for m, names in wl.traced if "weighted_estimates" in names)
    estimate = est_module.weighted_estimates
    solves, verdicts = [], []

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        solves.append([sol.status, sol.iterations])
        return sol

    def judged(*args, **kwargs):
        try:
            out = estimate(*args, **kwargs)
        except workloads.factorbal.FactorbalError as exc:
            verdicts.append(type(exc).__name__)
            raise
        verdicts.append("ok")
        return out

    inp = wl.prepare(i)
    rec = {"workload": wl.name, "seed": wl.seed, "op": i}
    # what the op prints goes to standard error, to keep one JSON line per op
    with (patched(module, {"solve_dual": recording}),
          patched(est_module, {"weighted_estimates": judged}),
          warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(sys.stderr)):
        warnings.simplefilter("always")
        try:
            out = wl.run(inp)
        except workloads.factorbal.FactorbalError as exc:
            out, rec["raised"] = None, type(exc).__name__
    rec.update(solves=solves, variance=verdicts, warnings=[
        f"{w.category.__name__}: {' '.join(str(w.message).split()[:5])}" for w in caught])
    if out is None:
        outcome = workloads.Outcome(fits=wl.units, fits_failed=wl.units, failed=True)
    else:
        if isinstance(wl, workloads.CliEstimate):
            rec["exit"] = out[0]
        outcome = wl.check(inp, out)
    rec.update(fits_failed=outcome.fits_failed, failed=outcome.failed,
               errors=outcome.errors, values=outcome.values)
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seeds", type=indices, required=True, help='e.g. "11-30" or "0,3"')
    p.add_argument("--ops", type=indices, required=True, help='e.g. "0-29"')
    p.add_argument("--smoke", action="store_true", help="the benchmark's tiny inputs")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            wl = workloads.WORKLOADS[args.workload](seed, args.smoke, Path(tmp))
            for i in args.ops:
                print(json.dumps(scan(wl, i)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
