"""factorbal benchmark: end-to-end and per-module metrics of three workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc5-n2k --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --workload fit5-n100k --smoke --seconds 1

Each run starts fresh worker processes (worker.py) with BLAS pinned to
one thread and ``src/`` first on the import path: two that only set up,
then one that also measures. ``setup_s`` is the median set-up time of
the three. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-module metrics of a traced run. ``--smoke`` runs tiny inputs with
every check on. The lines before it report the same numbers by the
names README.md uses, and the environment. Exits non-zero without a
result when the source tree is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("mc5-n2k", "cli5-incomplete-n5k", "fit5-n100k")
SETUP_PROBES = 2
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"op_rel_p50": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.load_s": "s",
    "design.build_s": "s",
    "balance.build_s": "s",
    "balance.assemble_s": "s",
    "balance.filter_s": "s",
    "balance.rows_pre": "count",
    "balance.rows": "count",
    "balance.units": "count",
    "balance.bases": "count",
    "balance.dense_mb": "MB",
    "balance.peak_mb": "MB",
    "solver.solve_s": "s",
    "solver.iterations": "count",
    "solver.s_per_iter": "s",
    "solver.active_units": "count",
    "solver.peak_mb": "MB",
    "estimation.estimates_s": "s",
    "estimation.effects": "count",
    "estimation.s_per_effect": "s",
    "estimation.baselines_s": "s",
    "estimation.peak_mb": "MB",
    "simulation.generate_s": "s",
    "op.plain_s_p50": "s",
    "op.traced_s_p50": "s",
    "op.remainder_s": "s",
    "op.covered_frac": "ratio",
    "trace.overhead_ratio": "ratio",
    "host.calib_s": "s",
    "fail_frac": "ratio",
}


class BenchError(Exception):
    pass


def spawn(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    """Run worker.py in a fresh process and return its result."""
    result = Path(tempfile.mkstemp(suffix=".json", dir=workdir)[1])
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--state-dir", str(STATE), "--result", str(result),
    ]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(
            cmd + ["--spawn-t0", repr(time.monotonic())], env=env, cwd=ROOT,
            stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    if proc.returncode != 0 or result.stat().st_size == 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    out = json.loads(result.read_text())
    if not Path(out["factorbal"]).is_relative_to(ROOT / "src"):
        raise BenchError(f"imported factorbal from {out['factorbal']}, not {ROOT / 'src'}")
    return out


def measure(args) -> tuple[dict, list[dict]]:
    """Set-up probes, then the measuring worker, in one scratch directory."""
    deadline = time.monotonic() + DEADLINE_S
    STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        probes = [spawn(args, Path(tmp), deadline, True) for _ in range(SETUP_PROBES)]
        main = spawn(args, Path(tmp), deadline, False)
    return main, probes + [main]


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report(args, main: dict, runs: list[dict]) -> dict:
    """Print the named metrics and return the result object."""
    ops = main["ops"]
    plain = [o for o in ops if o["mode"] == "plain"]
    timed = [o for o in plain if o["ok"]] or plain
    per_unit = [o["seconds"] / o["units"] for o in timed]
    errors = [e for r in runs for e in r["errors"]]
    fits = sum(o["fits"] for o in ops)
    fits_failed = sum(o["fits_failed"] for o in ops)
    e2e = {
        "op_rel_p50": statistics.median(o["seconds"] / o["units"] / o["calib_s"] for o in timed),
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(r["setup_s"] for r in runs),
    }
    env = main["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={int(args.smoke)}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops: {len(ops)} attempted, {sum(not o['ok'] for o in ops)} failed; "
          f"fits: {fits} attempted, {fits_failed} failed")
    named = {
        "mc5-n2k": [
            ("reps_per_s", sum(o["units"] for o in timed) / sum(o["seconds"] for o in timed),
             "1/s"),
            ("rep_ms_p50", 1e3 * statistics.median(per_unit), "ms"),
            ("rep_ms_p90", 1e3 * quantile(per_unit, 90), "ms"),
        ],
        "cli5-incomplete-n5k": [("estimate_s_p50", statistics.median(per_unit), "s")],
        "fit5-n100k": [("fit_s_p50", statistics.median(per_unit), "s")],
    }[args.workload] + [
        ("op_rel_p50", e2e["op_rel_p50"], "ratio"),
        ("calib_s_p50", statistics.median(o["calib_s"] for o in timed), "s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("fail_frac", fits_failed / fits, "ratio"),
        ("setup_s", e2e["setup_s"], "s"),
    ]
    for name, value, unit in named:
        print(f"  {name:<24} {value:12.6g} {unit}")
    print(f"  (timings over {len(timed)} ops of {timed[0]['units']} unit(s); "
          f"setup_s is the median of {len(runs)} fresh processes)")
    print("  op seconds: " + " ".join(f"{o['seconds']:.4g}" for o in plain))
    print("  setup seconds: " + " ".join(f"{r['setup_s']:.4g}" for r in runs))
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in main["layers"].items()}
        for name, m in metrics.items():
            print(f"  {name:<24} {m['value']:12.6g} {m['unit']}")
        print(f"  spans written to {main['spans']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    for e in errors:
        print(f"CHECK FAILED: {e}")
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(not o["ok"] for o in ops),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, every check on")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "factorbal" / "__init__.py").is_file():
        print(f"error: no factorbal source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            main_run, runs = measure(args)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(args, main_run, runs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
