"""One benchmark process: import, warm up, then run a workload's ops.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
It times the import from the moment run.py spawned it (``--spawn-t0``, a
``time.monotonic`` reading, which is system-wide on Linux) and the
warm-up op; with ``--setup-only`` it stops there. Otherwise it runs ops
for ``--seconds``, checks each op's outputs and, with ``--trace 1``,
also runs every input traced, to give per-module times, counts and
the tracing overhead, and the first input once more with tracemalloc
on, to give per-module memory peaks. The result is written as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path

from tracing import Tracer, patched, self_time

DEFAULT_SEED = 0
REFERENCE = Path(__file__).with_name("reference.json")
# The extra unfiltered build is skipped above this many bytes of dense
# arrays in the filtered system: unfiltered it is 7-15 times larger
# (about 4.5 GB of peak RSS at N=100000).
ASSEMBLE_MAX_BYTES = 64 * 2**20


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def source_hash() -> str:
    """Digest of the factorbal sources, so that counts are only compared
    between runs of the same program."""
    import factorbal

    digest = hashlib.sha256()
    for path in sorted(Path(factorbal.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:12]


SPAN_COUNTS = {
    "balance.build": lambda s: {
        "rows": s.p, "units": s.n, "bases": s.basis_values.shape[1],
        "dense_bytes": dense_bytes(s),
    },
    "solver.solve": lambda sol: {
        "iterations": sol.iterations,
        "active_units": int((sol.weights > 0).sum()),
    },
    "estimation.estimates": lambda ests: {"effects": len(ests)},
}


def instrument(stack: ExitStack, workload, tracer: Tracer, builds: list) -> None:
    """Wrap the workload's module calls in spans; remember balance builds."""
    for module, names in workload.traced:
        repl = {}
        for attr, span in names.items():
            fn = tracer.wrap(span, getattr(module, attr), SPAN_COUNTS.get(span))
            if span == "balance.build":
                fn = _remembering(fn, builds)
            repl[attr] = fn
        stack.enter_context(patched(module, repl))


def dense_bytes(system) -> int:
    return system.B.nbytes + system.unit_targets.nbytes + system.element_values.nbytes


def _remembering(fn, builds):
    def build(*args, **kwargs):
        system = fn(*args, **kwargs)
        if dense_bytes(system) <= ASSEMBLE_MAX_BYTES:
            builds.append((args, kwargs))
        return system

    return build


class Calibration:
    """A fixed kernel timed next to every op, to express op times in units
    of the host's current speed.

    The host is shared: its speed moved by about 20% over minutes while
    the benchmark was written, and ``op time / kernel time`` moved about
    a quarter as much. The kernel mimics the workloads' mix: Python loops
    of small-vector numpy operations (as in the numeric redundancy
    filter), a LAPACK eigendecomposition and plain interpreted code. It
    takes about 0.15 s and holds about 10 MB.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.rows = rng.standard_normal((120, 9000))
        sym = rng.standard_normal((400, 400))
        self.sym = sym + sym.T

    def __call__(self) -> float:
        np = self.np
        t = time.perf_counter()
        basis = []
        for row in self.rows:
            v = row.copy()
            for q in basis:
                v -= (q @ v) * q
            basis.append(v / np.linalg.norm(v))
        np.linalg.eigh(self.sym)
        sum(i * i for i in range(200_000))
        return time.perf_counter() - t


def timed(workload, inp, failure_type):
    t = time.perf_counter()
    try:
        out = workload.run(inp)
    except failure_type as exc:
        return time.perf_counter() - t, None, exc
    return time.perf_counter() - t, out, None


class Run:
    def __init__(self, args, workloads):
        self.wl = workloads.WORKLOADS[args.workload](
            args.seed, args.smoke, Path(args.workdir)
        )
        self.workloads = workloads
        self.errors: list[str] = []
        self.ops: list[dict] = []
        self.tracer = Tracer()
        self.mem_tracer = Tracer(memory=True)
        self.reference = None
        if args.seed == DEFAULT_SEED and not args.smoke:
            self.reference = json.loads(REFERENCE.read_text())[self.wl.name]

    def op(self, i: int, inp, mode: str):
        """Run, time and check one op; returns the checked outcome.

        ``mode`` is ``plain``, ``traced`` (spans around module calls, then
        an extra unfiltered build of each balance system) or ``memory``
        (spans with tracemalloc peaks, kept apart because tracemalloc
        slows allocation-heavy code several times over).
        """
        factorbal = self.workloads.factorbal
        tracer = {"traced": self.tracer, "memory": self.mem_tracer}.get(mode)
        builds: list = []
        with ExitStack() as stack:
            if tracer is not None:
                tracer.op = i
                if tracer.memory:
                    tracemalloc.start()
                    stack.callback(tracemalloc.stop)
                instrument(stack, self.wl, tracer, builds)
                stack.enter_context(tracer.span("op"))
            seconds, out, exc = timed(self.wl, inp, factorbal.FactorbalError)
        if mode == "traced":
            for args, kwargs in builds:
                tracer.call(
                    "balance.assemble", factorbal.balance.build_balance_system,
                    *args, **{**kwargs, "drop_redundant": False},
                    counts=lambda s: {"rows": s.p},
                )
        if exc is not None:
            fits = self.wl.units
            outcome = self.workloads.Outcome(fits=fits, fits_failed=fits, failed=True)
            print(f"op {i}: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            outcome = self.wl.check(inp, out)
            self.errors += [f"op {i}: {e}" for e in outcome.errors]
            if i == 0 and self.reference is not None:
                self.errors += self.workloads.compare(
                    outcome.values, self.reference, "reference"
                )
        self.ops.append({
            "i": i, "seconds": seconds, "units": self.wl.units, "mode": mode,
            "ok": exc is None and outcome.ok,
            "fits": outcome.fits, "fits_failed": outcome.fits_failed,
        })
        return outcome

    def measure(self, seconds: float, trace: bool) -> None:
        """Ops on fresh inputs until the next one would overrun ``seconds``.

        The calibration kernel runs before the first input and after each;
        an op's ``calib_s`` is the mean of the two runs around it.
        """
        calibrate = Calibration()
        self.calib = [calibrate()]
        deadline = time.perf_counter() + seconds
        i, last = 0, 0.0
        while i == 0 or time.perf_counter() + last < deadline:
            start = time.perf_counter()
            inp = self.wl.prepare(i)
            # the memory pass goes first so that first-use costs of large
            # arrays do not fall on one side of trace.overhead_ratio
            modes = ["plain"]
            if trace:
                modes = ["memory", "plain", "traced"] if i == 0 else ["plain", "traced"]
            values = {mode: self.op(i, inp, mode).values for mode in modes}
            for mode in modes[1:]:
                if values[mode] != values[modes[0]]:
                    self.errors.append(f"op {i}: {mode} and {modes[0]} outputs differ")
            self.calib.append(calibrate())
            last = time.perf_counter() - start
            i += 1
        for op in self.ops:
            op["calib_s"] = (self.calib[op["i"]] + self.calib[op["i"] + 1]) / 2

    def op_counts(self) -> dict[int, list]:
        counts = defaultdict(list)
        for s in self.tracer.spans:
            if "counts" in s:
                counts[s["op"]].append({"name": s["name"], **s["counts"]})
        return counts

    def check_counts(self, path: Path) -> None:
        """Flag any count that differs from an earlier traced run of this
        seed and program."""
        now = {str(i): c for i, c in self.op_counts().items()}
        before = json.loads(path.read_text()) if path.exists() else {}
        for i in sorted(now.keys() & before.keys(), key=int):
            if now[i] != before[i]:
                self.errors.append(f"op {i}: counts differ from an earlier run")
        path.write_text(json.dumps({**before, **now}))

    def layers(self) -> dict:
        """Per-module metrics of the traced ops, per unit of work.

        A module not called, or a step skipped, reads 0.
        """
        spans = self.tracer.spans
        units = self.wl.units
        per_op = []  # (duration, self time, seconds by span name, counts)
        for idx, s in enumerate(spans):
            if s["name"] != "op":
                continue
            secs, counts = defaultdict(float), defaultdict(int)
            for c in spans:
                if c["parent"] == idx or (c["op"] == s["op"] and c["name"] == "balance.assemble"):
                    secs[c["name"]] += c["end"] - c["start"]
                if c["op"] == s["op"]:
                    for k, v in c.get("counts", {}).items():
                        counts[f"{c['name']}.{k}"] += v
            per_op.append((s["end"] - s["start"], self_time(spans, idx), dict(secs), dict(counts)))

        def med(f):
            return statistics.median(f(*o) for o in per_op)

        def per_unit(name):
            return med(lambda d, r, secs, n: secs.get(name, 0.0) / units)

        def per_count(name, count):
            return med(lambda d, r, secs, n: secs.get(name, 0.0) / n[count] if n.get(count) else 0.0)

        def filter_s(d, r, secs, n):
            if "balance.assemble" not in secs:
                return 0.0
            return (secs["balance.build"] - secs["balance.assemble"]) / units

        def first(name, key):
            op0 = min(s["op"] for s in spans if s["name"] == "op")
            vals = [s["counts"][key] for s in spans
                    if s["op"] == op0 and s["name"] == name and "counts" in s]
            return vals[0] if vals else 0

        def peak(*names):
            return max((s["peak_bytes"] for s in self.mem_tracer.spans
                        if s["name"] in names), default=0) / 2**20

        traced = {o["i"]: o["seconds"] for o in self.ops if o["mode"] == "traced"}
        plain = {o["i"]: o["seconds"] for o in self.ops if o["mode"] == "plain"}
        return {
            "cli.load_s": per_unit("cli.load"),
            "design.build_s": per_unit("design.build"),
            "balance.build_s": per_unit("balance.build"),
            "balance.assemble_s": per_unit("balance.assemble"),
            "balance.filter_s": med(filter_s),
            "balance.rows_pre": first("balance.assemble", "rows"),
            "balance.rows": first("balance.build", "rows"),
            "balance.units": first("balance.build", "units"),
            "balance.bases": first("balance.build", "bases"),
            "balance.dense_mb": first("balance.build", "dense_bytes") / 2**20,
            "balance.peak_mb": peak("balance.build"),
            "solver.solve_s": per_unit("solver.solve"),
            "solver.iterations": first("solver.solve", "iterations"),
            "solver.s_per_iter": per_count("solver.solve", "solver.solve.iterations"),
            "solver.active_units": first("solver.solve", "active_units"),
            "solver.peak_mb": peak("solver.solve"),
            "estimation.estimates_s": per_unit("estimation.estimates"),
            "estimation.effects": first("estimation.estimates", "effects"),
            "estimation.s_per_effect": per_count("estimation.estimates",
                                                 "estimation.estimates.effects"),
            "estimation.baselines_s": per_unit("estimation.baselines"),
            "estimation.peak_mb": peak("estimation.estimates", "estimation.baselines"),
            "simulation.generate_s": per_unit("simulation.generate"),
            "op.plain_s_p50": statistics.median(
                o["seconds"] / units for o in self.ops if o["mode"] == "plain"),
            "op.traced_s_p50": med(lambda d, r, secs, n: d / units),
            "op.remainder_s": med(lambda d, r, secs, n: r / units),
            "op.covered_frac": med(lambda d, r, secs, n: 1 - r / d),
            "trace.overhead_ratio": statistics.median(
                traced[i] / plain[i] for i in traced if i in plain
            ),
            "host.calib_s": statistics.median(self.calib),
            "fail_frac": sum(o["fits_failed"] for o in self.ops)
            / sum(o["fits"] for o in self.ops),
        }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawn-t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--state-dir", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    import workloads  # imports factorbal

    import_s = time.monotonic() - args.spawn_t0
    run = Run(args, workloads)
    warm = run.wl.warmup_input()
    t = time.perf_counter()
    out = run.wl.run(warm)
    warm_s = time.perf_counter() - t
    run.errors += [f"warm-up: {e}" for e in run.wl.check(warm, out).errors]
    result = {
        "env": environment(),
        "factorbal": workloads.factorbal.__file__,
        "import_s": import_s,
        "warm_s": warm_s,
        "setup_s": import_s + warm_s,
    }
    if not args.setup_only:
        run.measure(args.seconds, bool(args.trace))
        result["ops"] = run.ops
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            state = Path(args.state_dir)
            tag = f"{run.wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}"
            run.check_counts(state / f"counts-{tag}-{source_hash()}.json")
            result["layers"] = run.layers()
            result["spans"] = str(state / f"spans-{tag}.json")
            run.tracer.dump(result["spans"], env=result["env"],
                            memory_spans=run.mem_tracer.spans)
    result["errors"] = run.errors
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
