"""Record reference.json: the estimates and variances of each workload's
first op on the default seed, which later runs of that seed must match
within ``workloads.REFERENCE_RTOL``.

Run from the root of a source checkout, only when the numbers are meant
to change:

    python3 perfbench/record_reference.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads
    from worker import DEFAULT_SEED, REFERENCE

    reference = {}
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(DEFAULT_SEED, False, Path(tmp))
            inp = wl.prepare(0)
            outcome = wl.check(inp, wl.run(inp))
            if not outcome.ok:
                print(f"{name}: op failed: {outcome.errors}", file=sys.stderr)
                return 1
            reference[name] = outcome.values
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
