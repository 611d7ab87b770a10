#!/usr/bin/env python3
"""vuln2rule benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload demo-tagged --seed 1 --seconds 10 --trace 0

Each run builds its artifacts from the sources in ``src/`` (every trainer,
each followed by its save), loads them with ``load_models`` and then serves
the workload's records for ``--seconds``: one batch pass (``run_pipeline``
with ``out_path``, as ``pipeline --out`` does) and one single pass (one
``generate`` per record, as ``genrule`` does, one caller in a closed loop)
per round.  Human-readable lines and a detail object come first; the last
line of standard output is the result object.  ``--trace 1`` runs the same
work with the outside-in tracer and reports the per-layer metrics instead.

Exit codes: 0 all gates passed; 1 a gate failed or an operation raised;
2 the sources under ``src/`` are missing or unusable; 3 the trace broke.
"""

from __future__ import annotations

import os

# one compute thread: set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def import_program():
    package = SRC / "vuln2rule"
    if not (package / "__init__.py").is_file():
        print(f"error: vuln2rule sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vuln2rule

    if Path(vuln2rule.__file__).resolve().parent != package.resolve():
        print(f"error: imported vuln2rule from {vuln2rule.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long sizes for the benchmark's own tests")
    args = parser.parse_args(argv)

    import_program()
    import bench
    import layers
    from tracer import TraceError

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    workload = bench.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        result = bench.run(
            workload, args.seed, args.seconds, bool(args.trace), args.scale == "tiny", work_dir, OUT
        )
    except TraceError as exc:
        print(f"error: trace broken: {exc}", file=sys.stderr)
        return 3
    except Exception:  # an operation raised: report it as a failure of the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        units = {name: unit for name, unit, _ in layers.metric_specs()}
    else:
        units = bench.END_TO_END
    for name, unit in units.items():
        print(f"{workload.name} {name}: {result.metrics[name]:.6g} {unit}")
    print(json.dumps({"detail": result.detail}, sort_keys=True))
    values = {name: float(result.metrics[name]) for name in units}
    if not all(math.isfinite(v) for v in values.values()):
        print("error: a metric is not finite", file=sys.stderr)
        return 1
    ops = result.ops
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
