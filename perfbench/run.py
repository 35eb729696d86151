"""The sshaf benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is imported from ``src``.
With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation. With ``--trace 1`` it measures the workload untraced and
then traced for half the time each, and reports the per-layer metrics, the
tracing overhead and the primitive micro-costs; the spans are written to
``.perfbench_out/`` at the end. Every metric is printed on its own line; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sshaf" / "__init__.py").is_file():
        print(f"error: no sshaf package under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    from measure import OUT_DIR, Measurement, run_traced, run_untraced
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    wl = WORKLOADS[args.workload](args.seed, workdir / "workload")
    try:
        if args.trace:
            m, metrics = run_traced(wl, args.seconds, f"{args.workload}-{args.seed}")
        else:
            m, metrics = run_untraced(wl, args.seconds)
        print(f"# workload={args.workload} seed={args.seed} info={json.dumps(wl.info())}")
        correct = True
    except CheckFailed as exc:
        print(f"# check failed: {exc}")
        m, metrics, correct = Measurement(attempted=1), {}, False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
