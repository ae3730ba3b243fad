"""Regenerate the seed-0 reference outputs in ``bench/ref/``.

    python3 bench/make_refs.py

Runs every seed-0 operation of every workload once, from the sources in
``src/``, and stores what it wrote.  Run it only on a commit whose
outputs are trusted: the benchmark fails any later commit whose seed-0
outputs stray from these by more than ``run.RTOL``.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.REF.mkdir(exist_ok=True)
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        work = Path(tmp)
        for workload in run.WORKLOADS:
            for op in run.make_ops(workload, 0, work):
                if op.name == "lamb_diff":
                    continue            # diff-lamb reads the reference itself
                res = run.launch(op.argv, work, op.name, False)
                if res.error:
                    print(f"{op.name}: {res.error}", file=sys.stderr)
                    return 1
        for name in run.FAST_CONFIGS + ("lamb_shift",):
            if name == "calibrate":
                shutil.copy(work / "calibrate.json", run.REF)
                continue
            shutil.copy(work / f"{name}.csv", run.REF)
            if name != "lamb_shift":
                # keep what run.json_dev compares: not the resolved config,
                # whose output path names this run's scratch directory
                meta = json.loads((work / f"{name}.csv.meta.json").read_text())
                kept = {k: v for k, v in meta.items()
                        if k not in run.SIDECAR_SKIP}
                (run.REF / f"{name}.csv.meta.json").write_text(
                    json.dumps(kept, indent=2, sort_keys=True) + "\n")
        got = json.loads((work / "session_out.json").read_text())
        (run.REF / "session.json").write_text(
            json.dumps(got["results"], indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
