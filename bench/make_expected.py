"""Regenerate bench/expected.json, the output check of every workload.

    python3 bench/make_expected.py

For each master seed of the pool it stores each workload's summary row (and,
for suite-clean-artifacts, the SHA-256 of summary.txt and metrics.jsonl).
The replay rows come from the synthetic run the fixtures are recorded from;
the remote-cold rows from a fake transport without its sleep.  Regenerate
only when a change is meant to alter outputs, and review the diff.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run_bench import ROOT, load_package


def main() -> int:
    votetree = load_package()
    from workloads import EXPECTED_PATH, POOL_SIZE, WORKLOADS, RemoteCold

    bundle = votetree.load_dataset()
    doc = {"pool_size": POOL_SIZE, "workloads": {}}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="expected-", dir=ROOT / ".bench_work"))
    try:
        for name, cls in WORKLOADS.items():
            kwargs = {"latency_s": 0.0} if cls is RemoteCold else {}
            workload = cls(bundle, work_dir, None, **kwargs)
            doc["workloads"][name] = {str(s): workload.reference(s) for s in range(POOL_SIZE)}
            print(f"{name}: {POOL_SIZE} seeds", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
