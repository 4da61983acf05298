"""Every benchmark job's output fingerprint, pinned.

The benchmark compares metric medians, so a schedule that changes a bus
or a label while keeping its clock count would pass it unseen.  Here
each job of the three workloads in perfbench/workloads.py, at seed 0
and at the held-out seed, must give the fingerprint recorded in
tests/golden/fingerprints.json (a hash of the schedule JSON, clocks,
op count, mean bus and `p_total`) and pass the workload's own output
checks.  To accept a deliberate change, rerun this file and commit its
new output:

    PYTHONPATH=src python tests/test_fingerprints.py > tests/golden/fingerprints.json
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "fingerprints.json"
SEEDS = (0, workloads.HELDOUT_SEED)


def fingerprints(name: str, seed: int) -> list:
    out = []
    for job in workloads.WORKLOADS[name](seed):
        done = workloads.execute(job)
        assert workloads.check(job, done) == [], job.name
        out.append(workloads.fingerprint(job, done))
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_job_keeps_its_fingerprint(name, seed):
    golden = json.loads(GOLDEN.read_text())[name][str(seed)]
    assert fingerprints(name, seed) == golden


if __name__ == "__main__":
    print(json.dumps({name: {str(seed): fingerprints(name, seed)
                             for seed in SEEDS}
                      for name in sorted(workloads.WORKLOADS)}, indent=1))
