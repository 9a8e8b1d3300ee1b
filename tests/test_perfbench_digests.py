"""Every seed-0 output digest in perfbench/digests.json, replayed in process.

Each workload's seed-0 jobs run as the benchmark worker runs them, and each
output is hashed as perfbench/worker.py hashes it, so a change to any
recorded output (an elliptic term, a Betti table, a CLI byte) fails here.
"""
import hashlib
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("workload", ["euler", "ih_taut", "cli"])
def test_seed_zero_digests_match(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("AGCOH_DATA_DIR", "AGCOH_CACHE_DIR"):     # as inputs.child_env
        monkeypatch.delenv(name, raising=False)
    import inputs
    import jobs

    # Recorded CLI outputs name mass files by their path from the checkout
    # root, so the inputs keep those relative paths under a scratch working
    # directory, away from the checkout's .perfbench_work, which run.py clears.
    demo = tmp_path / inputs.G1_MASSES
    demo.parent.mkdir(parents=True)
    shutil.copyfile(ROOT / inputs.G1_MASSES, demo)
    monkeypatch.chdir(tmp_path)
    spec = inputs.make(workload, 0, Path(".perfbench_work") / f"{workload}-0")

    runner = jobs.WORKLOADS[workload]
    run = runner.run_in_process if workload == "cli" else runner.run
    state = runner.setup(spec)
    digests = {}
    for job in spec["jobs"]:
        if job.get("known_defect") or " #" in job["id"]:    # as record_digests.py
            continue
        out = run(state, job)
        digests[job["id"]] = hashlib.sha256(runner.digest(job, out).encode()).hexdigest()[:16]
    recorded = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
    assert digests == recorded[workload]
