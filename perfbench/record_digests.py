"""Record the per-job output digests of the default seed in
perfbench/digests.json.  Run it from the checkout root, only at a commit
whose outputs are the reference (the seed commit of the benchmark):

    python3 perfbench/record_digests.py
"""
import json
import sys

from run import DEFAULT_SEED, DIGESTS, WORKLOADS, Run


def main() -> int:
    sys.path.insert(0, "src")
    recorded = {}
    for workload in WORKLOADS:
        run = Run(workload, DEFAULT_SEED, 0)
        result = run.spawn("sweep")
        digests = {}
        for i, job in enumerate(run.spec["jobs"]):
            if job.get("known_defect") or " #" in job["id"]:
                continue
            if str(i) in result["problems"]:
                print(f"{workload} {job['id']}: {result['problems'][str(i)]}", file=sys.stderr)
                return 1
            digests[job["id"]] = result["digests"][job["id"]]
        recorded[workload] = digests
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
