"""agcoh benchmark runner.

    python3 perfbench/run.py --workload {euler,ih_taut,cli,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The runner generates the workload's inputs
from the seed (under .perfbench_work/), then starts one fresh worker process
at a time (a closed loop with one job list in flight): set-up probes and
sweeps of the fixed job list until the time budget is spent.  Outputs are
checked after each sweep, outside the timed region.  With --trace 1 half of
the budget goes to traced sweeps, which give the per-layer numbers.  It
prints every metric with its unit, then one JSON line: {"correct",
"attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import child_env  # noqa: E402
from speed import LOOP, SPAWN  # noqa: E402
from tracer import TARGETS  # noqa: E402

WORKLOADS = ("euler", "ih_taut", "cli")
DEFAULT_SEED = 0
PROBES_PER_SWEEP = 4
HARD_LIMIT_S = 170  # a run, workers included, must end within 180 s
WORK_DIR = Path(".perfbench_work")
NPROC = len(os.sched_getaffinity(0))
DIGESTS = HERE / "digests.json"

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_ms_p50": "ms",
              "job_ms_tail": "ms", "peak_rss_mb": "MB"}


def _layer_units() -> dict[str, str]:
    units = {}
    for _, _, prefix, _ in TARGETS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_ms"] = "ms"
    for name in ("torsion.classes", "arthur.parameters", "arthur.shapes", "spin.variants"):
        units[name] = "count"
    units.update({"cli.import_ms": "ms", "cli.startup_ms": "ms", "cli.stdout_bytes": "B",
                  "trace.overhead_ratio": "ratio"})
    return units


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def tail_percentile(n: int) -> int:
    """The highest of p99/p90 with at least ten jobs of a sweep beyond it."""
    return 99 if n - -(-99 * n // 100) >= 10 else 90


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        import inputs

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = time.monotonic()
        self.work = WORK_DIR / f"{workload}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.spec = inputs.make(workload, seed, self.work)
        self.spec_path = self.work / "spec.json"
        self.spec_path.write_text(json.dumps(self.spec), encoding="utf-8")
        self.results: list[tuple[str, dict]] = []

    def spawn(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.spec_path), mode]
        if mode == "traced":
            cmd.append(str(self.work / f"spans-{len(self.results)}.tsv"))
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if mode == "probe":
            before_ref = SPAWN.time_ns()
        spawned = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=max(remaining, 1))
        if proc.returncode != 0:
            raise RuntimeError(f"worker ({mode}) exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if mode == "probe":
            # set-up is scaled by the process-start reference timed just
            # before and just after the probe
            result["raw_setup_s"] = result["ready"] - spawned
            setup_ref = (before_ref + SPAWN.time_ns()) / 2
            result["setup_s"] = SPAWN.scale(result["raw_setup_s"], setup_ref)
            result["import_ms"] = SPAWN.scale(result["import_ms"], setup_ref)
        self.results.append((mode, result))
        return result

    def repeat(self, mode: str, until: float) -> list[dict]:
        """Sweeps of `mode` while the next one, sized by the last, fits
        before `until` seconds into the run; always at least one.  Set-up
        probes run before each untraced sweep, so that they sample the
        machine across the whole run rather than at its start."""
        done: list[dict] = []
        last = 0.0
        while not done or (time.monotonic() - self.started) + last <= until:
            began = time.monotonic()
            if mode == "sweep":
                for _ in range(PROBES_PER_SWEEP):
                    self.spawn("probe")
            done.append(self.spawn(mode))
            last = time.monotonic() - began
        return done

    def measure(self, trace: bool) -> None:
        if not trace:
            self.sweeps = self.repeat("sweep", self.seconds)
            return
        self.sweeps = self.repeat("sweep", self.seconds / 2)
        if self.workload == "cli":
            self.replays = [self.spawn("replay")]
        self.traced = self.repeat("traced", self.seconds)

    # -- correctness -------------------------------------------------------------
    def audit(self) -> tuple[int, int, list[str]]:
        """(attempted, failed, unexpected failures).  A job execution fails
        when it raised, failed its output check, differs from the same job
        in another sweep of this run, or (default seed) from the digest
        recorded at the seed commit.  Known defects count as failures but
        are not unexpected."""
        jobs = self.spec["jobs"]
        recorded = None
        if self.seed == DEFAULT_SEED and DIGESTS.exists():
            recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(self.workload, {})
        compared = {"sweep"} if self.workload == "cli" else {"sweep", "traced"}
        first: dict[str, str] = {}
        attempted = failed = 0
        unexpected: list[str] = []
        for mode, result in self.results:
            if mode == "probe":
                continue
            for i, job in enumerate(jobs):
                attempted += 1
                problems = list(result["problems"].get(str(i), []))
                digest = result["digests"].get(job["id"])
                if mode in compared and digest is not None and not job.get("known_defect"):
                    base = job["id"].split(" #")[0]
                    if first.setdefault(base, digest) != digest:
                        problems.append("output differs from an earlier run of the same job")
                    if recorded is not None and recorded.get(base) != digest:
                        problems.append("output digest differs from the seed commit")
                if problems:
                    failed += 1
                    if not job.get("known_defect"):
                        unexpected.append(f"{mode} {job['id']}: {'; '.join(problems)}")
        return attempted, failed, unexpected

    # -- metrics -----------------------------------------------------------------
    def end_to_end(self, raw: bool = False) -> dict[str, float]:
        """The end-to-end metrics from the scaled times, or with `raw` from
        the measured ones (peak_rss_mb is the same either way)."""
        pre = "raw_" if raw else ""
        n = len(self.spec["jobs"])
        q = tail_percentile(n)
        # latencies of every job of every untraced sweep: more samples than
        # one sweep, and the percentile is still fixed by the sweep's size
        pooled = [ms for r in self.sweeps for ms in r[pre + "job_ms"]]
        self.tail = (q, len(pooled) - -(-q * len(pooled) // 100), len(pooled))
        return {
            "setup_s": statistics.median(r[pre + "setup_s"] for mode, r in self.results
                                         if mode == "probe"),
            # one sweep with every job at its median over the run's sweeps
            "wall_s": sum(statistics.median(ms) for ms in
                          zip(*(r[pre + "job_ms"] for r in self.sweeps))) / 1e3,
            "job_ms_p50": statistics.median(pooled),
            "job_ms_tail": percentile(pooled, q),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in self.sweeps),
        }

    def per_layer(self) -> dict[str, float]:
        units = _layer_units()
        out = {name: statistics.median(r["layers"].get(name, 0) for r in self.traced)
               for name in units}
        out["cli.import_ms"] = statistics.median(r["import_ms"] for mode, r in self.results
                                                 if mode == "probe")
        plain = self.replays if self.workload == "cli" else self.sweeps
        out["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in self.traced) / \
            statistics.median(r["wall_s"] for r in plain)
        if self.workload == "cli":
            out["cli.startup_ms"] = \
                statistics.median(ms for r in self.sweeps for ms in r["job_ms"]) - \
                statistics.median(ms for r in self.replays for ms in r["job_ms"])
            out["cli.stdout_bytes"] = statistics.median(r["stdout_bytes"] for r in self.sweeps)
        else:
            out["cli.startup_ms"] = out["cli.stdout_bytes"] = 0
        return out


def provenance(run: Run, trace: bool) -> dict:
    head = Path(".git/HEAD")
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = Path(".git") / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.exists() else None
        else:
            commit = ref
    src = hashlib.sha256()
    for path in sorted(Path("src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "workload": run.workload, "seed": run.seed, "trace": int(trace),
        "jobs_per_sweep": len(run.spec["jobs"]),
        "sweeps": len(run.sweeps),
        "traced_sweeps": len(run.traced) if trace else 0,
        "processes": len(run.results),
        "tail_percentile": {"p": run.tail[0], "jobs_beyond": run.tail[1],
                            "jobs_timed": run.tail[2]},
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": {"inherited": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                                    "program": child_env()["PYTHONDONTWRITEBYTECODE"]},
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "reference_s": {ref.name: ref.seconds for ref in (LOOP, SPAWN)},
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "trace_missing": sorted({m for mode, r in run.results for m in r.get("trace_missing", [])}),
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    run.measure(trace)
    attempted, failed, unexpected = run.audit()
    e2e = run.end_to_end()
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    units = _layer_units()
    layers = {}
    if trace:
        layers = {k: {"value": v, "unit": units[k]} for k, v in run.per_layer().items()}
    prov = provenance(run, trace)
    raw = run.end_to_end(raw=True)
    record = {"provenance": prov, "end_to_end": metrics, "measured_end_to_end": raw,
              "per_layer": layers,
              "samples": {"setup_s": [r["setup_s"] for m, r in run.results if m == "probe"],
                          "raw_setup_s": [r["raw_setup_s"] for m, r in run.results
                                          if m == "probe"],
                          "sweep_wall_s": [r["wall_s"] for r in run.sweeps],
                          "raw_sweep_wall_s": [r["raw_wall_s"] for r in run.sweeps],
                          "job_ms": [r["job_ms"] for r in run.sweeps],
                          "raw_job_ms": [r["raw_job_ms"] for r in run.sweeps],
                          "reference_ms": [r["ref_ms"] for r in run.sweeps],
                          "run_s": time.monotonic() - run.started},
              "attempted": attempted, "failed": failed, "unexpected_failures": unexpected}
    (run.work / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    q, beyond, n = run.tail
    print(f"== {workload} seed={seed} trace={int(trace)}: {len(run.sweeps)} sweeps of "
          f"{len(run.spec['jobs'])} jobs, {len(run.results)} fresh processes")
    print(f"   (times scaled to {LOOP.seconds * 1e3:g} ms per reference loop and "
          f"{SPAWN.seconds * 1e3:g} ms per bare interpreter start; measured times in brackets)")
    print(f"   setup_s      {e2e['setup_s']:.4f} s   [{raw['setup_s']:.4f}]")
    print(f"   wall_s       {e2e['wall_s']:.4f} s   [{raw['wall_s']:.4f}]")
    print(f"   job_ms_p50   {e2e['job_ms_p50']:.4f} ms  [{raw['job_ms_p50']:.4f}]")
    print(f"   job_ms_tail  {e2e['job_ms_tail']:.4f} ms  [{raw['job_ms_tail']:.4f}]  "
          f"(p{q}; {beyond} of {n} timed jobs beyond)")
    print(f"   peak_rss_mb  {e2e['peak_rss_mb']:.2f} MB")
    print(f"   fail_ratio   {failed / attempted:.4f} ratio  ({failed}/{attempted})")
    for name, m in layers.items():
        print(f"   {name:<40} {m['value']:.4f} {m['unit']}")
    for line in unexpected[:20]:
        print(f"   FAILED {line}")
    print("provenance " + json.dumps(prov))
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": layers if trace else metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/agcoh/__init__.py", "demos/data/masses/g1.tsv"):
        if not Path(needed).is_file():
            print(f"perfbench: {needed} not found; run from the root of an agcoh "
                  "checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.abspath("src"))
    # One CPU for the runner, the workers and their children, so that the
    # reference loop and the work it scales run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_one(workload, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
