"""semilab benchmark: CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each run writes the inputs into bench/work/inputs, then spawns one worker
that runs the workload's op list through ``semilab.cli.main`` for about S
seconds (see worker.py).  ``wall_ref`` and ``cpu_ref`` are the wall and CPU
time of one pass over the op list, averaged over the run and divided by the
summed mean wall or CPU time of three fixed reference kernels, one of which
runs after each op: the shared host's speed drifts by tens of percent over a
minute, and the ratio cancels most of that.  The raw seconds are printed and
kept in the results file.  Workers that only start up, half of them before
the measured worker and half after it, give ``setup_s``: the median of their
spawn-to-ready times.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the worker runs each op twice, once with spans around the
calls between layers (see spans.py), and the last line holds the per-layer
metrics.  Every answer is checked against known values, and the run fails
(exit 1, ``"correct": false``) if any op raised or gave a wrong answer.  The
full record, with input digests and machine details, goes to
bench/work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
SETUP_SAMPLES = 16
WORKER_TIMEOUT_S = 150

END_TO_END = [("wall_ref", "ref"), ("cpu_ref", "ref"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB")]

# per-layer metric -> unit; "<layer>.<function>.<field>" reads the traced
# summary of that function (see spans.PROBES)
PER_LAYER = [
    ("rewriting.derive_equal.self_s", "s"),
    ("rewriting.derive_equal.calls", "count"),
    ("rewriting.derive_equal.visited", "count"),
    ("rewriting.derive_equal.equal_ratio", "ratio"),
    ("rewriting.reduce.self_s", "s"),
    ("rewriting.reduce.calls", "count"),
    ("rewriting.reduce_with_trace.self_s", "s"),
    ("rewriting.reduce_with_trace.steps", "count"),
    ("rewriting.enumerate_elements.self_s", "s"),
    ("rewriting.enumerate_elements.words", "count"),
    ("rewriting.kb_complete.self_s", "s"),
    ("rewriting.kb_complete.calls", "count"),
    ("rewriting.kb_complete.rules", "count"),
    ("embedding.probe_embedding.self_s", "s"),
    ("embedding.probe_embedding.elements", "count"),
    ("embedding.probe_embedding.witnesses", "count"),
    ("embedding.check_malcev_condition.self_s", "s"),
    ("embedding.check_malcev_condition.systems_checked", "count"),
    ("embedding.check_malcev_condition.violations", "count"),
    ("finite.associativity_failure.self_s", "s"),
    ("finite.associativity_failure.calls", "count"),
    ("finite.check_laws.self_s", "s"),
    ("finite.enumerate_semigroups.self_s", "s"),
    ("finite.enumerate_semigroups.tables", "count"),
    ("rank1.rank1_universe.self_s", "s"),
    ("rank1.gab_group.self_s", "s"),
    ("rank1.gab_group.calls", "count"),
    ("rank1.multiply.calls", "count"),
    ("presentations.parse_presentation_file.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
]


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(job: dict):
    """Run one worker; returns (spawn-to-ready seconds, its summary)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(job)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker timed out") from None
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return setup_s, (json.loads(out.splitlines()[-1]) if out else None)


def layer_values(record: dict) -> dict:
    """Per-layer metrics of one traced pass, overhead excluded."""
    summary = record["trace"]
    out = {}
    for name, _ in PER_LAYER:
        prefix, _, key = name.rpartition(".")
        if key == "equal_ratio":
            s = summary.get(prefix, {})
            out[name] = s["equal"] / s["calls"] if s.get("calls") else 0.0
        elif prefix in summary:
            out[name] = summary[prefix].get(key, 0)
        else:
            out[name] = 0
    out["cli.report_bytes"] = record["report_bytes"]
    out["trace.unattributed_s"] = record["traced_wall_s"] - sum(
        s["self_s"] for s in summary.values())
    return out


def git_revision():
    """HEAD of the checkout; None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _per_pass(passes: list, key: str) -> float:
    """One pass over the op list: the mean over ``passes``.  The host's
    speed switches every few seconds, and a mean over the run is steadier
    than a median of passes."""
    return statistics.fmean(p[key] for p in passes)


def _in_ref(passes: list, key: str) -> float:
    """``key`` ("wall_s" or "cpu_s") per pass in reference units: the sum
    over the reference kernels of their mean wall or CPU time."""
    column = 1 if key == "wall_s" else 2
    samples = {}
    for p in passes:
        for sample in p["reference"]:
            samples.setdefault(sample[0], []).append(sample[column])
    ref = sum(statistics.fmean(v) for v in samples.values())
    return _per_pass(passes, key) / ref


def measure(workload: str, seed: int, seconds: int, trace: bool,
            digests: dict) -> dict:
    from workloads import CAPS_MIB

    job = {"workload": workload, "seed": seed, "seconds": seconds,
           "trace": False, "setup_only": False,
           "cap_mib": CAPS_MIB.get(workload),
           "src": str(ROOT / "src"),
           "input_dir": str((WORK / "inputs").relative_to(ROOT))}
    setups = []
    if trace:
        _, run = spawn(dict(job, trace=True))
        per_pass = [layer_values(p) for p in run["passes"]]
        metrics = {name: (statistics.median_low(v[name] for v in per_pass),
                          unit)
                   for name, unit in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            _per_pass(run["passes"], "traced_wall_s")
            - _per_pass(run["passes"], "wall_s"), "s")
        metrics = {name: metrics[name] for name, _ in PER_LAYER}
    else:
        def setup_times(n):
            return [spawn(dict(job, setup_only=True))[0] for _ in range(n)]
        setups = setup_times(SETUP_SAMPLES // 2)
        _, run = spawn(job)
        setups += setup_times(SETUP_SAMPLES - len(setups))
        metrics = {
            "wall_ref": (_in_ref(run["passes"], "wall_s"), "ref"),
            "cpu_ref": (_in_ref(run["passes"], "cpu_s"), "ref"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "metrics": metrics, "setup_samples": setups,
        "run": run,
        "meta": {"python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "machine": platform.machine(), "nproc": os.cpu_count(),
                 "cap_mib": job["cap_mib"], "git_revision": git_revision(),
                 "inputs_sha256": digests},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semilab" / "cli.py").is_file():
        print(f"error: no semilab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, write_inputs

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names) or args.seconds < 1:
        parser.error(f"--workload is one of {', '.join(WORKLOADS)} or all; "
                     "--seconds is at least 1")
    digests = write_inputs(WORK / "inputs")
    records = []
    try:
        for name in names:
            records.append(measure(name, args.seed, args.seconds,
                                   bool(args.trace), digests))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    attempted = failed = 0
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for name, (value, unit) in rec["metrics"].items():
            print(f"{rec['workload']:14} {name:50} {value!r:>24} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
        run = rec["run"]
        print(f"{rec['workload']:14} (raw seconds per pass: wall "
              f"{_per_pass(run['passes'], 'wall_s'):.4f}, cpu "
              f"{_per_pass(run['passes'], 'cpu_s'):.4f})")
        attempted += run["attempted"]
        failed += run["failed"]
        for p in run["problems"]:
            print(f"FAILED {rec['workload']}: {p}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
