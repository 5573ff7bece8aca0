"""hjblab benchmark: three workloads, end-to-end metrics, layer attribution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hjblab is imported from its ``src``.
Workloads are described in worker.py. Every timed run is a fresh process
started by this program, so set-up (interpreter, ``import hjblab``,
problem build) is paid and measured on every run, as a user of the CLI pays
it. Runs repeat with the same seed until --seconds have passed, with at
least two runs; set-up is sampled before each timed run and at least seven
times in all. BLAS is pinned to one thread on every run.

End-to-end metrics (untraced runs): ``wall_s`` (median wall time of the
workload's timed call), ``setup_s`` (median time from process start to the
timed call), ``peak_rss_mb`` (median peak resident memory of a run's
process). ``failed_share`` (runs whose check failed or that raised, over
runs attempted) is printed with its counts; the last line's ``failed`` and
``attempted`` carry it.

With --trace 1 one more run is made with the outside-in tracer of
tracer.py, and the per-layer metrics of that run are reported instead; the
end-to-end lines are still printed. Spans are written to
``.perfbench_work/<workload>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("runall_rd", "oracle_lq", "oneshot_sdde")
LOC_MODULES = ("cli", "controls", "diagnostics", "engine", "hilbert", "models",
               "parallel", "report", "seeds", "synthesis", "value")

MIN_RUNS = 2          # runall_rd compares the manifests of two runs
MIN_SETUPS = 7
DEADLINE_S = 170.0    # the whole invocation, traced run included
BLAS_THREADS = "1"
BLAS_ENV = {var: BLAS_THREADS for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def child_env(work):
    env = dict(os.environ, **BLAS_ENV)
    env["TMPDIR"] = str(work)
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    """Fresh worker processes for one workload and seed."""

    def __init__(self, workload, seed, seconds, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.seconds = seconds
        self.env = child_env(work)
        self.start = time.perf_counter()
        self.count = 0

    def elapsed(self):
        return time.perf_counter() - self.start

    def spawn(self, mode):
        """Run one worker; returns (result dict or None, error text, seconds
        from start to exit)."""
        self.count += 1
        result_path = self.work / f"run{self.count}.json"
        timeout = max(5.0, DEADLINE_S - self.elapsed())
        cmd = [sys.executable, str(WORKER), self.workload, str(self.seed),
               mode, str(result_path)]
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.work, env=self.env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return (None, f"worker timed out after {timeout:.0f} s",
                    time.perf_counter() - t_spawn)
        took = time.perf_counter() - t_spawn
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, f"worker exited {proc.returncode}: {' | '.join(tail)}", took
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - t_spawn
        return result, "", took


def loc_counts():
    pkg = ROOT / "src" / "hjblab"
    counts = {}
    for mod in LOC_MODULES:
        path = pkg / f"{mod}.py"
        counts[f"loc.{mod}"] = (path.read_bytes().count(b"\n")
                                if path.is_file() else 0)
    counts["loc.total"] = sum(p.read_bytes().count(b"\n")
                              for p in pkg.rglob("*.py"))
    return counts


def measure(runner, trace):
    """The run loop. Returns the untraced runs, set-up samples, traced run
    and the failures of every attempted run."""
    warm, err, _ = runner.spawn("setup")   # fills the page cache and .pyc
    if warm is None:
        raise RuntimeError(f"set-up failed: {err}")
    runs, failures, took, setups = [], [], [], []

    def sample_setup():
        result, err, _ = runner.spawn("setup")
        if result is None:
            raise RuntimeError(f"set-up failed: {err}")
        setups.append(result["setup_s"])

    # A set-up sample before each timed run spreads them over the run, so
    # that a slow spell of the host weighs on both medians alike.
    while len(took) < MIN_RUNS or (
            runs and runner.elapsed() + statistics.median(took) <= runner.seconds):
        sample_setup()
        result, err, seconds = runner.spawn("time")
        took.append(seconds)
        if result is None:
            failures.append(err)
        else:
            runs.append(result)
            setups.append(result["setup_s"])
    while len(setups) < MIN_SETUPS:
        sample_setup()
    traced = None
    if trace:
        traced, err, _ = runner.spawn("trace")
        if traced is None:
            failures.append(err)
    return warm["env"], runs, setups, traced, failures


def add_replay_problems(workload, every):
    """runall_rd: every run of one seed, traced or not, writes the same
    manifest.json; a run that does not has failed."""
    if workload != "runall_rd":
        return
    manifests = [r["facts"]["manifest_sha256"] for r in every]
    for i, problem in checks.check_replay(manifests).items():
        every[i]["problems"].append(problem)


def layer_metrics(traced, untraced_wall):
    layers = {k: tuple(v) for k, v in traced["layers"].items()}
    attributed = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
    layers["trace.wall_s"] = (traced["wall_s"], "s")
    layers["trace.unattributed_s"] = (traced["wall_s"] - attributed, "s")
    layers["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
    facts = traced["facts"]
    layers["cli.bytes_written"] = (facts.get("bytes_written", 0), "bytes")
    layers["cli.files_changed_vs_reference"] = (facts.get("files_changed", 0),
                                                "count")
    for k, v in loc_counts().items():
        layers[k] = (v, "lines")
    return layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hjblab" / "__init__.py").is_file():
        print(f"error: no hjblab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    runner = Runner(args.workload, args.seed, args.seconds, work)
    try:
        env, runs, setups, traced, failures = measure(runner, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not runs:
        print("error: no run completed: " + "; ".join(failures), file=sys.stderr)
        return 1

    every = runs + ([traced] if traced else [])
    add_replay_problems(args.workload, every)
    problems = failures + [f"run {i}: {p}" for i, r in enumerate(every)
                           for p in r["problems"]]
    failed = len(failures) + sum(bool(r["problems"]) for r in every)
    attempted = len(failures) + len(every)

    walls = [r["wall_s"] for r in runs]
    rss = [r["peak_rss_kb"] / 1024.0 for r in runs]
    end_to_end = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"env cores={len(os.sched_getaffinity(0))} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"blas_threads={BLAS_THREADS}")
    print("loc " + " ".join(f"{k[4:]}={v}" for k, v in loc_counts().items()))
    print(f"{'wall_s':<34} {end_to_end['wall_s'][0]:12.4f} s      "
          f"median of {len(walls)} runs, min {min(walls):.4f} max {max(walls):.4f}")
    print(f"{'setup_s':<34} {end_to_end['setup_s'][0]:12.4f} s      "
          f"median of {len(setups)} set-ups")
    print(f"{'peak_rss_mb':<34} {end_to_end['peak_rss_mb'][0]:12.1f} MB     "
          f"median of {len(rss)} runs")
    print(f"{'failed_share':<34} {failed / attempted:12.4f} ratio  "
          f"{failed} failed of {attempted} attempted")
    for p in problems:
        print(f"FAILED {p}")

    metrics = end_to_end
    if args.trace:
        if traced is None:
            print("error: the traced run failed", file=sys.stderr)
            return 1
        metrics = layer_metrics(traced, end_to_end["wall_s"][0])
        if traced["absent"]:
            print("absent hooks: " + ", ".join(traced["absent"]))
        for name, (value, unit) in metrics.items():
            print(f"{name:<34} {value:12.6g} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
