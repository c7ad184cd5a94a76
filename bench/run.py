"""The jetschemes benchmark.

    python3 bench/run.py --seed 1                      all three workloads
    python3 bench/run.py --workload series --seed 1 --seconds 38 --trace 0

For each workload, generates the scripts from the seed, runs them in a fresh child
process through jetschemes.cli.run_script (a closed loop: one caller, one
thread, the next script only after the previous one returns), checks every
output outside the timed region, and prints every metric with its unit.
Each workload's report ends with one JSON line with the keys `correct`,
`attempted`, `failed` and `metrics`; with one workload it is the last
line of stdout.

--trace 0 reports the end-to-end metrics, measured with no wrappers
installed.  --trace 1 alternates bare passes with passes traced by the
spans of spans.py, and reports the per-layer metrics and the tracing
overhead.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 10   # before the timed loop, and again after it
MIN_PASSES = 3
CHILD_GRACE_S = 120


def _worker(args, stdin=None, timeout=60):
    # Children cache bytecode, as an installed package does, whatever the
    # caller's environment says; the cache lands in the checkout's __pycache__.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          input=stdin, capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return proc.stdout


def setup_samples(count):
    """Set-up times of `count` fresh interpreters."""
    return [float(_worker(["--setup"])) for _ in range(count)]


def load_frozen(workload, seed):
    path = os.path.join(HERE, "frozen.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def check(scripts, result, seed, frozen):
    """Wrong script indices (first pass), and the work-size block."""
    work = oracles.new_work()
    wrong = set()
    for i, (script, outcome) in enumerate(zip(scripts, result["first"])):
        if not oracles.check_script(script, outcome, seed, work):
            wrong.add(i)
    if frozen is not None:
        want = frozen["digests"].split()
        wrong.update(i for i, outcome in enumerate(result["first"])
                     if i >= len(want) or oracles.digest(outcome) != want[i])
    return wrong, work


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "jetschemes", "cli.py")):
        print(f"error: no jetschemes sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for workload in workloads.WORKLOADS if args.workload == "all" else (args.workload,):
        run(workload, args.seed, args.seconds, args.trace)
    return 0


def run(workload, seed, seconds, trace):
    """Measure and check one workload; print its report and its result line."""
    scripts = workloads.generate(workload, seed)
    frozen = load_frozen(workload, seed)
    if not trace:
        setup_samples(1)   # warms the bytecode cache; not counted
        setup = setup_samples(SETUP_SAMPLES)
    job = {"scripts": [[s.text, s.json] for s in scripts], "seconds": seconds,
           "trace": trace, "min_passes": MIN_PASSES}
    result = json.loads(_worker([], stdin=json.dumps(job), timeout=seconds + CHILD_GRACE_S))
    if not trace:
        # the best of both ends of the run, for the reason given in best_times
        setup_s = min(setup + setup_samples(SETUP_SAMPLES))

    wrong, work = check(scripts, result, seed, frozen)
    passes = result["passes"]
    attempted = len(scripts) * len(passes)
    failed = len(wrong) + sum(len(wrong.union(d)) for d in result["differs"])
    comparable = frozen is None or frozen["work"] == work

    bare = [p for p in passes if p["phase"] == "bare"]
    report = [("scripts_per_pass", len(scripts), "count"), ("passes", len(passes), "count"),
              ("cpu_moves", result["cpu_moves"], "count"),
              ("failed_frac", failed / attempted, "ratio"),
              ("pass_wall_median_s", statistics.median(p["pass_s"] for p in bare), "s")]
    if not trace:
        best_ms = [t * 1000 for t in best_times(bare)]
        metrics = {
            "pass_s": (sum(best_ms) / 1000, "s"),
            "script_p50_ms": (statistics.median(best_ms), "ms"),
            "script_p90_ms": (statistics.quantiles(best_ms, n=10, method="inclusive")[8], "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
        }
        report.append(("script_samples", len(best_ms), "count"))
    else:
        traced = [p for p in passes if p["phase"] == "traced"]
        metrics = per_layer(bare, traced)
        if any(p["spans"][k] != traced[0]["spans"][k] for p in traced for k in spans.COUNTS):
            comparable = False
        report.append(("monomial.minimal_ratio.base", traced[0]["spans"]["monomial.supports_in"],
                       "count"))
    for name, (value, unit) in metrics.items():
        report.append((name, value, unit))
    for name, value in work.items():
        report.append((f"work.{name}", value, "count"))
    report.append(("work.comparable", int(comparable), "bool"))
    report.append(("work.frozen", int(frozen is not None), "bool"))
    print(f"workload {workload} seed {seed} trace {trace}")
    for name, value, unit in report:
        print(f"  {name:44s} {value:>16.6g} {unit}" if isinstance(value, float)
              else f"  {name:44s} {value:>16} {unit}")
    if wrong:
        print("  wrong scripts: " + " ".join(str(i) for i in sorted(wrong)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def best_times(passes):
    """Each script's best latency over the passes of a run.

    The machine is shared: interference from other processes only adds
    time, and it drifts over tens of seconds, so the median of a run moves
    with the load while the best of several repeats does not."""
    return [min(times) for times in zip(*(p["times"] for p in passes))]


def per_layer(bare, traced):
    """Best over traced passes of each span time; counts from one pass."""
    first = traced[0]["spans"]
    metrics = {}
    for _, _, key in spans.TARGETS:
        metrics[f"{key}.calls"] = (first[f"{key}.calls"], "count")
        for part in ("total_s", "self_s"):
            metrics[f"{key}.{part}"] = (min(p["spans"][f"{key}.{part}"] for p in traced), "s")
    for key in spans.COUNTS:
        unit = "bytes" if key.endswith("_bytes") else "count"
        metrics[key] = (first[key], unit)
    ratio = first["monomial.generators_out"] / first["monomial.supports_in"] \
        if first["monomial.supports_in"] else 0.0
    metrics["monomial.minimal_ratio"] = (ratio, "ratio")
    bare_s = sum(best_times(bare))
    traced_s = sum(best_times(traced))
    metrics["trace.untraced_pass_s"] = (bare_s, "s")
    metrics["trace.traced_pass_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / bare_s, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
