"""Child process of the benchmark: runs scripts through jetschemes.cli.run_script.

    python3 bench/worker.py --setup       print the set-up time of a fresh interpreter
    python3 bench/worker.py < job.json    run a job, print its result as JSON

Set-up mode imports nothing but `os`, `sys`, `time` and the benchmark's
own `placement` before its clock starts, so the import of jetschemes pays
for every module it needs, as a fresh `jetschemes` command would.  Both
modes first move to the least disturbed CPU, as `placement.py` describes.
A job is one closed loop: a single caller runs the next script only after
the previous one returns, pass after pass, until the time is up.  With "trace" set, bare passes alternate with passes that
run with the spans of `spans.py` installed.
"""

import os
import sys
import time

from placement import Placer

ROOT_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Defines one of each statement kind, so lazily compiled patterns and
# first-use caches are filled before any timed script.
WARMUP = """ring R = [x,y,z]; ideal I = 1/2*x*y*z-y^2; jets 1 I; ideal K = x*y*z;
ideal J = jetsradical 1 K; minimalprimes J; ring S = [x_(1,1)..x_(2,2)]; matrix M = generic(S,2,2);
minors 2 M; graph G = vertices a,b,c
a-b,b-c; graph H = graphjets 1 G; covers H; chordal H; complement H; chromatic H;"""


def import_program():
    sys.path.insert(0, ROOT_SRC)
    import jetschemes.cli
    if not jetschemes.cli.__file__.startswith(ROOT_SRC):
        raise ImportError(f"jetschemes was imported from {jetschemes.cli.__file__}, "
                          f"not from {ROOT_SRC}")
    return jetschemes.cli


def setup():
    Placer(time.perf_counter)
    t0 = time.perf_counter()
    cli = import_program()
    cli.run_script(WARMUP)
    cli.run_script(WARMUP, json_mode=True)
    print(repr(time.perf_counter() - t0))


def run_pass(cli, scripts, clock, placer=None):
    run_script = cli.run_script   # looked up per pass, so installed spans see it
    times = []
    outcomes = []
    start = clock()
    for text, json_mode in scripts:
        if placer is not None:
            placer.place()
        t0 = clock()
        try:
            out = run_script(text, json_mode=json_mode)
            outcome = (out, None, None)
        except Exception as e:  # every exception is recorded and checked
            outcome = (None, type(e).__name__, getattr(e, "pos", None))
        times.append(clock() - t0)
        outcomes.append(outcome)
    return clock() - start, times, outcomes


def run_job(job):
    import json
    import resource

    cli = import_program()
    cli.run_script(WARMUP)
    cli.run_script(WARMUP, json_mode=True)
    scripts = [tuple(s) for s in job["scripts"]]
    spans = None
    if job["trace"]:
        import spans as spans_module
        spans = spans_module.Spans()
    # bare and traced passes alternate, so both see the same machine load
    phases = ("bare", "traced") if spans is not None else ("bare",)
    result = {"passes": [], "first": None, "differs": []}
    clock = time.perf_counter
    placer = Placer(clock)
    begin = clock()
    rounds = 0
    last = 0.0
    while rounds < job["min_passes"] or clock() - begin + last <= job["seconds"]:
        start = clock()
        for phase in phases:
            if phase == "traced":
                spans.reset()
                spans.install()
            try:
                pass_s, times, outcomes = run_pass(cli, scripts, clock, placer)
            finally:
                if phase == "traced":
                    spans.uninstall()
            record = {"phase": phase, "pass_s": pass_s, "times": times}
            if phase == "traced":
                record["spans"] = spans.snapshot()
            result["passes"].append(record)
            if result["first"] is None:
                result["first"] = outcomes
            else:
                result["differs"].append(
                    [i for i, (a, b) in enumerate(zip(result["first"], outcomes)) if a != b])
        last = clock() - start
        rounds += 1
    result["first"] = [{"output": o, "error": e, "pos": p} for o, e, p in result["first"]]
    result["cpu_moves"] = placer.moves
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    if sys.argv[1:] == ["--setup"]:
        setup()
    else:
        import json
        run_job(json.load(sys.stdin))
