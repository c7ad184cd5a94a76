"""Regenerate bench/frozen.json: per-script digests and work-size blocks.

    python3 bench/freeze.py

Runs one pass of every workload for each seed in SEEDS in this process,
checks every output with the oracles, and stores the digests of the
outcomes and the work-size block.  A run of bench/run.py on a stored seed compares
against them.  Refreeze only when a change is meant to alter transcripts.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import import_program, run_pass  # noqa: E402

SEEDS = range(20)


def main():
    cli = import_program()
    frozen = {}
    for workload in workloads.WORKLOADS:
        frozen[workload] = {}
        for seed in SEEDS:
            scripts = workloads.generate(workload, seed)
            _, _, outcomes = run_pass(cli, [(s.text, s.json) for s in scripts],
                                      time.perf_counter)
            outcomes = [{"output": o, "error": e, "pos": p} for o, e, p in outcomes]
            work = oracles.new_work()
            for i, (script, outcome) in enumerate(zip(scripts, outcomes)):
                if not oracles.check_script(script, outcome, seed, work):
                    raise SystemExit(f"{workload} seed {seed} script {i} fails its oracle")
            frozen[workload][str(seed)] = {
                "digests": " ".join(oracles.digest(o) for o in outcomes), "work": work}
            print(workload, seed, work, flush=True)
    with open(os.path.join(HERE, "frozen.json"), "w", encoding="utf-8") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
