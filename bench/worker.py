"""One workload round in its own process: run diffwave's CLI, report counts.

Usage (started by run.py, one process at a time):

    python3 bench/worker.py --result R.json [--probe] [--trace] \
        --cli '[["simulate", "--config", "c.ini", "--out", "o"], ...]'

``--cli`` is a JSON list of CLI argument lists, run in order.  The worker puts
the checkout's ``src/`` on the path, wraps the package from outside (see
layers.py), calls ``diffwave.cli.main`` for each invocation and writes the
exit codes, the time the first unit of work started, the step counts, the
peak resident memory and, with ``--trace``, the layer spans to ``R.json``.

The first unit of work is the first ``solver.step`` call, or the first
acceptance check for ``verify``.  With ``--probe`` the worker stops there, so
only the set-up is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--result", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cli", required=True, help="JSON list of CLI argument lists")
    args = ap.parse_args(argv)
    invocations = json.loads(args.cli)

    from diffwave import cli, solver, verify

    from layers import VERIFY_CHECKS, FirstWork, SetupDone, StepCounter, Tracer

    tracer = counter = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        counter = StepCounter()
        counter.install(solver)
    first = FirstWork(stop=args.probe)
    if invocations[0][0] == "verify":
        for name in VERIFY_CHECKS:
            first.wrap(verify, name)
    else:
        first.wrap(solver, "step")

    exit_codes = []
    try:
        for inv in invocations:
            exit_codes.append(cli.main(inv))
    except SetupDone:
        pass

    if tracer is not None:
        st = tracer.stats["solver.step"]
        steps, cell_steps = st["calls"], st["work"]
    else:
        steps, cell_steps = counter.steps, counter.cell_steps
    result = {
        "exit_codes": exit_codes,
        "t_first_work": first.t,
        "steps": steps,
        "cell_steps": cell_steps,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.stats
        result["counters"] = tracer.counters
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
