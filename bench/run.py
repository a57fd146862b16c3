"""diffwave benchmark: decay-gamma, decay-m1 and verify-fast, end to end.

    python3 bench/run.py --workload decay-m1 --seed 3 --seconds 36 --trace 0

Run from the root of a checkout; nothing needs installing.  Each round of a
workload runs in its own worker process (bench/worker.py), one at a time,
single-threaded, and its outputs are checked here (bench/checks.py).  A run
measures the set-up alone a few times (probes) and repeats whole rounds
while the next one is expected to end within ``--seconds``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (operations: CLI invocations, output checks and
set-up probes) and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Details of every round go to
``.bench_out/<workload>/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

# single-threaded BLAS/OpenMP, here and in every worker
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import decay_checks, verify_checks  # noqa: E402

# The decay runs stop at t = 100 instead of the presets' 500: the shortest
# length at which `rates --targets improved` passes on m1-default for every
# perturbation in the ranges below (l2_zxx's r^2 is the limit), so that one
# m1 round fits in a run.
END_TIME = 100.0

# ranges of the seed-drawn compact perturbation; the checks hold at the corners
PERTURBATION = {
    "perturbation_amplitude": (0.006, 0.012),
    "perturbation_center": (-0.5, 0.5),
    "perturbation_width": (1.6, 2.4),
}

WORKLOADS = {"decay-gamma": "gamma-default", "decay-m1": "m1-default", "verify-fast": None}

SETUP_PROBES = 4
ROUND_TIMEOUT_S = 150.0
OUT_ROOT = ".bench_out"


def decay_config(preset: str, seed: int) -> str:
    """The INI the program receives: the preset, run length and perturbation."""
    rng = random.Random(seed)
    lines = ["[scenario]", f"preset = {preset}"]
    for key, (lo, hi) in PERTURBATION.items():
        lines.append(f"{key} = {rng.uniform(lo, hi)!r}")
    lines += ["", "[time]", f"end = {END_TIME!r}", ""]
    return "\n".join(lines)


def cli_invocations(workload: str, work_dir: str) -> list[list[str]]:
    out = os.path.join(work_dir, "out")
    if WORKLOADS[workload] is None:
        return [["verify", "--fast", "--out", out]]
    return [
        ["simulate", "--config", os.path.join(work_dir, "config.ini"), "--out", out],
        ["rates", "--series", os.path.join(out, "series.csv"),
         "--targets", "improved", "--out", out],
    ]


def run_round(workload: str, work_dir: str, probe: bool, trace: bool) -> dict:
    """One worker process; checks its outputs unless it is a set-up probe."""
    out = os.path.join(work_dir, "out")
    shutil.rmtree(out, ignore_errors=True)
    result_path = os.path.join(work_dir, "worker.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--result", result_path]
    cmd += ["--probe"] * probe + ["--trace"] * trace
    cmd += ["--cli", json.dumps(cli_invocations(workload, work_dir))]

    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S, cwd=ROOT
        )
        log = f"$ {' '.join(cmd)}\n{proc.stdout}\n{proc.stderr}"
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        log, res = f"$ {' '.join(cmd)}\nworker failed: {exc}", None
    with open(os.path.join(work_dir, "worker.log"), "a", encoding="utf-8") as fh:
        fh.write(log + "\n")

    # a worker that died still fails the same number of operations
    res = res or {"exit_codes": [], "t_first_work": None}
    if probe:
        reached = res["t_first_work"] is not None
        checks = [("setup", reached, f"reached the first unit of work: {reached}")]
    elif WORKLOADS[workload] is None:
        checks = verify_checks(out, res["exit_codes"])
    else:
        checks = decay_checks(out, res["exit_codes"])
    res["wall_s"] = time.monotonic() - t0
    if res["t_first_work"] is not None:
        res["setup_s"] = res["t_first_work"] - t0
    res["checks"] = checks
    return res


def end_to_end(probes: list[dict], rounds: list[dict]) -> dict:
    med = statistics.median
    return {
        "setup_s": (med(r["setup_s"] for r in probes + rounds), "s"),
        "wall_s": (med(r["wall_s"] for r in rounds), "s"),
        "steps": (med(r["steps"] for r in rounds), "count"),
        "cell_steps_per_s": (
            med(r["cell_steps"] / (r["wall_s"] - r["setup_s"]) for r in rounds),
            "cell-steps/s",
        ),
        "peak_rss_mb": (med(r["peak_rss_kb"] / 1024.0 for r in rounds), "MB"),
    }


def per_layer(rounds: list[dict]) -> dict:
    """Per-layer metrics from the spans summed over the traced rounds."""
    spans, counters = {}, {}
    for r in rounds:
        for name, st in r["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(st, 0))
            for k, v in st.items():
                acc[k] += v
        for name, v in r["counters"].items():
            if name == "diagnostics.max_mass_drift":
                counters[name] = max(counters.get(name, 0.0), v)
            else:
                counters[name] = counters.get(name, 0) + v
    n_rounds = len(rounds)

    def span(name):
        return spans.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, scale=1e6):
        st = span(name)
        return ratio(st["total_ns"] / scale, st["calls"])

    step = span("solver.step")
    cs = step["work"]
    wsb = span("closures.wave_speed_bound")
    const = span("closures.constitutive")
    samples = span("diagnostics.field_norms")["calls"]
    m = {
        "solver.step.self_ns_per_cell_step": (ratio(step["self_ns"], cs), "ns/cell-step"),
        "solver.step.us_per_call": (per_call("solver.step", 1e3), "us"),
        "solver.cfl_dt.self_ns_per_cell": (
            ratio(span("solver.cfl_dt")["self_ns"], span("solver.cfl_dt")["work"]),
            "ns/cell",
        ),
        "solver.run.self_ns_per_cell_step": (
            ratio(span("solver.run")["self_ns"], cs), "ns/cell-step"),
        "solver.build_initial_data.ms": (per_call("solver.build_initial_data"), "ms"),
        "closures.wave_speed_bound.cells_per_cell_step": (
            ratio(wsb["work"], cs), "cells/cell-step"),
        "closures.wave_speed_bound.self_ns_per_cell": (
            ratio(wsb["self_ns"], wsb["work"]), "ns/cell"),
        "closures.constitutive.evals_per_cell_step": (
            ratio(const["work"], cs), "evals/cell-step"),
        "closures.constitutive.ns_per_cell": (
            ratio(const["total_ns"], const["work"]), "ns/cell"),
        "diffusion_wave.solve_profile.ms": (
            per_call("diffusion_wave.solve_profile"), "ms"),
        "diffusion_wave.eval.ns_per_point": (
            ratio(span("diffusion_wave.eval")["total_ns"],
                  span("diffusion_wave.eval")["work"]), "ns/point"),
        "corrections.compute_shift_x0.ms": (
            per_call("corrections.compute_shift_x0"), "ms"),
        "corrections.eval.ns_per_point": (
            ratio(span("corrections.eval")["total_ns"],
                  span("corrections.eval")["work"]), "ns/point"),
        "diagnostics.samples": (ratio(samples, n_rounds), "count"),
        "diagnostics.build_fields.self_ms_per_sample": (
            ratio(span("diagnostics.build_fields")["self_ns"] / 1e6, samples),
            "ms/sample"),
        "diagnostics.field_norms.ms_per_sample": (
            per_call("diagnostics.field_norms"), "ms/sample"),
        "diagnostics.fit_decay_rate.ms": (per_call("diagnostics.fit_decay_rate"), "ms"),
        "diagnostics.max_mass_drift": (
            counters.get("diagnostics.max_mass_drift", 0.0), "1"),
        "output.write_series_csv.ms": (per_call("output.write_series_csv"), "ms"),
        "output.emit_loglog_svg.ms": (per_call("output.emit_loglog_svg"), "ms"),
        "output.bytes_written": (
            ratio(counters.get("output.bytes_written", 0), n_rounds), "bytes"),
        "config.parse_config.ms": (per_call("config.parse_config"), "ms"),
    }
    for cid in ("P1", "P2", "P3", "P9"):
        m[f"verify.{cid}.s"] = (per_call(f"verify.{cid}", 1e9), "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "diffwave", "cli.py")):
        print(f"error: no diffwave sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    work_dir = os.path.join(ROOT, OUT_ROOT, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    preset = WORKLOADS[args.workload]
    if preset is not None:
        with open(os.path.join(work_dir, "config.ini"), "w", encoding="utf-8") as fh:
            fh.write(decay_config(preset, args.seed))

    trace = bool(args.trace)
    start = time.monotonic()
    # The set-up alone is measured several times a run, half before and half
    # after the rounds, so its median holds when only one round fits and the
    # machine's speed drifts during the run.  The traced run reports no set-up.
    n_probes = 0 if trace else SETUP_PROBES

    def probe():
        return run_round(args.workload, work_dir, True, False)

    probes = [probe() for _ in range(n_probes // 2)]
    probe_s = statistics.median(r["wall_s"] for r in probes) if probes else 0.0
    rounds = []
    while True:
        rounds.append(run_round(args.workload, work_dir, False, trace))
        typical = statistics.median(r["wall_s"] for r in rounds)
        left = (n_probes - len(probes)) * probe_s
        if time.monotonic() - start + typical + left > args.seconds:
            break
    probes += [probe() for _ in range(n_probes - len(probes))]

    checks = [c for r in probes + rounds for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)
    ok_rounds = [r for r in rounds if all(c[1] for c in r["checks"])]
    ok_probes = [r for r in probes if all(c[1] for c in r["checks"])]
    metrics = {}
    if ok_rounds:
        metrics = per_layer(ok_rounds) if trace else end_to_end(ok_probes, ok_rounds)

    with open(os.path.join(work_dir, f"run_trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "probes": probes, "rounds": rounds}, fh, indent=1)
    print(f"{args.workload}: {len(probes)} probes, {len(rounds)} rounds, "
          f"{time.monotonic() - start:.1f} s, wall_s per round "
          f"{[round(r['wall_s'], 3) for r in rounds]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
