"""The benchmark's traced worker runs the package end to end.

``bench/worker.py --trace`` rebuilds every closure with timed callables, so
its closures are not built in and each step runs on the NumPy formulation.
"""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def test_traced_worker_steps_a_short_decay_run(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text("[scenario]\npreset = gamma-default\n[grid]\nn_cells = 512\n"
                      "[time]\nend = 2\n")
    result = tmp_path / "worker.json"
    cli = [["simulate", "--config", str(config), "--out", str(tmp_path / "out")]]
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--result", str(result), "--trace",
         "--cli", json.dumps(cli)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())
    assert report["exit_codes"] == [0]
    assert report["spans"]["solver.step"]["calls"] > 0
