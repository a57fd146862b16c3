"""The chunk pool of the compiled m1 and gamma steps: concurrent steps, and
the helper's start, sleep, exit and fork.

A step's window is cut into chunks of 256 cells, and the pool has one helper
thread when the process's affinity mask holds a second CPU.  The subprocess
cases run a 2048-cell m1 state, whose window spans eight chunks.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import diffwave
from diffwave import config
from diffwave.solver import advance, build_initial_data, cfl_dt, step

SRC = str(Path(diffwave.__file__).parents[1])

STEPS = """
import hashlib, os, sys, time
import numpy as np
from diffwave import _kernel, closures, solver

def wavy(n, closure=closures.m1_closure(1.0)):
    x = np.linspace(-1.0, 1.0, n)
    return solver.SimState(-8.0, 8.0, n, 1.0 + 0.05 * np.cos(3.0 * x),
                           0.05 * np.sin(5.0 * x), 0.0, closure)

def march(state, k):
    for _ in range(k):
        state = solver.step(state, solver.cfl_dt(state, 0.45))
    return state

def digest(state):
    return hashlib.sha256(state.v.tobytes() + state.u.tobytes()).hexdigest()

workers = _kernel.lib.dw_pool_workers

def threads():
    return len(os.listdir("/proc/self/task"))
"""


def _python(code, before="", timeout=120):
    """Runs STEPS and then code in a fresh interpreter; before runs first."""
    env = {**os.environ, "PYTHONPATH": SRC}
    script = textwrap.dedent(before) + STEPS + textwrap.dedent(code)
    return subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=timeout, env=env)


def _march(state, cfl, k):
    for _ in range(k):
        state = step(state, cfl_dt(state, cfl))
    return state


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _preset_states(preset):
    """The preset at t = 20 and t = 50, and its cfl."""
    spec, profile = config.build_scenario(
        config.parse_config(f"[scenario]\npreset = {preset}\n"))
    state = build_initial_data(spec, profile)
    states = []
    for t in (20.0, 50.0):
        state = advance(state, t, spec.cfl)
        states.append(state)
    return spec.cfl, states


@pytest.fixture(scope="module")
def preset_states():
    """m1-default and gamma-default, the two built-in closures: each step
    makes its own scratch in C, so concurrent steps share no buffer."""
    return [_preset_states(preset) for preset in ("m1-default", "gamma-default")]


def test_concurrent_steps_match_serial_bits(preset_states):
    """Two threads step at once, one of them with the pool's helper or both
    alone, and each gets the bits of stepping alone."""
    for cfl, states in preset_states:
        _concurrent_steps_match_serial_bits(cfl, states)


def _concurrent_steps_match_serial_bits(cfl, states):
    want = [_march(state, cfl, 50) for state in states]
    for _ in range(3):
        got = [None, None]
        start = threading.Barrier(2)

        def run(i):
            start.wait()
            got[i] = _march(states[i], cfl, 50)

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "a concurrent step did not finish within 60 s"
        for g, w in zip(got, want):
            assert g is not None and g.t == w.t
            assert same_bits(g.v, w.v) and same_bits(g.u, w.u)


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counts threads in /proc/self/task")


@needs_proc
def test_workers_start_lazily_sleep_when_idle_and_exit_cleanly():
    """The helper starts on the first step with more than one chunk; idle,
    it spins for about 50 us and then sleeps, so a half-second pause costs
    next to no CPU time; the last exit handler, registered before the
    import, finds it joined, before the library can be unloaded."""
    proc = _python("""
        at_import = workers(), threads()
        march(wavy(200), 3)  # a window of one chunk
        one_chunk = workers(), threads()
        march(wavy(2048), 3)
        cpu = time.process_time()
        time.sleep(0.5)
        idle_cpu = time.process_time() - cpu
        print(*at_import, *one_chunk, workers(), threads(), len(os.sched_getaffinity(0)),
              idle_cpu)
    """, before="""
        import atexit, os, sys
        atexit.register(lambda: print(
            sys.modules["diffwave._kernel"].lib.dw_pool_workers(),
            len(os.listdir("/proc/self/task"))))
    """)
    assert proc.returncode == 0 and proc.stderr == ""
    *counts, cpus, idle_cpu, at_exit, threads_at_exit = proc.stdout.split()
    counts = [int(k) for k in counts]
    base = counts[1]  # the interpreter's and the BLAS library's threads
    started = min(int(cpus) - 1, 1)
    assert counts == [-1, base, -1, base, started, base + started]
    assert float(idle_cpu) < 0.1
    assert (int(at_exit), int(threads_at_exit)) == (0, base)


def test_pinned_to_one_cpu_no_worker_starts_and_the_bits_hold():
    """One CPU in the mask: no helper, and the bits of this process's steps."""
    proc = _python("""
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        end = march(wavy(2048), 30)
        print(workers(), digest(end))
    """)
    assert proc.returncode == 0, proc.stderr
    namespace = {}
    exec(STEPS, namespace)
    want = namespace["digest"](namespace["march"](namespace["wavy"](2048), 30))
    assert proc.stdout.split() == ["0", want]


@needs_proc
def test_forked_child_steps_to_the_parents_bits():
    """A child forked while the pool runs gets a fresh pool and the same bits."""
    proc = _python("""
        state = march(wavy(2048), 5)
        parent_workers = workers()
        want = digest(march(state, 20))
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            base = threads()  # only the thread that forked
            got = digest(march(state, 20))
            sys.exit(0 if got == want and workers() == parent_workers
                     and threads() == base + parent_workers else 1)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                sys.exit("the forked child did not finish within 60 s")
            time.sleep(0.01)
        print(os.waitstatus_to_exitcode(status))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]



def test_gamma_chunks_keep_their_bits_on_one_cpu_and_on_two():
    """The built-in gamma step runs on the same pool: pinned to one CPU (no
    helper) and unpinned it gives the same bits, and its chunked step gives
    the one-chunk step's bits."""
    code = """
        gas = closures.gamma_law_closure(2.0, 1.0)
        end = march(wavy(2048, gas), 30)

        def raw(one_chunk):
            n, ptr = end.v.size, _kernel._ptr
            buf = _kernel.ffi.NULL  # chunked: the step makes its own scratch
            if one_chunk:
                buf = ptr(np.empty(_kernel.lib.N_REGIONS * 2 * (n + 2)))
            rows = np.empty((2, n))
            st = _kernel.ffi.new("dw_status *")
            _kernel.lib.dw_step(n, ptr(end.v), ptr(end.u), _kernel.lib.DW_GAMMA, 2.0, 0.2,
                                0.01, 0.25, buf, ptr(rows), st)
            return rows.tobytes(), st.speed_bound, st.hi - st.lo

        print(workers(), digest(end), raw(0) == raw(1), raw(0)[2] > 256)
    """
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
    pinned, here = (_python(first + textwrap.dedent(code)) for first in (pin, ""))
    assert pinned.returncode == 0 and here.returncode == 0, pinned.stderr + here.stderr
    pinned, here = pinned.stdout.split(), here.stdout.split()
    assert pinned[0] == "0" and pinned[2:] == here[2:] == ["True", "True"]
    assert pinned[1] == here[1]
