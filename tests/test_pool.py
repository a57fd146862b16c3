"""The chunk pool of the compiled m1 and gamma steps: concurrent steps, and
the helper's start, sleep, exit and fork.

A step's window is cut into chunks of 256 cells, and the pool has one helper
thread when the process's affinity mask holds a second CPU.  The caller
claims chunks from the window's left end and the helper from its right end.
Most subprocess cases run a 2048-cell m1 state, whose window spans eight
chunks; the claims from both ends run windows of 2, 3 and 64 chunks.
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
    spec, profile = config.build_scenario(f"[scenario]\npreset = {preset}\n")
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
    the NumPy formulation's bits."""
    code = """
        gas = closures.gamma_law_closure(2.0, 1.0)
        end = march(wavy(2048, gas), 30)
        dt = solver.cfl_dt(end, 0.45)
        ok, st, cells = _kernel.step(gas, end.v, end.u, dt, end.dx)
        v, u, speed_bound, _ = solver._numpy_step(end, dt)
        same = (ok == 1 and cells[0].tobytes() + cells[1].tobytes() == v.tobytes() + u.tobytes()
                and st.speed_bound == speed_bound)
        print(workers(), digest(end), same, st.hi - st.lo > 256)
    """
    pin = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
    pinned, here = (_python(first + textwrap.dedent(code)) for first in (pin, ""))
    assert pinned.returncode == 0 and here.returncode == 0, pinned.stderr + here.stderr
    pinned, here = pinned.stdout.split(), here.stdout.split()
    assert pinned[0] == "0" and pinned[2:] == here[2:] == ["True", "True"]
    assert pinned[1] == here[1]


# Windows of exactly 2 and 3 chunks, where the two ends meet at once, and of
# 64, on both built-in closures: each step's rows and speed bound against the
# NumPy formulation's, and a digest of the last state.
BOTH_ENDS = """
    for closure in (closures.m1_closure(1.0), closures.gamma_law_closure(2.0, 1.0)):
        for n, chunks in ((300, 2), (700, 3), (16384, 64)):
            state, same = wavy(n, closure), True
            for _ in range(10):
                dt = solver.cfl_dt(state, 0.45)
                ok, st, cells = _kernel.step(closure, state.v, state.u, dt, state.dx)
                v, u, speed_bound, _ = solver._numpy_step(state, dt)
                same &= (ok == 1 and (st.lo, st.hi) == (0, n) and -(-n // 256) == chunks
                         and cells[0].tobytes() + cells[1].tobytes() == v.tobytes() + u.tobytes()
                         and st.speed_bound == speed_bound)
                state = solver.step(state, dt)
            print(closure.name, chunks, same, digest(state))
    print(workers())
"""


# run after STEPS: the helper's thread and the caller pinned to one CPU
COLOCATE = """
    import threading
    before = set(os.listdir("/proc/self/task"))
    march(wavy(2048), 1)  # starts the helper
    (helper,) = set(os.listdir("/proc/self/task")) - before
    cpu = min(os.sched_getaffinity(0))
    for tid in (threading.get_native_id(), int(helper)):
        os.sched_setaffinity(tid, {cpu})
"""


def _both_ends(setup=""):
    """BOTH_ENDS's case lines and the helpers running, after setup."""
    proc = _python(textwrap.dedent(setup) + textwrap.dedent(BOTH_ENDS))
    assert proc.returncode == 0, proc.stderr
    *cases, helpers = proc.stdout.splitlines()
    return cases, int(helpers)


@pytest.fixture(scope="module")
def both_ends():
    """BOTH_ENDS with the process's own affinity mask."""
    return _both_ends()


def test_claims_from_both_ends_cover_each_chunk_once(both_ends):
    """The caller claims chunks from the window's left end and the helper
    from its right end until they meet: on two CPUs and pinned to one, every
    step has the NumPy formulation's bits, and the states agree."""
    pinned, pinned_helpers = _both_ends("os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})")
    here, helpers = both_ends
    assert pinned_helpers == 0 and helpers == min(len(os.sched_getaffinity(0)) - 1, 1)
    assert len(here) == 6 and all(case.split()[2] == "True" for case in here)
    assert pinned == here


@needs_proc
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs a second CPU")
def test_helper_on_the_callers_cpu_keeps_the_bits(both_ends):
    """The helper's thread pinned onto the caller's CPU is descheduled in the
    middle of steps, holding a claimed chunk or about to claim one; every
    step still has the NumPy formulation's bits."""
    here, helpers = both_ends
    colocated, colocated_helpers = _both_ends(COLOCATE)
    assert helpers == colocated_helpers == 1
    assert colocated == here
