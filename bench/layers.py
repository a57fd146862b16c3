"""Count and time diffwave's layers by wrapping its public functions from outside.

Nothing in the package is edited.  A wrapper replaces a function in every
``diffwave`` module that holds a reference to it, because the modules import
each other's functions by name (``verify`` calls ``step``, not
``solver.step``).
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time

import numpy as np

# the closure callables timed as ``closures.constitutive``
CONSTITUTIVE = ("p", "dp", "g", "dg", "f", "df")

CLOSURE_FACTORIES = ("gamma_law_closure", "m1_closure", "linear_closure")

VERIFY_CHECKS = {
    "check_profile_correctness": "verify.P1",
    "check_correction_identities": "verify.P2",
    "check_solver_baseline": "verify.P3",
    "check_determinism": "verify.P9",
}


def replace_everywhere(owner, name: str, new) -> None:
    """Point every diffwave module's reference to ``owner.name`` at ``new``."""
    old = getattr(owner, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "diffwave" and not mod_name.startswith("diffwave."):
            continue
        hits = [attr for attr, val in vars(mod).items() if val is old]
        for attr in hits:
            setattr(mod, attr, new)


class SetupDone(BaseException):
    """Raised at the first unit of work when only the set-up is measured.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


class FirstWork:
    """Records when the first unit of work starts; optionally stops there."""

    def __init__(self, stop: bool):
        self.stop = stop
        self.t = None

    def wrap(self, owner, name: str) -> None:
        fn = getattr(owner, name)

        def marked(*args, **kwargs):
            if self.t is None:
                self.t = time.monotonic()
                if self.stop:
                    raise SetupDone
            return fn(*args, **kwargs)

        replace_everywhere(owner, name, marked)


class StepCounter:
    """Counts ``solver.step`` calls and the cells they advance."""

    def __init__(self):
        self.steps = 0
        self.cell_steps = 0

    def install(self, solver) -> None:
        step = solver.step

        def counted(state, *args, **kwargs):
            self.steps += 1
            self.cell_steps += state.n_cells
            return step(state, *args, **kwargs)

        replace_everywhere(solver, "step", counted)


class Tracer:
    """Aggregated spans: calls, total and self time, and work per span name.

    Self time is a span's duration minus the time its child spans cover.  A
    span entered while a span of the same name is open is folded into it, so
    nested calls of one layer are neither timed nor counted twice.
    """

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, child_ns]

    def traced(self, fn, name: str, work=None, after=None):
        """Wrap ``fn`` as span ``name``.

        ``work(args)`` gives the units of work of one call; ``after(args,
        result)`` observes the result.
        """
        st = self.stats.setdefault(
            name, {"calls": 0, "total_ns": 0, "self_ns": 0, "work": 0}
        )
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st["calls"] += 1
                st["total_ns"] += dt
                st["self_ns"] += dt - frame[1]
            if work is not None:
                st["work"] += work(args)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap(self, owner, name: str, span: str, work=None, after=None) -> None:
        replace_everywhere(
            owner, name, self.traced(getattr(owner, name), span, work, after)
        )

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0.0), value)

    def install(self) -> None:
        """Wrap every layer of the package that the benchmark reports on."""
        from diffwave import (
            closures,
            config,
            corrections,
            diagnostics,
            diffusion_wave,
            output,
            solver,
            verify,
        )

        def cells(args):
            return args[0].n_cells

        def points(args):
            return int(np.size(args[1]))

        def wrap_closure(make):
            def build(*args, **kwargs):
                c = make(*args, **kwargs)
                return dataclasses.replace(
                    c,
                    **{
                        f: self.traced(
                            getattr(c, f),
                            "closures.constitutive",
                            lambda a: int(np.size(a[0])),
                        )
                        for f in CONSTITUTIVE
                    },
                )

            return build

        for factory in CLOSURE_FACTORIES:
            replace_everywhere(
                closures, factory, wrap_closure(getattr(closures, factory))
            )
        self.wrap(closures, "wave_speed_bound", "closures.wave_speed_bound", points)

        self.wrap(diffusion_wave, "solve_profile", "diffusion_wave.solve_profile")
        self.wrap(diffusion_wave, "eval_vbar", "diffusion_wave.eval", points)
        self.wrap(diffusion_wave, "eval_ubar", "diffusion_wave.eval", points)

        self.wrap(corrections, "compute_shift_x0", "corrections.compute_shift_x0")
        self.wrap(corrections, "eval_vhat", "corrections.eval", points)
        self.wrap(corrections, "eval_uhat", "corrections.eval", points)

        def mass_drift(args, series):
            self.peak(
                "diagnostics.max_mass_drift",
                max(abs(m) for m in series.mass_residual),
            )

        self.wrap(solver, "step", "solver.step", cells)
        self.wrap(solver, "cfl_dt", "solver.cfl_dt", cells)
        self.wrap(solver, "build_initial_data", "solver.build_initial_data")
        self.wrap(solver, "run", "solver.run", after=mass_drift)

        self.wrap(diagnostics, "build_fields", "diagnostics.build_fields")
        self.wrap(diagnostics, "field_norms", "diagnostics.field_norms")
        self.wrap(diagnostics, "fit_decay_rate", "diagnostics.fit_decay_rate")

        def written(args, _result):
            self.count("output.bytes_written", os.path.getsize(args[0]))

        for writer in ("write_series_csv", "write_rates_csv", "emit_loglog_svg"):
            self.wrap(output, writer, f"output.{writer}", after=written)

        self.wrap(config, "parse_config", "config.parse_config")

        for fn_name, span in VERIFY_CHECKS.items():
            self.wrap(verify, fn_name, span)
