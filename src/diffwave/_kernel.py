"""The compiled transport step: ``_step.c``, built once and loaded with cffi.

The system C compiler builds the library on the first import into the
package's ``__pycache__/``.  When that directory is not writable, or not this
user's own, the library goes to ``diffwave-<uid>/`` in the temporary
directory, made with mode 0o700.  A cache directory, and a library in it, is
used only when it belongs to this user and no one else can write it: a shared
cache directory raises ImportError, and a library that fails the check is
rebuilt over.  The file name hashes the source, the flags and the compiler's
file (``cc`` on PATH through its symlinks: real path, size and mtime), so an
edited source or a replaced compiler rebuilds, a wrapper such as ccache is
keyed by its own file, and a warm import starts no process.  The file appears
by atomic rename (``_atomic``), so concurrent first imports are harmless.  A
build into the package's ``__pycache__/`` deletes this user's libraries and
emitted modules of other hashes there.  A failed build, or a PATH without
``cc``, raises ImportError naming the command.

The declarations reach cffi through out-of-line ABI mode: the first import
parses them once (cffi with pycparser) and emits a module
``_step.<hash>.py`` next to the library in the same way; a later import
loads it, after the same ownership check, and needs no C parser.

With a built-in closure, m1 or the gamma law, the step runs its window in
chunks on the calling thread and one C helper thread, when the process's
affinity mask holds a second CPU (``taskset`` limits it); the helper starts
on the first step with more than one chunk, and it is stopped and joined at
exit, before the library can be unloaded.  ``_step.c`` describes it.

The wrappers take and return NumPy arrays of float64; every input goes
through ``np.ascontiguousarray(x, dtype=float)`` (``as_pair``, ``_row``),
except ``step``'s cells, which ``SimState`` keeps contiguous float64.
``step`` runs one transport step from (alpha, dt, dx) and alone knows the
layout of its buffer: with a built-in closure (``ModelClosure.builtin``)
one C call, with any other the three stages and, between them, the
closure's two rounds (``closure_round``); ``_step.c`` says what each stage
does.  ``flux_and_speed`` is the same face combine on any states, the
package's one evaluation of the flux and the wave speed.

``power`` is the package's own pow, within 1 ulp and the same bits on
every CPU and under any NumPy dispatch: the gamma law's callables call it.
The step's damping scalars e^-h and sinh(h)/h come from the same routine's
exp, in C (``dw_step_scalars``).  ``erf`` is the C library's erf in one
loop, ``tridiagonal_solve`` the profile solver's Newton step.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import math
import os
import re
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_step.c")
_CC = "cc"
# -ffp-contract=off: a fused multiply-add rounds once where NumPy rounds twice,
# so contraction changes bits.  -fno-math-errno lets sqrt compile to one
# instruction.  Never -ffast-math, which drops IEEE semantics, nor
# -march=native, which ties the cached library to the building CPU.
# -pthread: the built-in step's chunk pool.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared",
          "-pthread")

# the declarations block of the source is the cdef
_CDEF = _SOURCE.read_text().split("/* --- declarations --- */")[1].split(
    "/* --- end of declarations --- */"
)[0]


def _key() -> str:
    """The hash of the source, the flags and the compiler's file."""
    found = shutil.which(_CC)
    if found is None:
        raise ImportError(f"cannot find the C compiler {_CC!r} on PATH")
    real = os.path.realpath(found)
    st = os.stat(real)
    text = "\0".join([_SOURCE.read_text(), real, f"{st.st_size} {st.st_mtime_ns}", *_FLAGS])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _private(path: Path) -> bool:
    """Whether path itself (not a symlink's target) belongs to this user and
    no one else can write it."""
    st = os.lstat(path)
    return st.st_uid == os.getuid() and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def _cache_dir() -> Path:
    """The package's ``__pycache__/`` when it is this user's to write, else
    the per-user directory in the temporary directory."""
    cache = _SOURCE.parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
    except OSError:
        pass
    if os.access(cache, os.W_OK) and _private(cache):
        return cache
    cache = Path(tempfile.gettempdir()) / f"diffwave-{os.getuid()}"
    try:
        cache.mkdir(mode=0o700, exist_ok=True)
    except OSError as exc:
        raise ImportError(f"cannot make the compiled-step cache {cache}: {exc}") from exc
    if not (stat.S_ISDIR(os.lstat(cache).st_mode) and _private(cache)):
        raise ImportError(
            f"the compiled-step cache {cache} is not a directory that only "
            f"this user can write; remove it or set TMPDIR"
        )
    return cache


def _atomic(path: Path, make, mode: int) -> bool:
    """Whether it made path, by make(tmp) on a temporary beside it, chmod and
    rename; a path that is this user's own is kept, a failure deletes tmp."""
    try:
        if _private(path):
            return False
    except FileNotFoundError:
        pass
    fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        make(tmp)
        # replaces mkstemp's 0o600 or the linker's umask mode: no one else may write
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return True


def _compile(tmp: str) -> None:
    cmd = [_CC, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"cannot run the C compiler: {' '.join(cmd)}: {exc}") from exc
    if proc.returncode != 0:
        raise ImportError(f"building the compiled step failed (exit {proc.returncode}): "
                          f"{' '.join(cmd)}\n{proc.stderr}")


def _build() -> Path:
    """The path of the compiled library, building it first if it is missing
    or is not this user's own."""
    cache = _cache_dir()
    target = cache / f"_step.{_key()}.so"
    if _atomic(target, _compile, 0o755) and cache == _SOURCE.parent / "__pycache__":
        _prune(cache, target)
    return target


def _prune(cache: Path, keep: Path) -> None:
    """Delete this user's compiled steps and emitted modules of other hashes
    in the package's cache.

    Only regular files that this user owns go (``lstat``: a symlink stays).
    The per-user temporary cache is never pruned: it serves every checkout
    of this user, so another checkout's library there may be loaded next.
    """
    for old in cache.iterdir():
        ours = re.fullmatch(r"_step\.[0-9a-f]{16}\.(so|py)", old.name)
        if not ours or old.with_suffix(keep.suffix) == keep:
            continue
        try:
            st = os.lstat(old)
            if stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid():
                old.unlink()
        except OSError:
            pass  # gone already, or not ours to delete


def _emit(tmp: str) -> None:
    import cffi  # pycparser parses the declarations only here
    builder = cffi.FFI()
    builder.cdef(_CDEF)
    builder.set_source("_step", None, compiler_verbose=False)
    builder.emit_python_code(tmp)


def _emitted_ffi(path: Path):
    """The FFI of the declarations from the module cffi emits for them at
    path (out-of-line ABI mode), emitting it first when it is missing or is
    not this user's own.  Loading it needs no C parser."""
    _atomic(path, _emit, 0o644)
    namespace = {}
    exec(compile(path.read_bytes(), str(path), "exec"), namespace)
    return namespace["ffi"]


_library = _build()
ffi = _emitted_ffi(_library.with_suffix(".py"))
lib = ffi.dlopen(str(_library))
# the chunk pool's helper runs code of the library: end it before the library
# can be unloaded
atexit.register(lib.dw_pool_stop)


_DOUBLES = ffi.typeof("double[]")
_STATUS = ffi.typeof("dw_status *")
_STEP_SCALARS = ffi.typeof("dw_scalars *")
_FLOAT64 = np.dtype(float)
_ORDERS = range(5)


# a double * to the contiguous array's data; a partial, so no Python frame per call
_ptr = functools.partial(ffi.from_buffer, _DOUBLES)


def as_pair(v, u):
    """v and u as contiguous float64 arrays of one shape, as the kernel reads them."""
    v, u = np.ascontiguousarray(v, dtype=float), np.ascontiguousarray(u, dtype=float)
    if v.shape != u.shape:
        raise ValueError(f"v and u differ in shape: {v.shape} vs {u.shape}")
    return v, u


def _row(x, size: int):
    """x as a contiguous float64 row of size values, broadcast if it is smaller."""
    x = np.ascontiguousarray(x, dtype=float)
    if x.shape != (size,):
        x = np.ascontiguousarray(np.broadcast_to(x, (size,)))
    return x


def closure_round(closure, v, u, speed: bool):
    """One closure round on the contiguous rows v and u: pointers to the rows
    p, p', g, g', f, f' as the stages take them (g, g' on u, the rest on v).

    Each callable is called once: p, g and f, and with ``speed`` also p', g'
    and f'.  A correction-free closure evaluates only p, and p' with
    ``speed``.  A row not evaluated is NULL.
    """
    size, null = v.size, ffi.NULL

    def row(fn, x):
        return _ptr(_row(fn(x), size))

    p = row(closure.p, v)
    dp = row(closure.dp, v) if speed else null
    if closure.correction_free:
        return p, dp, null, null, null, null
    g, f = row(closure.g, u), row(closure.f, v)
    if not speed:
        return p, null, g, null, f, null
    return p, dp, g, row(closure.dg, u), f, row(closure.df, v)


def _edge_rows(st, buf):
    """(v, u) at the window's 2 (m + 2) edge values: the left edge values of
    its cells and one cell a side, then their right edge values.

    The same rows without their first and last value are the 2 (m + 1) face
    states (``_step.c``), which the closure's second round takes.
    """
    s = st.hi - st.lo + 2
    return buf[: 2 * s], buf[2 * s: 4 * s]


def _buffer(n: int):
    return np.empty(lib.N_REGIONS * 2 * (n + 2))


def step(closure, v, u, dt: float, dx: float):
    """One transport step of dt on the contiguous float64 cells (v, u) of
    width dx: (ok, st, rows, buf).

    ``ok`` is 1 when every check of the step passed (``_step.c``), and then
    only ``st.speed_bound`` and ``st.u_max`` of the ``dw_status`` ``st`` need
    reading; ``rows`` is the successor's (v, u) once the step has run
    through, ``buf`` the step's buffer for ``face_states``, or None.  Each
    call makes its own, so concurrent steps share nothing but the chunk pool,
    which one step holds at a time; a step that finds it held runs alone.
    With a built-in closure the step is one C call, run in chunks on scratch
    of its own, and when a face loses hyperbolicity once more as one chunk
    in ``buf``, which leaves the face states there.  With any other closure
    it runs the three stages on the same C scalars and, between them, the
    closure's two rounds; ``st.thin_face >= 0`` stops it after the
    predictor.  Raises MemoryError when C cannot allocate its scratch.
    """
    n = v.size
    if v.dtype != _FLOAT64 or u.dtype != _FLOAT64 or u.size != n:  # C reads n doubles of each
        raise ValueError(f"the cells must be float64 rows of one size, not "
                         f"{v.dtype} {v.shape} and {u.dtype} {u.shape}")
    pv, pu = _ptr(v), _ptr(u)  # raises unless contiguous
    rows = np.empty((2, n))
    st = ffi.new(_STATUS)
    builtin = closure.builtin
    if builtin:
        kind, gamma = builtin
        ok = lib.dw_step(n, pv, pu, kind, gamma, closure.alpha, dt, dx, ffi.NULL,
                         _ptr(rows), st)
        buf = None
        if ok != 1:
            if ok < 0:
                raise MemoryError("cannot allocate the transport step's scratch")
            if not st.hyperbolic and st.thin_face < 0:
                buf = _buffer(n)
                lib.dw_step(n, pv, pu, kind, gamma, closure.alpha, dt, dx, _ptr(buf),
                            _ptr(rows), st)
        return ok, st, rows, buf
    sc = ffi.new(_STEP_SCALARS)
    lib.dw_step_scalars(closure.alpha, dt, dx, sc)
    cells = (n, pv, pu, sc)
    buf = _buffer(n)
    out = (_ptr(buf), _ptr(rows), st)
    lib.dw_edges(*cells, out[0], st)
    edge_v, edge_u = _edge_rows(st, buf)
    p, _, g, _, f, _ = closure_round(closure, edge_v, edge_u, False)
    lib.dw_predict(sc, p, g, f, out[0], st)
    ok = 0
    if st.thin_face < 0:
        terms = closure_round(closure, edge_v[1:-1], edge_u[1:-1], True)
        ok = lib.dw_update(*cells, *terms, *out)
    return ok, st, rows, buf


def face_states(st, buf):
    """((v, u) of the left states, (v, u) of the right states) of the
    window's m + 1 faces: right and left edge values of the window."""
    edge_v, edge_u = _edge_rows(st, buf)
    s = st.hi - st.lo + 2
    return (edge_v[s:-1], edge_u[s:-1]), (edge_v[1:s], edge_u[1:s])


def flux_and_speed(closure, v, u):
    """(flux, speed) of the closure at the 1-D states (v, u), as the step's
    face combine computes them: p - g f and (|b| + sqrt(b^2 - 4c)) / 2 with
    b = g' f and c = p' - g f'.  The speed is max(|lam-|, |lam+|) bit for
    bit: the larger root magnitude is the rounded sum of |b| and the root,
    the smaller the rounded difference, which rounding keeps no larger.

    Returns None when a discriminant is not >= 0 (NaN included).
    """
    v, u = as_pair(v, u)
    flux, speed = np.empty_like(v), np.empty_like(v)
    if closure.builtin_m1:
        ok = lib.dw_m1_flux_and_speed(v.size, _ptr(v), _ptr(u), _ptr(flux), _ptr(speed))
    else:
        terms = closure_round(closure, v, u, True)
        ok = lib.dw_face_combine(v.size, *terms, _ptr(flux), _ptr(speed))
    return (flux, speed) if ok else None


def tridiagonal_solve(lower, diag, upper, rhs):
    """x with A x = rhs for the tridiagonal A of the given sub-, main and
    superdiagonal (n - 1, n and n - 1 values), by Gaussian elimination with
    partial pivoting (``dw_tridiagonal_solve``, LAPACK dgtsv's algorithm).

    Raises ``np.linalg.LinAlgError`` when a pivot is exactly zero.
    """
    # copies: the solve overwrites all four
    d = np.array(diag, dtype=float)
    dl, du, x = (np.array(a, dtype=float) for a in (lower, upper, rhs))
    n = d.size
    if d.ndim != 1 or n == 0 or {dl.shape, du.shape} != {(n - 1,)} or x.shape != (n,):
        raise ValueError(f"tridiagonal shapes {dl.shape}, {d.shape}, {du.shape}, "
                         f"right-hand side {x.shape}")
    k = lib.dw_tridiagonal_solve(n, _ptr(dl), _ptr(d), _ptr(du), _ptr(x))
    if k:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix: zero pivot in row {k - 1}")
    return x


def power(v, y: float, order: int = 0, coef: float = 1.0):
    """coef * v**(y - order) elementwise on the package's pow (``dw_pow``):
    e**(y log v) / v**order in double-double, rounded once, so within 1 ulp
    and the same bits on every CPU.  y is finite, order 0 .. 4, and y <= 0
    when order > 0.  v = +-0 gives the limit at +0, a negative v or a NaN
    gives NaN.  Returns v's shape; a scalar gives a float64 scalar."""
    if not (math.isfinite(y) and order in _ORDERS and (order == 0 or y <= 0.0)):
        raise ValueError(f"power needs a finite y, order 0 .. 4 and y <= 0 for "
                         f"order > 0, not y={y}, order={order}")
    # a contiguous float64 row, the closure rounds' input, goes in as it is
    row = (type(v) is np.ndarray and v.ndim == 1 and v.dtype == _FLOAT64
           and v.flags.c_contiguous)
    x = v if row else np.ascontiguousarray(v, dtype=float).ravel()
    out = np.empty(x.size)
    lib.dw_pow(x.size, _ptr(x), y, order, coef, _ptr(out))
    return out if row else out.reshape(np.shape(v))[()]


def erf(x):
    """erf elementwise, by the C library's erf (``dw_erf``) in one loop: the
    function ``math.erf`` calls, to the bit."""
    x = np.ascontiguousarray(x, dtype=float)
    out = np.empty_like(x)
    lib.dw_erf(x.size, _ptr(x), _ptr(out))
    return out


def m1_momentum_flux(v, u):
    """p(v) - g(u) f(v) of the built-in m1 closure, as the step evaluates it."""
    v, u = as_pair(v, u)
    out = np.empty_like(v)
    lib.dw_m1_momentum_flux(v.size, _ptr(v), _ptr(u), _ptr(out))
    return out
