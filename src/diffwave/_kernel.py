"""The compiled transport step: ``_step.c``, built once into a CPython
extension module with cffi.

The system C compiler builds the module ``_step_<hash><EXT_SUFFIX>`` on the
first import into the package's ``__pycache__/``.  When that directory is not
writable, or not this user's own, the module goes to ``diffwave-<uid>/`` in
the temporary directory, made with mode 0o700.  A cache directory, and a
module in it, is used only when it belongs to this user and no one else can
write it: a shared cache directory raises ImportError, and a module that
fails the check is rebuilt over.  The hash covers the source, the flags, the
compiler's file (``cc`` on PATH through its symlinks: real path, size and
mtime), the Python include directory and the extension suffix, so an edited
source, a replaced compiler or another interpreter rebuilds, a wrapper such
as ccache is keyed by its own file, and a warm import starts no process and
needs no C parser.  The file appears by atomic rename (``_atomic``), so
concurrent first imports are harmless.  A build into the package's
``__pycache__/`` deletes this user's compiled steps of other hashes there,
the older ``_step.<hash>.so`` libraries and ``.py`` modules included.  A
failed build, a PATH without ``cc``, or an include directory without
``Python.h`` raises ImportError naming the command or the directory.

The build runs cffi's API mode: cffi (with pycparser) parses the source's
declarations block, emits the C of the module, which includes ``_step.c``,
and ``cc`` compiles it with the Python headers.  A call into ``lib`` is then
one C call, with no libffi in between.

The step runs its window in chunks on the calling thread and one C helper
thread, when the process's affinity mask holds a second CPU (``taskset``
limits it): the caller claims chunks from the window's left end and the
helper from its right end, both from one atomic word on a cache line of its
own, so each mostly reads back the rows it wrote.  The helper starts on the
first step with more than one chunk, and it is stopped and joined at exit.
The window search before it skips uniform neighbour pairs in blocks of 64
from both ends; it tests the pairs left over at once only when the blocks
run out, so it reads the window's interior only at its two ends.
``_step.c`` describes both.

The wrappers take and return NumPy arrays of float64; every input goes
through ``np.ascontiguousarray(x, dtype=float)`` (``as_pair``), except
``step``'s cells, which ``SimState`` keeps contiguous float64 and
``check_cells`` checks.  ``step`` is one transport step with a built-in
closure (``ModelClosure.builtin``) from (alpha, dt, dx), one C call
(``dw_step``): its flag, its status (the window, the largest face speed and
|u|) and the successor's rows with their pointers, which the next step
reuses.  Where a check failed, and every step of any other closure, is the
business of ``solver``'s NumPy formulation; no Python here knows how C lays
out its scratch.  ``flux_and_speed`` is a built-in closure's face combine on
any states, by the step's own C evaluators (``dw_flux_and_speed``).  The M1
evaluators are chosen once, when the module loads: on a CPU with AVX-512
(x86-64-v4) an AVX-512 pair, which takes four of a face state's seven
divisions as reciprocals that fused multiply-adds round correctly, and the
u side's divisions and square root off vectors whose 4 - 3u^2 all round to
4; elsewhere the generic pair.  Both give the divider's bits, and the step
and ``flux_and_speed`` run the same one.

``power`` is the package's own pow, within 1 ulp and the same bits on
every CPU and under any NumPy dispatch: the gamma law's callables call it.
A row of ordinary values runs it without its special-value lanes, to the
same bits (``_step.c``'s ``ordinary``).
The step's damping scalars e^-h and sinh(h)/h come from the same routine's
exp (``dw_damping``, which C's step calls and ``damping`` wraps).  ``erf``
is the C library's erf in one loop, ``tridiagonal_solve`` the profile
solver's Newton step and ``hermite`` the profile's interpolant.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import importlib.machinery
import importlib.util
import math
import os
import re
import shutil
import stat
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_step.c")
_CC = "cc"
# -ffp-contract=off: a fused multiply-add rounds once where NumPy rounds twice,
# so contraction changes bits.  -fno-math-errno lets sqrt compile to one
# instruction.  Never -ffast-math, which drops IEEE semantics, nor
# -march=native, which ties the cached module to the building CPU.
# -pthread: the built-in step's chunk pool.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared",
          "-pthread")
_INCLUDE = sysconfig.get_path("include")
_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


def _key() -> str:
    """The hash of the source, the flags, the compiler's file, the Python
    include directory and the extension suffix."""
    found = shutil.which(_CC)
    if found is None:
        raise ImportError(f"cannot find the C compiler {_CC!r} on PATH")
    real = os.path.realpath(found)
    st = os.stat(real)
    text = "\0".join([_SOURCE.read_text(), real, f"{st.st_size} {st.st_mtime_ns}", *_FLAGS,
                      _INCLUDE, _SUFFIX])
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


def _compile(name: str, tmp: str) -> None:
    """Build the extension module name from the source into tmp: cffi emits
    its C, which includes the source, and cc compiles it."""
    if not os.path.isfile(os.path.join(_INCLUDE, "Python.h")):
        raise ImportError(f"cannot find Python.h in {_INCLUDE}: building the compiled "
                          f"step needs the Python development headers")
    import cffi  # pycparser parses the declarations only here
    builder = cffi.FFI()
    builder.cdef(_SOURCE.read_text().split("/* --- declarations --- */")[1]
                 .split("/* --- end of declarations --- */")[0])
    # by name from -I, not from the emitted file's directory; the compiler's
    # messages then name the source's own lines
    builder.set_source(name, f"#include <{_SOURCE.name}>", compiler_verbose=False)
    emitted = f"{tmp}.c"
    cmd = [_CC, *_FLAGS, f"-I{_INCLUDE}", f"-I{_SOURCE.parent}", "-o", tmp, emitted, "-lm"]
    try:
        builder.emit_c_code(emitted)
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"cannot build the compiled step: {' '.join(cmd)}: {exc}") from exc
    finally:
        if os.path.exists(emitted):
            os.unlink(emitted)
    if proc.returncode != 0:
        raise ImportError(f"building the compiled step from {_SOURCE} failed "
                          f"(exit {proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")


def _build() -> Path:
    """The path of the compiled module, building it first if it is missing
    or is not this user's own."""
    cache = _cache_dir()
    name = f"_step_{_key()}"
    target = cache / f"{name}{_SUFFIX}"
    if (_atomic(target, functools.partial(_compile, name), 0o755)
            and cache == _SOURCE.parent / "__pycache__"):
        _prune(cache, target)
    return target


def _prune(cache: Path, keep: Path) -> None:
    """Delete this user's compiled steps of other hashes in the package's
    cache, and the libraries and emitted modules of the older ABI-mode
    build (``_step.<hash>.so`` and ``.py``).

    Only regular files that this user owns go (``lstat``: a symlink stays).
    The per-user temporary cache is never pruned: it serves every checkout
    of this user, so another checkout's module there may be loaded next.
    """
    ours = re.compile(rf"_step_[0-9a-f]{{16}}{re.escape(_SUFFIX)}|_step\.[0-9a-f]{{16}}\.(so|py)")
    for old in cache.iterdir():
        if old == keep or not ours.fullmatch(old.name):
            continue
        try:
            st = os.lstat(old)
            if stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid():
                old.unlink()
        except OSError:
            pass  # gone already, or not ours to delete


def _load(path: Path):
    """The extension module at path, by importlib (not put in sys.modules)."""
    name = path.name[: -len(_SUFFIX)]
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


_module = _load(_build())
ffi, lib = _module.ffi, _module.lib
# the chunk pool's helper runs code of the module: end it at exit
atexit.register(lib.dw_pool_stop)


_DOUBLES = ffi.typeof("double[]")
_PAIR = ffi.typeof("double[2]")
_STATUS = ffi.typeof("dw_status *")
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


def check_cells(v, u) -> None:
    """Raise ValueError unless v and u are float64 rows of one size, as a step reads them."""
    if v.dtype != _FLOAT64 or u.dtype != _FLOAT64 or u.size != v.size:
        raise ValueError(f"the cells must be float64 rows of one size, not "
                         f"{v.dtype} {v.shape} and {u.dtype} {u.shape}")


def step(closure, v, u, dt: float, dx: float, cells=None):
    """One transport step of dt with the built-in closure on the contiguous
    float64 cells (v, u) of width dx: (ok, st, successor).

    ``ok`` is 1 when every check of the step passed (``_step.c``), else 0;
    the ``dw_status`` ``st`` holds the window ``st.lo`` .. ``st.hi`` and,
    when ``ok``, the largest face speed ``st.speed_bound`` and |u|
    ``st.u_max``; ``successor`` is (v, u, pv, pu), its rows and pointers to
    them, which lend their pointers while v and u are still those rows when
    passed back in as ``cells``.  Each call makes its own rows, status and
    scratch, so concurrent steps share nothing but the chunk pool, which one
    step holds at a time.  Raises ValueError for a closure that is not built
    in, MemoryError when C cannot allocate its scratch.
    """
    builtin = closure.builtin
    if builtin is None:
        raise ValueError(f"the compiled step takes a built-in closure, not {closure.name!r}")
    n = v.size
    if cells is not None and cells[0] is v and cells[1] is u:
        pv, pu = cells[2], cells[3]
    else:
        check_cells(v, u)  # C reads n doubles of each
        pv, pu = _ptr(v), _ptr(u)  # raises unless contiguous
    rows = np.empty((2, n))
    out = _ptr(rows)
    st = ffi.new(_STATUS)
    ok = lib.dw_step(n, pv, pu, *builtin, closure.alpha, dt, dx, out, st)
    if ok < 0:
        raise MemoryError("cannot allocate the transport step's scratch")
    return ok, st, (rows[0], rows[1], out, out + n)


def flux_and_speed(closure, v, u):
    """(flux, speed) of the built-in closure (``ModelClosure.builtin``) at
    the 1-D states (v, u), by the built-in step's own C evaluators
    (``dw_flux_and_speed``): the bits of ``closures.face_combine`` on the
    closure's callables.

    Returns None when a discriminant is not >= 0 (NaN included).
    """
    v, u = as_pair(v, u)
    flux, speed = np.empty_like(v), np.empty_like(v)
    ok = lib.dw_flux_and_speed(v.size, *closure.builtin, _ptr(v), _ptr(u), _ptr(flux),
                               _ptr(speed))
    return (flux, speed) if ok else None


def damping(h: float):
    """(e^-h, sinh(h)/h) by the package's exp (``dw_damping``): a step's
    damping factor and its mean over the step, for h = alpha dt / 2."""
    out = ffi.new(_PAIR)
    lib.dw_damping(h, out, out + 1)
    return out[0], out[1]


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
    # a contiguous float64 row, as the NumPy step hands in, goes in as it is
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


def hermite(xi, coef, lo: float, hi: float, h: float, below: float, above: float):
    """The cubic Hermite interpolant of the coefficients coef, (4, cells)
    contiguous float64 in powers of each cell's local coordinate, on the
    uniform grid lo, lo + h, ..., hi, at xi (``dw_hermite``): below at a
    point under lo, above at one over hi, NaN at NaN.  Returns xi's shape; a
    scalar gives a float."""
    x = np.asarray(xi, dtype=float)
    row = np.ascontiguousarray(x)
    out = np.empty(row.shape)
    lib.dw_hermite(row.size, _ptr(row), coef.shape[1], _ptr(coef), lo, hi, h, below, above,
                   _ptr(out))
    return out.item() if x.ndim == 0 else out
