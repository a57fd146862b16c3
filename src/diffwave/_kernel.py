"""The compiled transport step: ``_step.c``, built once and loaded with cffi.

The system C compiler builds the library on the first import into the
package's ``__pycache__/``.  When that directory is not writable, or not this
user's own, the library goes to ``diffwave-<uid>/`` in the temporary
directory, made with mode 0o700.  A cache directory, and a library in it, is
used only when it belongs to this user and no one else can write it: a
shared cache directory raises ImportError, and a library that fails the
check is rebuilt over.  The file name carries a hash of the source, of the
compiler's ``--version`` output and of the flags, and the file appears by
atomic rename, so an edited source or a new compiler rebuilds and
concurrent first imports are harmless.  A failed build raises ImportError
with the compiler command and its stderr.

The wrappers take and return NumPy arrays of float64; every input goes
through ``np.ascontiguousarray(x, dtype=float)`` (``as_pair``).
``solver.step`` calls the three stages and, between them, the closure on the
named rows of ``edges`` (``_step.c`` says what each stage does).
"""

from __future__ import annotations

import hashlib
import os
import stat
import subprocess
import tempfile
from collections import namedtuple
from pathlib import Path

import cffi
import numpy as np

_SOURCE = Path(__file__).with_name("_step.c")
_CC = "cc"
# -ffp-contract=off: a fused multiply-add rounds once where NumPy rounds twice,
# so contraction changes bits.  -fno-math-errno lets sqrt compile to one
# instruction.  Never -ffast-math, which drops IEEE semantics, nor
# -march=native, which ties the cached library to the building CPU.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

# the declarations block of the source is the cdef
_CDEF = _SOURCE.read_text().split("/* --- declarations --- */")[1].split(
    "/* --- end of declarations --- */"
)[0]


def _run(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"cannot run the C compiler: {' '.join(cmd)}: {exc}") from exc


def _key() -> str:
    """The hash of the source, the compiler's version and the flags."""
    version = _run([_CC, "--version"]).stdout
    text = "\0".join([_SOURCE.read_text(), _CC, version, *_FLAGS])
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


def _build() -> Path:
    """The path of the compiled library, building it first if it is missing
    or is not this user's own."""
    cache = _cache_dir()
    target = cache / f"_step.{_key()}.so"
    try:
        if _private(target):
            return target
    except FileNotFoundError:
        pass
    fd, tmp = tempfile.mkstemp(prefix="_step.", suffix=".so.tmp", dir=cache)
    os.close(fd)
    cmd = [_CC, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"]
    try:
        proc = _run(cmd)
    except ImportError:
        os.unlink(tmp)
        raise
    if proc.returncode != 0:
        os.unlink(tmp)
        raise ImportError(
            f"building the compiled step failed (exit {proc.returncode}): "
            f"{' '.join(cmd)}\n{proc.stderr}"
        )
    # the linker creates the file under the umask; no one else may write it
    os.chmod(tmp, 0o755)
    os.replace(tmp, target)
    return target


ffi = cffi.FFI()
ffi.cdef(_CDEF)
lib = ffi.dlopen(str(_build()))


_DOUBLES = ffi.typeof("double[]")


def _ptr(a):
    return ffi.from_buffer(_DOUBLES, a)


def as_pair(v, u):
    """v and u as contiguous float64 arrays of one shape, as the kernel reads them."""
    v, u = np.ascontiguousarray(v, dtype=float), np.ascontiguousarray(u, dtype=float)
    if v.shape != u.shape:
        raise ValueError(f"v and u differ in shape: {v.shape} vs {u.shape}")
    return v, u


def minmod(d):
    """Minmod slopes of the adjacent difference pairs of the 1-D array d."""
    d = np.ascontiguousarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"minmod takes one row, not shape {d.shape}")
    out = np.empty(max(d.size - 1, 0))
    lib.dw_minmod(d.size, _ptr(d), _ptr(out))
    return out


# Views of a step buffer's rows over the window's m + 2 edge positions, each
# bound to the row of ``_step.c``'s enum of the same name: the edge values
# vl, ul, vr, ur; the momentum flux mf_l, mf_r there; and the momentum flux
# and wave speed fu_l, a_l and fu_r, a_r of face k's left state (vr, ur)[k]
# and right state (vl, ul)[k + 1], for the m + 1 faces k.
Rows = namedtuple("Rows", "vl ul vr ur mf_l mf_r fu_l a_l fu_r a_r")
_ROWS = tuple(getattr(lib, name.upper()) for name in Rows._fields)


def edges(v, u, half_damp: float):
    """Stage 1 on the rows of ``as_pair``: (lo, hi, buf, rows), the window
    lo .. hi-1, the step's buffer and its named ``Rows``.

    The edge rows hold their values; on the callable path the caller fills
    the momentum-flux and face rows before ``predict`` and ``update``.
    """
    n = v.size
    buf = np.empty((lib.N_ROWS, n + 4))
    window = ffi.new("int64_t[2]")
    lib.dw_edges(n, _ptr(v), _ptr(u), half_damp, window, _ptr(buf), n + 4)
    lo, hi = window[0], window[1]
    width = hi - lo + 2
    rows = Rows._make(buf[r, :width] for r in _ROWS)
    return lo, hi, buf, rows


def predict(buf, m: int, lam: float, m1: bool) -> int:
    """Stage 2, in place on ``buf``; the first face with v <= 0 to report, or -1."""
    return lib.dw_predict(m, lam, m1, _ptr(buf), buf.shape[1])


def update(v, u, lo, hi, half_damp, dt_dx, half_kappa, m1, buf):
    """Stage 3: (rows, status), the successor's (v, u) rows and its checks."""
    n = v.size
    rows = np.empty((2, n))
    st = ffi.new("dw_status *")
    lib.dw_update(n, lo, hi, _ptr(v), _ptr(u), half_damp, dt_dx, half_kappa, m1,
                  _ptr(buf), buf.shape[1], _ptr(rows), st)
    return rows, st


def m1_momentum_flux(v, u):
    """p(v) - g(u) f(v) of the built-in m1 closure, as the step evaluates it."""
    v, u = as_pair(v, u)
    out = np.empty_like(v)
    lib.dw_m1_momentum_flux(v.size, _ptr(v), _ptr(u), _ptr(out))
    return out


def m1_flux_and_speed(v, u):
    """(flux, speed) of the built-in m1 closure, as the step evaluates them.

    Returns None when a discriminant is not >= 0 (NaN included), where
    ``closures.flux_and_speed`` raises HyperbolicityError.
    """
    v, u = as_pair(v, u)
    flux, speed = np.empty_like(v), np.empty_like(v)
    if lib.dw_m1_flux_and_speed(v.size, _ptr(v), _ptr(u), _ptr(flux), _ptr(speed)):
        return flux, speed
    return None
