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
concurrent first imports are harmless.  A build into the package's
``__pycache__/`` deletes this user's libraries of other hashes there.  A
failed build raises ImportError with the compiler command and its stderr.

The wrappers take and return NumPy arrays of float64; every input goes
through ``np.ascontiguousarray(x, dtype=float)`` (``as_pair``, ``_row``).
``solver.step`` makes one ``Step`` per call.  With the built-in m1 closure
that is one C call, ``Step.m1``.  With any other closure it runs the three
stages and, between them, the closure's two rounds (``closure_round``) on
the rows of ``Step.edge_values``; ``_step.c`` says what each stage does.
"""

from __future__ import annotations

import hashlib
import os
import re
import stat
import subprocess
import tempfile
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
    if cache == _SOURCE.parent / "__pycache__":
        _prune(cache, target)
    return target


def _prune(cache: Path, keep: Path) -> None:
    """Delete this user's other compiled steps in the package's cache.

    Only regular files that this user owns go (``lstat``: a symlink stays).
    The per-user temporary cache is never pruned: it serves every checkout
    of this user, so another checkout's library there may be loaded next.
    """
    for old in cache.iterdir():
        if old == keep or not re.fullmatch(r"_step\.[0-9a-f]{16}\.so", old.name):
            continue
        try:
            st = os.lstat(old)
            if stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid():
                old.unlink()
        except OSError:
            pass  # gone already, or not ours to delete


ffi = cffi.FFI()
ffi.cdef(_CDEF)
lib = ffi.dlopen(str(_build()))


_DOUBLES = ffi.typeof("double[]")
_STATUS = ffi.typeof("dw_status *")


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


class Step:
    """One step's buffer, status and successor rows, passed from stage to stage.

    ``v`` and ``u`` are the rows of ``as_pair``.  Each step makes its own, so
    concurrent steps share nothing.  ``st`` is the ``dw_status``; ``rows``
    the successor's (v, u) once the step has run through.
    """

    def __init__(self, v, u):
        n = v.size
        self.buf = np.empty(lib.N_REGIONS * 2 * (n + 2))
        self.rows = np.empty((2, n))
        self.st = ffi.new(_STATUS)
        self._cells = (n, _ptr(v), _ptr(u))
        self._out = (_ptr(self.buf), _ptr(self.rows), self.st)

    def m1(self, half_damp, lam, dt_dx, half_kappa):
        """The whole step with the built-in m1 closure.

        ``st.thin_face >= 0`` stops it after the predictor.
        """
        lib.dw_step_m1(*self._cells, half_damp, lam, dt_dx, half_kappa, *self._out)

    def edges(self, half_damp):
        """Stage 1: the window ``st.lo`` .. ``st.hi - 1`` and its edge values."""
        lib.dw_edges(*self._cells, half_damp, self._out[0], self.st)

    def edge_values(self):
        """(v, u) at the window's 2 (m + 2) edge values: the left edge values
        of its cells and one cell a side, then their right edge values.

        The same rows without their first and last value are the 2 (m + 1)
        face states (``_step.c``), which the closure's second round takes.
        """
        s = self.st.hi - self.st.lo + 2
        return self.buf[: 2 * s], self.buf[2 * s: 4 * s]

    def face_states(self):
        """((v, u) of the left states, (v, u) of the right states) of the
        window's m + 1 faces: right and left edge values of the window."""
        edge_v, edge_u = self.edge_values()
        s = self.st.hi - self.st.lo + 2
        return (edge_v[s:-1], edge_u[s:-1]), (edge_v[1:s], edge_u[1:s])

    def predict(self, lam, terms):
        """Stage 2 with the first round's ``closure_round``; a face whose
        reconstructed v is <= 0 goes to ``st.thin_face``."""
        lib.dw_predict(lam, terms[0], terms[2], terms[4], self._out[0], self.st)

    def update(self, half_damp, dt_dx, half_kappa, terms):
        """Stage 3 with the second round's ``closure_round``."""
        lib.dw_update(*self._cells, half_damp, dt_dx, half_kappa, *terms, *self._out)


def face_combine(closure, v, u):
    """(flux, speed) of the closure at the states (v, u), as the step's second
    closure round and its face combine compute them.

    Returns None when a discriminant is not >= 0 (NaN included), where
    ``closures.flux_and_speed`` raises HyperbolicityError.
    """
    v, u = as_pair(v, u)
    v, u = v.ravel(), u.ravel()
    flux, speed = np.empty_like(v), np.empty_like(v)
    terms = closure_round(closure, v, u, True)
    if lib.dw_face_combine(v.size, *terms, _ptr(flux), _ptr(speed)):
        return flux, speed
    return None


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
