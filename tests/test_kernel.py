"""Building the compiled step: the cache location, its ownership checks, the
build error and the extension module it loads."""

import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from diffwave import _kernel


# a source with its own declarations block, which the build hands to cffi
ONE_LINE = """/* --- declarations --- */
int dw_one_line(void);
/* --- end of declarations --- */
int dw_one_line(void) { return 1; }
"""


@pytest.fixture
def one_line_source(monkeypatch, tmp_path):
    """A one-function _step.c in tmp_path/src: the cache's checks do not
    depend on what it compiles, and this builds in a moment."""
    source = tmp_path / "src" / "_step.c"
    source.parent.mkdir()
    source.write_text(ONE_LINE)
    monkeypatch.setattr(_kernel, "_SOURCE", source)
    return source


@pytest.fixture
def user_cache(monkeypatch, tmp_path, one_line_source):
    """The per-user cache in tmp_path, with the source's __pycache__ unwritable."""
    cache = one_line_source.parent / "__pycache__"
    real_access = os.access
    monkeypatch.setattr(
        os, "access", lambda p, mode: False if p == cache else real_access(p, mode)
    )
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
    return tmp_path / f"diffwave-{os.getuid()}"


def _is_library(path):
    return path.read_bytes()[:4] == b"\x7fELF"


def _module_name(key):
    return f"_step_{key}{_kernel._SUFFIX}"


def test_unwritable_cache_builds_in_a_private_temporary_directory(user_cache):
    lib = _kernel._build()
    assert lib.parent == user_cache and lib.name == _module_name(_kernel._key())
    assert _is_library(lib) and _kernel._load(lib).lib.dw_one_line() == 1
    assert stat.S_IMODE(user_cache.stat().st_mode) == 0o700
    assert [p.name for p in user_cache.iterdir()] == [lib.name]  # no temporary left
    assert _kernel._build() == lib  # the second call finds it


def _foreign_owner(path):
    if os.getuid() != 0:
        pytest.skip("only root can give a file to another user")
    os.chown(path, os.getuid() + 1, -1)


def _group_writable(path):
    path.chmod(0o775)


def _symlink_to_planted(path):
    planted = path.with_name("planted")
    path.rename(planted)
    path.symlink_to(planted)


@pytest.mark.parametrize("spoil", [_foreign_owner, _group_writable, _symlink_to_planted])
def test_planted_library_is_rebuilt_not_loaded(user_cache, spoil):
    user_cache.mkdir(mode=0o700)
    target = user_cache / _module_name(_kernel._key())
    target.write_bytes(b"planted")
    spoil(target)
    assert _kernel._build() == target
    assert _is_library(target) and _kernel._private(target)


def _shared(path):
    path.mkdir()
    path.chmod(0o777)


def _symlinked(path):
    (path.parent / "elsewhere").mkdir(mode=0o700)
    path.symlink_to(path.parent / "elsewhere")


def _foreign_dir(path):
    path.mkdir(mode=0o700)
    _foreign_owner(path)


@pytest.mark.parametrize("make", [_shared, _symlinked, _foreign_dir])
def test_cache_directory_others_can_write_is_refused(user_cache, make):
    make(user_cache)
    with pytest.raises(ImportError, match="only this user can write"):
        _kernel._build()
    assert not list(user_cache.glob("_step.*"))


def test_failed_build_names_the_command_and_its_stderr(monkeypatch, tmp_path):
    broken = tmp_path / "_step.c"
    broken.write_text(ONE_LINE.replace("return 1;", "return missing_name;"))
    monkeypatch.setattr(_kernel, "_SOURCE", broken)
    with pytest.raises(ImportError) as err:
        _kernel._build()
    message = str(err.value)
    assert f"{_kernel._CC} -O3 -ffp-contract=off -fno-math-errno" in message
    assert str(broken) in message and "missing_name" in message
    assert f"-I{_kernel._INCLUDE}" in message
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == []  # nor the emitted C


def test_missing_python_headers_name_the_directory(monkeypatch, tmp_path, one_line_source):
    monkeypatch.setattr(_kernel, "_INCLUDE", str(tmp_path / "include"))
    with pytest.raises(ImportError, match=f"cannot find Python.h in {tmp_path / 'include'}"):
        _kernel._build()
    assert [p.name for p in (one_line_source.parent / "__pycache__").iterdir()] == []


def test_cache_key_follows_the_compiler_version(monkeypatch, tmp_path):
    key = _kernel._key()
    assert _kernel._key() == key
    wrapper = tmp_path / "cc"
    wrapper.write_text(f'#!/bin/sh\nexec {shutil.which(_kernel._CC)} "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    wrapped = _kernel._key()
    assert wrapped != key and _kernel._key() == wrapped
    st = wrapper.stat()
    os.utime(wrapper, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert _kernel._key() not in (key, wrapped)
    monkeypatch.setenv("PATH", str(tmp_path / "nowhere"))
    with pytest.raises(ImportError, match="'cc' on PATH"):
        _kernel._key()


@pytest.mark.parametrize("name, other", [("_INCLUDE", "/elsewhere/include/python3.99"),
                                         ("_SUFFIX", ".cpython-399-x86_64-linux-gnu.so")])
def test_cache_key_follows_the_interpreter(monkeypatch, name, other):
    """Another interpreter's headers or extension suffix build their own module."""
    key = _kernel._key()
    monkeypatch.setattr(_kernel, name, other)
    assert _kernel._key() != key


def _stale(directory, name):
    path = directory / name
    path.write_bytes(b"\x7fELF stale")
    return path


def test_build_prunes_own_stale_libraries_from_the_package_cache(tmp_path, one_line_source):
    """Other hashes' modules go, and so do the ABI-mode build's libraries
    and emitted modules; another interpreter's modules stay."""
    cache = one_line_source.parent / "__pycache__"
    cache.mkdir()
    stale = [_stale(cache, name) for name in (_module_name("0123456789abcdef"),
                                              "_step.0123456789abcdef.so",
                                              "_step.0123456789abcdef.py")]
    kept = [_stale(cache, name) for name in ("_step.notahash.so", "other.so", "other.py",
                                             "_step_0123456789abcdef.cpython-399-x.so")]
    elsewhere = _stale(tmp_path, "_step.fedcba9876543210.so")
    link = cache / elsewhere.name
    link.symlink_to(elsewhere)
    kept.append(link)
    if os.getuid() == 0:
        foreign = _stale(cache, "_step.00000000000000ff.so")
        os.chown(foreign, os.getuid() + 1, -1)
        kept.append(foreign)
    lib = _kernel._build()
    assert lib.parent == cache and _is_library(lib)
    assert not any(path.exists() for path in stale)
    assert all(os.path.lexists(path) for path in kept) and elsewhere.exists()


def test_temporary_cache_is_not_pruned(user_cache):
    user_cache.mkdir(mode=0o700)
    other_checkout = _stale(user_cache, _module_name("0123456789abcdef"))
    lib = _kernel._build()
    assert lib.parent == user_cache and other_checkout.exists()


def test_warm_import_loads_no_c_parser():
    """With the compiled module cached, importing the command line starts no
    process and leaves cffi's parser and numpy.ma out."""
    src = str(Path(_kernel.__file__).parents[1])
    code = (
        "import sys\n"
        "spawned = []\n"
        "def hook(event, args):\n"
        "    if event in ('subprocess.Popen', 'os.posix_spawn', 'os.fork', 'os.exec'):\n"
        "        spawned.append((event, repr(args)[:80]))\n"
        "sys.addaudithook(hook)\n"
        "import diffwave.cli\n"
        "print(sorted({'cffi', 'pycparser', 'numpy.ma'} & set(sys.modules)), spawned)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "[] []", (proc.stdout, proc.stderr)


@pytest.mark.parametrize("spoil", [_foreign_owner, _group_writable, _symlink_to_planted])
def test_planted_module_is_emitted_again_not_loaded(user_cache, spoil):
    """A planted file where the module belongs is never imported: cffi emits
    the module's C again, and the rebuilt module loads and runs."""
    user_cache.mkdir(mode=0o700)
    target = user_cache / _module_name(_kernel._key())
    target.write_text("raise SystemExit('planted')\n")
    spoil(target)
    module = _kernel._load(_kernel._build())
    assert module.lib.dw_one_line() == 1 and module.__file__ == str(target)
    assert _kernel._private(target) and _is_library(target)
    assert [p.name for p in user_cache.iterdir() if p.name != "planted"] == [target.name]


def test_emitted_module_is_reused():
    """The loaded step is the module of today's key, and a second build finds
    it without compiling."""
    path = _kernel._build()
    assert _kernel._module.__file__ == str(path) and path.name == _module_name(_kernel._key())
    stamp = path.stat().st_mtime_ns
    assert _kernel._build() == path and path.stat().st_mtime_ns == stamp


def test_failed_emission_leaves_no_temporary(monkeypatch, user_cache):
    import cffi

    def full_disk(self, path):
        Path(path).write_text("partial")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cffi.FFI, "emit_c_code", full_disk)
    with pytest.raises(ImportError, match="No space left"):
        _kernel._build()
    assert list(user_cache.iterdir()) == []


def test_source_compiles_with_every_warning_an_error():
    """_step.c alone under -Wall -Wextra -Werror: a static evaluator left
    unused, or any new warning, fails.  A full compile, not -fsyntax-only,
    under which GCC reports no unused static function."""
    cmd = [_kernel._CC, "-Wall", "-Wextra", "-Werror", "-c", "-o", os.devnull,
           str(_kernel._SOURCE)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_baseline_build_gives_the_loaded_librarys_bits(monkeypatch, tmp_path):
    """A copy of _step.c without its two x86-64 regions, so with no target
    clones and no AVX-512 m1 evaluators (the baseline x86-64 code, whose fma
    is the C library's, and the generic m1 pair), against the loaded library,
    which runs its AVX2 or AVX-512 clones and, on an AVX-512 CPU, the AVX-512
    m1 pair: pow (on ordinary rows and on rows with special values, which
    take its general path), exp, the damping scalars, the gamma and m1 steps
    and both face combines give the same bits, as explicit fused multiply-adds
    round once in both and the reciprocals round correctly."""
    text = _kernel._SOURCE.read_text()
    region = re.compile(r"/\* --- x86-64 --- \*/\n.*?/\* --- end of x86-64 --- \*/\n", re.S)
    assert len(region.findall(text)) == 2
    source = tmp_path / "_step.c"
    source.write_text("#define CLONED\n#define POW_CLONED\n" + region.sub("", text))
    assert not re.search("target|immintrin|_mm512", source.read_text())
    monkeypatch.setattr(_kernel, "_SOURCE", source)
    baseline = _kernel._load(_kernel._build())
    try:
        _compare_libraries(baseline)
    finally:
        baseline.lib.dw_pool_stop()


def _compare_libraries(module):
    loaded, baseline, ptr = _kernel.lib, module.lib, _kernel._ptr
    rng = np.random.default_rng(3)
    v = np.concatenate([rng.uniform(0.05, 20.0, 3000), rng.uniform(0.9, 1.2, 3000),
                        [1.0, 0.0, -1.0, np.inf, np.nan, 5e-324]])
    x = np.concatenate([rng.uniform(-700.0, 700.0, 300), rng.uniform(-1.0, 1.0, 300)])

    def run(lib, fn, *args, arg):
        out = np.empty_like(arg)
        getattr(lib, fn)(arg.size, ptr(arg), *args, ptr(out))
        return out.view(np.uint64)

    # v's special values send its row down pow's general path; the in-range
    # values alone are an ordinary row, which runs without those lanes
    ordinary = v[:6001]
    for gamma in (1.0, 1.4, 2.0):
        for order in (0, 1, 4):
            args = (-gamma, order, 1.0)
            for row in (v, ordinary):
                assert np.array_equal(run(loaded, "dw_pow", *args, arg=row),
                                      run(baseline, "dw_pow", *args, arg=row))
    out = _kernel.ffi.new("double[4]")  # a double * goes into either module
    for h in (*x, 0.0, 1e-3, 0.2, 0.5, 0.9, 7.0):  # e^-h over exp's range, and kappa
        loaded.dw_damping(h, out, out + 1)
        baseline.dw_damping(h, out + 2, out + 3)
        assert list(out[0:2]) == list(out[2:4])

    from test_step_oracle import GAMMA2, M1, U_SMALL, _step_raw, _wavy

    wave_v, wave_u = _wavy(1400)
    # m1 also where u falls past U_SMALL, so that the AVX-512 pair takes s = 2
    for closure, u in ((GAMMA2, wave_u), (M1, wave_u), (M1, wave_u * (4.0 * U_SMALL / 0.05))):
        want_status, want_rows = _step_raw(wave_v, u, closure)
        status, rows = _step_raw(wave_v, u, closure, module)
        assert status == want_status
        assert np.array_equal(want_rows.view(np.uint64), rows.view(np.uint64))

    # the m1 face combine in m1's box, |u| sorted down to 2^-40 so that whole
    # vectors take s = 2; the gamma face combine on the ordinary row, and on
    # the row with the special values, whose flag is clear
    face_u = rng.uniform(-0.99, 0.99, 6000) * np.exp2(rng.integers(-40, 1, 6000))
    face_v, face_u = v[:6000], face_u[np.argsort(np.abs(face_u))]
    for closure, sv, su, flag in ((M1, face_v, face_u, 1), (GAMMA2, face_v, face_u, 1),
                                  (GAMMA2, v, np.zeros_like(v), 0)):
        combined = []
        for lib in (loaded, baseline):
            rows = np.empty((2, sv.size))
            assert lib.dw_flux_and_speed(sv.size, *closure, ptr(sv), ptr(su), ptr(rows[0]),
                                         ptr(rows[1])) == flag
            combined.append(rows.view(np.uint64))
        assert np.array_equal(*combined)
