"""Building the compiled step: the cache location, its ownership checks and
the build error."""

import os
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from diffwave import _kernel


@pytest.fixture
def one_line_source(monkeypatch, tmp_path):
    """A one-line _step.c in tmp_path/src: the cache's checks do not depend on
    what it compiles, and this builds in a moment."""
    source = tmp_path / "src" / "_step.c"
    source.parent.mkdir()
    source.write_text("int dw_one_line(void) { return 1; }\n")
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


def test_unwritable_cache_builds_in_a_private_temporary_directory(user_cache):
    lib = _kernel._build()
    assert lib.parent == user_cache and lib.name.startswith("_step.") and _is_library(lib)
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
    target = user_cache / f"_step.{_kernel._key()}.so"
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
    broken.write_text("int broken(void) { return missing_name; }\n")
    monkeypatch.setattr(_kernel, "_SOURCE", broken)
    with pytest.raises(ImportError) as err:
        _kernel._build()
    message = str(err.value)
    assert f"{_kernel._CC} -O3 -ffp-contract=off -fno-math-errno" in message
    assert str(broken) in message and "missing_name" in message
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == []


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


def _stale(directory, name):
    path = directory / name
    path.write_bytes(b"\x7fELF stale")
    return path


def test_build_prunes_own_stale_libraries_from_the_package_cache(tmp_path, one_line_source):
    cache = one_line_source.parent / "__pycache__"
    cache.mkdir()
    stale = _stale(cache, "_step.0123456789abcdef.so")
    stale_module = _stale(cache, "_step.0123456789abcdef.py")
    kept = [_stale(cache, name) for name in ("_step.notahash.so", "other.so", "other.py")]
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
    assert not stale.exists() and not stale_module.exists()
    assert all(os.path.lexists(path) for path in kept) and elsewhere.exists()


def test_temporary_cache_is_not_pruned(user_cache):
    user_cache.mkdir(mode=0o700)
    other_checkout = _stale(user_cache, "_step.0123456789abcdef.so")
    lib = _kernel._build()
    assert lib.parent == user_cache and other_checkout.exists()


def test_warm_import_loads_no_c_parser():
    """With the library and its emitted module cached, importing the command
    line starts no process and leaves cffi's parser out."""
    src = str(Path(_kernel.__file__).parents[1])
    code = (
        "import sys\n"
        "spawned = []\n"
        "def hook(event, args):\n"
        "    if event in ('subprocess.Popen', 'os.posix_spawn', 'os.fork', 'os.exec'):\n"
        "        spawned.append((event, repr(args)[:80]))\n"
        "sys.addaudithook(hook)\n"
        "import diffwave.cli\n"
        "print(sorted({'cffi', 'pycparser'} & set(sys.modules)), spawned)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "[] []", (proc.stdout, proc.stderr)


@pytest.mark.parametrize("spoil", [_foreign_owner, _group_writable, _symlink_to_planted])
def test_planted_module_is_emitted_again_not_loaded(tmp_path, spoil):
    module = tmp_path / "_step.0123456789abcdef.py"
    module.write_text("raise SystemExit('planted')\n")
    spoil(module)
    ffi = _kernel._emitted_ffi(module)
    assert ffi.sizeof("dw_status") == _kernel.ffi.sizeof("dw_status")
    assert _kernel._private(module) and "planted" not in module.read_text()
    assert [p.name for p in tmp_path.iterdir() if p.name != "planted"] == [module.name]


def test_emitted_module_is_reused():
    module = _kernel._library.with_suffix(".py")
    stamp = module.stat().st_mtime_ns
    assert _kernel._emitted_ffi(module).sizeof("dw_status") == _kernel.ffi.sizeof("dw_status")
    assert module.stat().st_mtime_ns == stamp


def test_failed_emission_leaves_no_temporary(monkeypatch, tmp_path):
    import cffi

    def full_disk(self, path):
        Path(path).write_text("partial")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cffi.FFI, "emit_python_code", full_disk)
    with pytest.raises(OSError, match="No space left"):
        _kernel._emitted_ffi(tmp_path / "_step.0123456789abcdef.py")
    assert list(tmp_path.iterdir()) == []


def test_baseline_build_gives_the_loaded_librarys_bits(monkeypatch, tmp_path):
    """A copy of _step.c with no target clones (the baseline x86-64 code,
    whose fma is the C library's) against the loaded library, which runs its
    AVX2 or AVX-512 clones: pow, exp, the damping scalars and the gamma step
    give the same bits, as explicit fused multiply-adds round once in both."""
    text = _kernel._SOURCE.read_text()
    start, end = text.index("#if defined(__x86_64__)"), text.index("#endif", text.index("CLONED"))
    source = tmp_path / "_step.c"
    source.write_text(text[:start] + "#define CLONED\n#define POW_CLONED\n" + text[end + 6:])
    assert "target_clones" not in source.read_text()
    monkeypatch.setattr(_kernel, "_SOURCE", source)
    path = _kernel._build()
    baseline = _kernel.ffi.dlopen(str(path))
    try:
        _compare_libraries(baseline)
    finally:
        baseline.dw_pool_stop()


def _compare_libraries(baseline):
    loaded, ptr = _kernel.lib, _kernel._ptr
    rng = np.random.default_rng(3)
    v = np.concatenate([rng.uniform(0.05, 20.0, 3000), rng.uniform(0.9, 1.2, 3000),
                        [1.0, 0.0, -1.0, np.inf, np.nan, 5e-324]])
    x = np.concatenate([rng.uniform(-700.0, 700.0, 300), rng.uniform(-1.0, 1.0, 300)])

    def run(lib, fn, *args, arg):
        out = np.empty_like(arg)
        getattr(lib, fn)(arg.size, ptr(arg), *args, ptr(out))
        return out.view(np.uint64)

    for gamma in (1.0, 1.4, 2.0):
        for order in (0, 1, 4):
            args = (-gamma, order, 1.0)
            assert np.array_equal(run(loaded, "dw_pow", *args, arg=v),
                                  run(baseline, "dw_pow", *args, arg=v))
    out = _kernel.ffi.new("double[4]")
    for h in (*x, 0.0, 1e-3, 0.2, 0.5, 0.9, 7.0):  # e^-h over exp's range, and kappa
        loaded.dw_damping(h, out, out + 1)
        baseline.dw_damping(h, out + 2, out + 3)
        assert list(out[0:2]) == list(out[2:4])

    from test_step_oracle import GAMMA2, _step_raw, _wavy

    wave_v, wave_u = _wavy(1400)
    for one_chunk in (0, 1):
        want = _step_raw(wave_v, wave_u, one_chunk, GAMMA2)
        got = _step_raw(wave_v, wave_u, one_chunk, GAMMA2, lib=baseline)
        assert want[0] == got[0] and np.array_equal(want[1].view(np.uint64),
                                                    got[1].view(np.uint64))
