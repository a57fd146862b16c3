"""Building the compiled step: the cache location, its ownership checks and
the build error."""

import os
import stat
import tempfile

import pytest

from diffwave import _kernel


@pytest.fixture
def user_cache(monkeypatch, tmp_path):
    """The per-user cache in tmp_path, with the package's __pycache__ unwritable."""
    cache = _kernel._SOURCE.parent / "__pycache__"
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


def test_cache_key_follows_the_compiler_version(monkeypatch):
    key = _kernel._key()
    real_run = _kernel._run

    def other_compiler(cmd):
        proc = real_run(cmd)
        if cmd[1:] == ["--version"]:
            proc.stdout += "a different build\n"
        return proc

    monkeypatch.setattr(_kernel, "_run", other_compiler)
    assert _kernel._key() != key


def _stale(directory, name):
    path = directory / name
    path.write_bytes(b"\x7fELF stale")
    return path


def test_build_prunes_own_stale_libraries_from_the_package_cache(monkeypatch, tmp_path):
    source = tmp_path / "_step.c"
    source.write_text(_kernel._SOURCE.read_text())
    monkeypatch.setattr(_kernel, "_SOURCE", source)
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    stale = _stale(cache, "_step.0123456789abcdef.so")
    kept = [_stale(cache, name) for name in ("_step.notahash.so", "other.so")]
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
    assert not stale.exists()
    assert all(os.path.lexists(path) for path in kept) and elsewhere.exists()


def test_temporary_cache_is_not_pruned(user_cache):
    user_cache.mkdir(mode=0o700)
    other_checkout = _stale(user_cache, "_step.0123456789abcdef.so")
    lib = _kernel._build()
    assert lib.parent == user_cache and other_checkout.exists()
