"""Build-on-demand loader for the native hardware automata.

``repro.hardware.cache`` asks this module for the compiled ``_cachesim``
extension (see ``_cachesim.c``), and every cache, TLB, branch predictor,
processor and execution context builds its state from it.  The extension is
*required*: :func:`load_native` returns the module or raises
``ImportError`` whose message is the :func:`load_status` string -- a missing
C compiler, a failing compile or an unloadable build is reported, never
worked around.

The extension is compiled lazily, once, with the interpreter's own
headers, ``$CC`` (default ``cc``) and ``-O2`` followed by ``$CFLAGS``.  The
build is keyed by a hash of the C source, the compiler and the flags:
editing ``_cachesim.c`` or changing the toolchain invalidates previously
built artifacts, so neither a stale ``.so`` nor one built for another
purpose (a sanitizer run, say) can masquerade as the current automaton.
Build products land next to the source when the checkout is writable (the
common dev case) or in a per-key temp directory otherwise; both locations
are tried for loading.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from typing import Optional, Tuple

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cachesim.c")

_STALE = "unavailable: stale or unloadable build"  # compiled, would not load


def _toolchain() -> Tuple[str, Tuple[str, ...]]:
    """``(compiler, extra flags)`` from ``$CC`` / ``$CFLAGS``."""
    return (os.environ.get("CC", "cc"),
            tuple(shlex.split(os.environ.get("CFLAGS", ""))))


def _build_key() -> str:
    compiler, flags = _toolchain()
    digest = hashlib.sha1()
    with open(_SOURCE, "rb") as handle:
        digest.update(handle.read())
    digest.update(repr((compiler, flags)).encode())
    return digest.hexdigest()[:16]


def _load_from(path: str, expected_key: str) -> Optional[object]:
    try:
        with open(path, "rb") as handle:
            # The key is compiled in as a string constant.  Checking the file
            # keeps a stale build from being imported at all: the interpreter
            # caches an extension by path, so once loaded it would shadow the
            # rebuilt file for the rest of the process.
            if expected_key.encode() not in handle.read():
                return None
        spec = importlib.util.spec_from_file_location("repro.hardware._cachesim", path)
        if spec is None or spec.loader is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:
        return None
    if getattr(module, "source_hash", "") != expected_key:
        return None
    return module


def _compile_into(directory: str, key: str) -> Tuple[Optional[str], str]:
    """Build into ``directory``; returns ``(path or None, failure status)``."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = os.path.join(directory, f"_cachesim{suffix}")
    include = sysconfig.get_paths()["include"]
    compiler, flags = _toolchain()
    scratch = target + f".build-{os.getpid()}"
    command = [compiler, "-O2", *flags, "-fPIC", "-shared",
               f"-DCACHESIM_SOURCE_HASH=\"{key}\"",
               f"-I{include}", _SOURCE, "-o", scratch, "-lm"]
    try:
        os.makedirs(directory, exist_ok=True)
        subprocess.run(command, check=True, capture_output=True, timeout=300)
        os.replace(scratch, target)  # atomic: concurrent builders race safely
        return target, ""
    except FileNotFoundError:
        status = f"unavailable: no C compiler ({compiler})"
    except subprocess.CalledProcessError as error:
        stderr = error.stderr.decode(errors="replace").strip().splitlines()
        status = "unavailable: compile failed: " + (stderr[0] if stderr else
                                                    f"exit {error.returncode}")
    except (OSError, subprocess.TimeoutExpired) as error:
        status = f"unavailable: compile failed: {error}"
    try:
        os.remove(scratch)
    except OSError:
        pass
    return None, status


@functools.lru_cache(maxsize=None)
def _load() -> Tuple[Optional[object], str]:
    """``(module or None, status)``; runs once per process."""
    try:
        key = _build_key()
    except OSError as error:
        return None, f"unavailable: source not readable: {error}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    package_dir = os.path.dirname(_SOURCE)
    temp_dir = os.path.join(
        tempfile.gettempdir(),
        f"repro-cachesim-{key}-py{sys.version_info[0]}{sys.version_info[1]}")
    for directory in (package_dir, temp_dir):
        module = _load_from(os.path.join(directory, f"_cachesim{suffix}"), key)
        if module is not None:
            return module, "loaded"
    build_dir = package_dir if os.access(package_dir, os.W_OK) else temp_dir
    built, failure = _compile_into(build_dir, key)
    if built is None:
        return None, failure
    module = _load_from(built, key)
    if module is None:
        return None, _STALE
    return module, "loaded"


def load_native() -> object:
    """Return the compiled ``_cachesim`` module, building it if needed;
    ``ImportError`` carrying :func:`load_status` when it cannot be had."""
    module, status = _load()
    if module is None:
        raise ImportError(status)
    return module


def load_status() -> str:
    """What loading the extension came to: ``"loaded"``,
    ``"unavailable: no C compiler (cc)"``, ``"unavailable: compile failed:
    <first line of stderr>"`` or ``"unavailable: stale or unloadable
    build"``."""
    return _load()[1]


def stats_view(base: type) -> type:
    """A subclass of the statistics dataclass ``base`` whose fields are the
    same-named members of a native state object.

    The C automaton counts its own events, so an automaton has one set of
    statistics and ``wrapper.stats`` is this view of it:
    every field read presents the C value, every field assignment lands in
    C, and the derived properties and ``as_dict`` of ``base`` work
    unchanged on top.  Per-port fields read as tuples, so an item assignment
    into one raises instead of updating a copy.  ``reset()`` zeroes the
    members; equality is by value, against views and plain instances alike.
    """
    def field(name: str) -> property:
        return property(lambda self: getattr(self._state, name),
                        lambda self, value: setattr(self._state, name, value))

    def bind(self, state) -> None:
        self.__dict__["_state"] = state

    def equal(self, other):
        if not isinstance(other, base):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    namespace = {spec.name: field(spec.name) for spec in dataclasses.fields(base)}
    namespace.update(__init__=bind, reset=base.__init__, __eq__=equal,
                     __hash__=None, __doc__=f"Native view of {base.__name__}.")
    return type("Native" + base.__name__, (base,), namespace)
