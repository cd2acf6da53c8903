"""Small shared I/O helpers: text artifacts, config trailers on binary
artifacts, float formatting, seeded generators, the magnitude bound on
loaded floats, worker counts and work forked across processes."""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import re
import signal
import struct
import sys

import numpy as np

from .errors import ConfigError, DataError, MetafewError

TRAILER_MAGIC = b"CFG1"

WORKERS_ENV = "METAFEW_WORKERS"

# Text artifacts are UTF-8 header lines, whose first non-blank character is
# `#`, and body lines. The patterns run over "\n" + text (a leading literal
# lets the regex engine scan for it).
_HEADER_LINE = re.compile(r"\n[^\S\n]*#(.*)")
_NON_BODY_LINE = re.compile(r"\n[^\S\n]*(?:#.*)?(?=\n|$)")


def header_text(lines) -> str:
    """Each line as a `# line` header line."""
    return "".join(f"# {line}\n" for line in lines)


def write_text(path, header, body: str) -> None:
    """Write `# line` header lines, then the body. A lone surrogate (an argument
    byte the locale could not decode) is written as the byte it stands for."""
    with open(path, "w", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        fh.write(header_text(header) + body)


def read_text(path) -> str:
    """A text artifact with universal newlines. Bytes that are not UTF-8,
    or a NUL, are a DataError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if "\0" in text:
        raise DataError(f"{path}: NUL byte in text")
    return text


def header_lines(text: str) -> list[str]:
    """What follows the `#` of each header line, stripped."""
    return [line.strip() for line in _HEADER_LINE.findall("\n" + text)]


def body_lines(text: str):
    """(line number, stripped line) of each line that is neither blank nor a
    header line."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not _NON_BODY_LINE.fullmatch("\n" + line):
            yield lineno, line.strip()


def body_text(text: str) -> str:
    """The body lines of text, in one regex pass for long bodies."""
    return _NON_BODY_LINE.sub("", "\n" + text)


@contextlib.contextmanager
def naming(path):
    """Put the path in front of an error raised inside the block."""
    try:
        yield
    except (MetafewError, OSError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def parse_field(where, name: str, text: str, parse):
    """parse(text), or a DataError naming where, the field and its text."""
    try:
        return parse(text)
    except (ValueError, OverflowError, DataError) as exc:
        raise DataError(f"{where}: bad {name} {text!r}: {exc}") from None


def write_config_trailer(fh, text: str) -> None:
    """Append an optional config block after a binary payload."""
    raw = text.encode("utf-8", "surrogateescape")
    fh.write(TRAILER_MAGIC)
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def read_config_trailer(blob: bytes, pos: int) -> str | None:
    """Parse the trailing config block, if present, at offset pos."""
    if pos == len(blob):
        return None
    if blob[pos:pos + 4] != TRAILER_MAGIC:
        raise DataError(f"unexpected {len(blob) - pos} trailing bytes")
    if pos + 8 > len(blob):
        raise DataError("truncated config trailer")
    (length,) = struct.unpack_from("<I", blob, pos + 4)
    raw = blob[pos + 8:pos + 8 + length]
    if len(raw) != length or pos + 8 + length != len(blob):
        raise DataError("truncated config trailer")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"config trailer is not UTF-8: {exc}") from None


def fmt_float(x: float) -> str:
    """Shortest exact round-trip decimal form."""
    return repr(float(x))


def stable_rng(*entropy: int) -> np.random.Generator:
    """Generator keyed by a tuple of nonnegative ints; reproducible across
    runs and independent of draw order elsewhere. A negative seed is a
    ConfigError."""
    keys = [int(e) for e in entropy]
    if any(key < 0 for key in keys):
        raise ConfigError(f"seed {min(keys)} is negative; seeds must be >= 0")
    return np.random.default_rng(np.random.SeedSequence(keys))


def magnitude_limit(width: int) -> float:
    """Largest magnitude a loaded float may have where `width` of them are
    summed in a squared distance or a product: the sum is at most
    4*width*M**2, and M <= sqrt(max_float / (8*width)) keeps that bound a
    factor of two below overflow for rounding (about 4.7e153 at width 1)."""
    return float(np.sqrt(np.finfo(np.float64).max / (8 * width)))


def default_workers() -> int:
    """How many processes `partition` and a fitted learner's `evaluate`
    split their work across: METAFEW_WORKERS, at least 1 and at most the
    CPUs this process may run on, or that CPU count when it is unset."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return min(max(1, int(env)), cpus)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV}={env!r} is not an integer") from None
    return cpus


@functools.cache
def openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy links, or
    None. Looked up on first use: a handle to numpy's core extension also
    finds the symbols of the libraries it links."""
    import ctypes
    core = (sys.modules.get("numpy._core._multiarray_umath")  # numpy >= 2
            or sys.modules["numpy.core._multiarray_umath"])
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
        get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
        if get and put:
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


def _fork(fn, part):
    """Run fn(part) in a forked child: (pid, read end of its pipe), or None
    when no pipe or child can be made, or the platform cannot fork.

    The child writes one pickled (True, result) or (False, exception) and
    leaves through os._exit on every path, so it never returns into the
    caller or flushes the parent's stdio. It writes nothing when the result
    cannot be pickled and rebuilt, and then exits 1."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except (AttributeError, OSError):  # a platform without fork, or no child
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = (True, fn(part))
            except Exception as exc:
                result = (False, exc)
            blob = pickle.dumps(result)
            pickle.loads(blob)
            with open(write_fd, "wb") as fh:
                fh.write(blob)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def fork_map(fn, items, workers: int) -> list:
    """The lists fn returns for min(workers, len(items)) contiguous parts of
    items (at least one), concatenated. Part 0 runs here, every other part
    in a forked child; until the children are reaped, OpenBLAS runs one
    thread per process if that can be set (more threads than CPUs fight).
    The first failing part's exception is raised, as a serial loop would
    raise it. A part whose child could not start, or died, runs here. Call
    it only from a process without other running threads: a child copies
    their locks but not the threads."""
    count = max(1, min(workers, len(items)))
    bounds = [len(items) * i // count for i in range(count + 1)]
    parts = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    blas = count > 1 and openblas_threads()
    if blas:
        threads = blas[0]()
        blas[1](1)
    children = {}
    try:
        for i, part in enumerate(parts[1:], start=1):
            child = _fork(fn, part)
            if child is not None:
                children[i] = child
        out = list(fn(parts[0]))
        for i, part in enumerate(parts[1:], start=1):
            result = None
            if i in children:
                pid, read_fd = children[i]
                with open(read_fd, "rb", closefd=False) as fh:
                    blob = fh.read()
                _, status = os.waitpid(pid, 0)
                os.close(children.pop(i)[1])
                if status == 0:
                    result = pickle.loads(blob)
            ok, value = result or (True, fn(part))
            if not ok:
                raise value
            out.extend(value)
        return out
    finally:
        # children are left only when a part raised: its result settles the call
        for pid, read_fd in children.values():
            os.kill(pid, signal.SIGKILL)
            os.close(read_fd)
            os.waitpid(pid, 0)
        if blas:
            blas[1](threads)
