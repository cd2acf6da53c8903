"""Small shared I/O helpers: text artifacts, config trailers on binary
artifacts, float formatting, seeded generators, the magnitude bound on
loaded floats, the worker-count setting."""

from __future__ import annotations

import contextlib
import os
import re
import struct

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
    runs and independent of draw order elsewhere."""
    return np.random.default_rng(np.random.SeedSequence([int(e) for e in entropy]))


def magnitude_limit(width: int) -> float:
    """Largest magnitude a loaded float may have where `width` of them are
    summed in a squared distance or a product: the sum is at most
    4*width*M**2, and M <= sqrt(max_float / (8*width)) keeps that bound a
    factor of two below overflow for rounding (about 4.7e153 at width 1)."""
    return float(np.sqrt(np.finfo(np.float64).max / (8 * width)))


def default_workers() -> int:
    """How many processes `evaluate` splits a fitted learner's task set
    across: METAFEW_WORKERS, at least 1 and at most the CPUs this process
    may run on, or that CPU count when it is unset."""
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
