"""Small shared I/O helpers: config trailers on binary artifacts, float
formatting for text artifacts, seeded generators, the worker-count setting."""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigError, DataError

TRAILER_MAGIC = b"CFG1"

WORKERS_ENV = "METAFEW_WORKERS"


def write_config_trailer(fh, text: str) -> None:
    """Append an optional config block after a binary payload."""
    raw = text.encode("utf-8")
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


def default_workers() -> int:
    """METAFEW_WORKERS, or the core count when it is unset. metafew runs
    serially; only the benchmark reads this, to record and scale by it."""
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV}={env!r} is not an integer") from None
    return os.cpu_count() or 1

