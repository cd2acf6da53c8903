"""The environment a result was measured in."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked of the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_lines(package: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(package.glob("*.py")))


def environment(root: Path) -> dict:
    import numpy as np
    from metafew.ioutil import default_workers

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "workers": default_workers(),
        "git_commit": git_commit(root),
        "src_metafew_lines": source_lines(root / "src" / "metafew"),
        "platform": platform.platform(),
    }
