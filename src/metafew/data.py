"""Datasets of raw observations, optional embeddings, labels and boolean
attributes, with split tags, binary I/O, a CSV reader, PCA whitening and a
synthetic mixture generator."""

from __future__ import annotations

import csv
import io
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .ioutil import (fmt_float, magnitude_limit, naming, read_config_trailer,
                     read_text, write_config_trailer)

SPLITS = ("meta-train", "meta-val", "meta-test")
_SPLIT_CODE = {name: i for i, name in enumerate(SPLITS)}

DATASET_MAGIC = b"EMB1"

# flags byte in the binary header
_FLAG_LABELS = 1
_FLAG_SPLITS = 2


@dataclass
class DataSet:
    raw: np.ndarray                       # (n, d_in) float64
    embeddings: np.ndarray | None = None  # (n, d_z) float64
    labels: np.ndarray | None = None      # (n,) int32
    attributes: np.ndarray | None = None  # (n, A) bool
    split: np.ndarray | None = None       # (n,) uint8 codes into SPLITS

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=np.float64)
        if self.raw.ndim != 2:
            raise ShapeError(f"raw must be 2-d, got {self.raw.shape}")
        n = self.raw.shape[0]
        if self.embeddings is not None:
            self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int32)
        if self.attributes is not None:
            self.attributes = np.asarray(self.attributes, dtype=bool)
        if self.split is None:
            self.split = np.zeros(n, dtype=np.uint8)
        else:
            self.split = np.asarray(self.split, dtype=np.uint8)
        self.validate()

    @property
    def n(self) -> int:
        return self.raw.shape[0]

    @property
    def d_in(self) -> int:
        return self.raw.shape[1]

    @property
    def d_z(self) -> int:
        return 0 if self.embeddings is None else self.embeddings.shape[1]

    @property
    def num_attributes(self) -> int:
        return 0 if self.attributes is None else self.attributes.shape[1]

    @property
    def num_classes(self) -> int:
        return 0 if self.labels is None else int(self.labels.max()) + 1

    def validate(self) -> None:
        n = self.raw.shape[0]
        if self.embeddings is not None and self.embeddings.shape[0] != n:
            raise DataError(f"embeddings rows {self.embeddings.shape[0]} != raw rows {n}")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise DataError(f"labels shape {self.labels.shape} != ({n},)")
            if self.labels.size and self.labels.min() < 0:
                raise DataError(f"label out of range: {int(self.labels.min())} < 0")
        if self.attributes is not None and self.attributes.shape[0] != n:
            raise DataError(f"attributes rows {self.attributes.shape[0]} != raw rows {n}")
        if self.split.shape != (n,):
            raise DataError(f"split shape {self.split.shape} != ({n},)")
        if self.split.size and self.split.max() >= len(SPLITS):
            raise DataError(f"invalid split code {int(self.split.max())}")

    def split_indices(self, split: str) -> np.ndarray:
        """Row indices carrying the given split tag."""
        if split not in _SPLIT_CODE:
            raise ConfigError(f"unknown split {split!r}")
        return np.flatnonzero(self.split == _SPLIT_CODE[split])

    def equals(self, other: "DataSet") -> bool:
        def same(a, b):
            if a is None or b is None:
                return a is None and b is None
            return a.shape == b.shape and np.array_equal(a, b)
        return (same(self.raw, other.raw) and same(self.embeddings, other.embeddings)
                and same(self.labels, other.labels)
                and same(self.attributes, other.attributes)
                and np.array_equal(self.split, other.split))


def split_code(name: str) -> int:
    if name not in _SPLIT_CODE:
        raise ConfigError(f"unknown split {name!r}")
    return _SPLIT_CODE[name]


# -- splitting ---------------------------------------------------------------

@dataclass
class SplitSpec:
    """How rows are divided into meta-train / meta-val / meta-test.

    by_fraction: fractions of shuffled rows.
    by_class: explicit class-id lists; every row of a class lands in one
      split and the lists must cover all classes exactly once.
    """

    mode: str
    fractions: tuple[float, float, float] | None = None
    class_lists: tuple | None = None

    def validate(self, ds: DataSet) -> None:
        if self.mode not in ("by_fraction", "by_class"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if self.mode == "by_fraction":
            if self.fractions is None or len(self.fractions) != 3:
                raise ConfigError("fractions must be a (train, val, test) triple")
            if any(f < 0 for f in self.fractions) or abs(sum(self.fractions) - 1.0) > 1e-9:
                raise ConfigError(f"fractions must be nonnegative and sum to 1: {self.fractions}")
        if self.mode == "by_class":
            if ds.labels is None:
                raise ConfigError("by_class split requires labels")
            if self.class_lists is None or len(self.class_lists) != 3:
                raise ConfigError("class_lists must be a (train, val, test) triple")
            seen = [c for lst in self.class_lists for c in lst]
            if len(seen) != len(set(seen)):
                raise ConfigError("class lists overlap across splits")
            present = set(int(c) for c in np.unique(ds.labels))
            if set(seen) != present:
                missing = sorted(present - set(seen))
                extra = sorted(set(seen) - present)
                raise ConfigError(f"class lists must cover the dataset exactly; "
                                  f"missing {missing}, unknown {extra}")


def split_dataset(ds: DataSet, spec: SplitSpec, rng: np.random.Generator) -> DataSet:
    """Assign a split tag to every row; disjoint and exhaustive."""
    spec.validate(ds)
    tags = np.zeros(ds.n, dtype=np.uint8)
    if spec.mode == "by_class":
        class_to_split = {}
        for code, lst in enumerate(spec.class_lists):
            for c in lst:
                class_to_split[int(c)] = code
        tags = np.array([class_to_split[int(y)] for y in ds.labels], dtype=np.uint8)
    else:
        order = rng.permutation(ds.n)
        n_train = round(spec.fractions[0] * ds.n)
        n_val = round(spec.fractions[1] * ds.n)
        tags[order[:n_train]] = 0
        tags[order[n_train:n_train + n_val]] = 1
        tags[order[n_train + n_val:]] = 2
    return DataSet(ds.raw, ds.embeddings, ds.labels, ds.attributes, tags)


# -- PCA + whitening ----------------------------------------------------------

EIGENVALUE_FLOOR = 1e-10


def pca_whiten(ds: DataSet, d_out: int,
               stats_split: str | None = "meta-train") -> DataSet:
    """Replace embeddings with their top-d_out whitened principal components.

    Statistics (mean and covariance) come from stats_split rows by default;
    stats_split=None uses every row, which leaks information across splits
    and exists only for protocol comparison.
    """
    if ds.embeddings is None:
        raise DataError("pca_whiten requires embeddings")
    if d_out > ds.d_z:
        raise ConfigError(f"d_out {d_out} > embedding width {ds.d_z}")
    rows = np.arange(ds.n) if stats_split is None else ds.split_indices(stats_split)
    if rows.size <= d_out:
        raise ConfigError(f"need more than d_out={d_out} rows for statistics, have {rows.size}")
    stats = ds.embeddings[rows]
    mean = stats.mean(axis=0)
    centered = stats - mean
    cov = centered.T @ centered / (rows.size - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:d_out]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    if np.any(eigvals < EIGENVALUE_FLOOR):
        bad = [fmt_float(v) for v in eigvals[eigvals < EIGENVALUE_FLOOR]]
        raise DataError(f"degenerate directions: eigenvalues {bad} below floor "
                        f"{fmt_float(EIGENVALUE_FLOOR)}")
    # canonical sign: largest-magnitude entry of each component positive
    flip = np.sign(eigvecs[np.abs(eigvecs).argmax(axis=0), np.arange(d_out)])
    eigvecs = eigvecs * flip
    transform = eigvecs / np.sqrt(eigvals)
    whitened = (ds.embeddings - mean) @ transform
    return DataSet(ds.raw, whitened, ds.labels, ds.attributes, ds.split)


# -- synthetic mixture ---------------------------------------------------------

def synth_mixture(num_classes: int, per_class: int, d_in: int, d_z: int,
                  noise: float, seed: int, center_scale: float = 1.0,
                  emb_noise: float | None = None) -> DataSet:
    """Gaussian mixture stand-in for image data: raw rows are class centers
    plus noise, embeddings are a fixed random linear map of raw plus
    independent noise, labels are the generating component."""
    if min(num_classes, per_class, d_in, d_z) < 1:
        raise ConfigError("all counts must be positive")
    if noise < 0 or (emb_noise is not None and emb_noise < 0):
        raise ConfigError("noise must be nonnegative")
    if emb_noise is None:
        emb_noise = noise
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, center_scale, size=(num_classes, d_in))
    emb_map = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_z))
    labels = np.repeat(np.arange(num_classes, dtype=np.int32), per_class)
    raw = centers[labels] + noise * rng.standard_normal((labels.size, d_in))
    embeddings = raw @ emb_map + emb_noise * rng.standard_normal((labels.size, d_z))
    return DataSet(raw, embeddings, labels)


# -- binary format "EMB1" -------------------------------------------------------

def save_dataset(ds: DataSet, path, config_text: str | None = None) -> None:
    """magic, n, d_in, d_z (0 if absent), A (0 if absent), flags byte;
    then row-major little-endian float64 raw and embeddings, labels as
    int32, attributes bit-packed per row, split tags as bytes."""
    with open(path, "wb") as fh:
        flags = 0
        if ds.labels is not None:
            flags |= _FLAG_LABELS
        if np.any(ds.split != 0):
            flags |= _FLAG_SPLITS
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIIIB", ds.n, ds.d_in, ds.d_z, ds.num_attributes, flags))
        fh.write(np.ascontiguousarray(ds.raw, dtype="<f8").tobytes())
        if ds.embeddings is not None:
            fh.write(np.ascontiguousarray(ds.embeddings, dtype="<f8").tobytes())
        if ds.labels is not None:
            fh.write(np.ascontiguousarray(ds.labels, dtype="<i4").tobytes())
        if ds.attributes is not None:
            packed = np.packbits(ds.attributes, axis=1, bitorder="little")
            fh.write(packed.tobytes())
        if flags & _FLAG_SPLITS:
            fh.write(np.ascontiguousarray(ds.split, dtype=np.uint8).tobytes())
        if config_text is not None:
            write_config_trailer(fh, config_text)


def _load_emb1(fh, path) -> DataSet:
    """Read an open EMB1 file from just past its magic: the float blocks go
    straight into their arrays, and only the tail after them is read as
    bytes."""
    head = fh.read(17)
    if len(head) < 17:
        raise DataError(f"{path}: truncated header")
    n, d_in, d_z, n_attr, flags = struct.unpack("<IIIIB", head)
    size = os.fstat(fh.fileno()).st_size

    def read_floats(cols):
        if n * cols * 8 > size - fh.tell():
            raise DataError(f"{path}: truncated payload")
        arr = np.empty((n, cols), dtype="<f8")
        fh.readinto(arr)
        return arr.astype(np.float64, copy=False)
    raw = read_floats(d_in)
    embeddings = read_floats(d_z) if d_z else None
    blob = fh.read()
    pos = 0
    labels = None
    if flags & _FLAG_LABELS:
        end = pos + n * 4
        if end > len(blob):
            raise DataError(f"{path}: truncated labels")
        labels = np.frombuffer(blob, dtype="<i4", count=n, offset=pos).astype(np.int32)
        pos = end
    attributes = None
    if n_attr:
        row_bytes = (n_attr + 7) // 8
        end = pos + n * row_bytes
        if end > len(blob):
            raise DataError(f"{path}: truncated attributes")
        packed = np.frombuffer(blob, dtype=np.uint8, count=n * row_bytes, offset=pos)
        attributes = np.unpackbits(packed.reshape(n, row_bytes), axis=1,
                                   count=n_attr, bitorder="little").astype(bool)
        pos = end
    split = None
    if flags & _FLAG_SPLITS:
        end = pos + n
        if end > len(blob):
            raise DataError(f"{path}: truncated split tags")
        split = np.frombuffer(blob, dtype=np.uint8, count=n, offset=pos).copy()
        pos = end
    with naming(path):
        read_config_trailer(blob, pos)
        return DataSet(raw, embeddings, labels, attributes, split)


# -- CSV reader -------------------------------------------------------------

def _header_group(fields: list[str], prefix: str, path) -> list[int]:
    cols = [i for i, name in enumerate(fields) if name.startswith(prefix)]
    expected = [f"{prefix}{j}" for j in range(len(cols))]
    if [fields[i] for i in cols] != expected:
        raise DataError(f"{path}: malformed header: {prefix}* columns must be "
                        f"{prefix}0..{prefix}{len(cols) - 1} in order")
    return cols


def _load_csv(path) -> DataSet:
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        fields = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file, header row required") from None
    known = [f for f in fields
             if f.startswith(("raw_", "emb_", "attr_")) or f == "label"]
    if len(known) != len(fields):
        bad = sorted(set(fields) - set(known))
        raise DataError(f"{path}: malformed header: unknown columns {bad}")
    raw_cols = _header_group(fields, "raw_", path)
    emb_cols = _header_group(fields, "emb_", path)
    attr_cols = _header_group(fields, "attr_", path)
    label_col = fields.index("label") if "label" in fields else None
    if not raw_cols:
        raise DataError(f"{path}: malformed header: at least one raw_ column required")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(fields):
            raise DataError(f"{path}:{lineno}: row has {len(row)} fields, "
                            f"header has {len(fields)}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        table = np.array(rows).astype(np.float64)
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric value: {exc}") from None
    raw = table[:, raw_cols]
    embeddings = table[:, emb_cols] if emb_cols else None
    labels = None
    if label_col is not None:
        as_float = table[:, label_col]
        labels = as_float.astype(np.int32)
        if np.any(labels != as_float) or labels.min() < 0:
            raise DataError(f"{path}: label out of range: labels must be integers >= 0")
    attributes = None
    if attr_cols:
        vals = table[:, attr_cols]
        if not np.isin(vals, (0.0, 1.0)).all():
            raise DataError(f"{path}: attr_ columns must be 0/1")
        attributes = vals.astype(bool)
    return DataSet(raw, embeddings, labels, attributes)


def load_dataset(path) -> DataSet:
    """Read an EMB1 dataset, or a CSV one when the file does not start with
    the EMB1 magic. An EMB1 config trailer, if present, must be well
    formed; its text is not returned.

    A float block whose largest magnitude could overflow a squared
    distance over its d columns (above magnitude_limit(d)) is a DataError.
    The same scan makes a NaN entry a DataError."""
    with open(path, "rb") as fh:
        ds = _load_emb1(fh, path) if fh.read(4) == DATASET_MAGIC else None
    if ds is None:
        ds = _load_csv(path)
    for name, block in (("raw", ds.raw), ("embeddings", ds.embeddings)):
        if block is None or block.size == 0:
            continue
        # max and min, not abs: no temporary the size of the block; both
        # are NaN when any entry is, and NaN fails `top <= limit`
        top = max(block.max(), -block.min())
        limit = magnitude_limit(block.shape[1])
        if not top <= limit:
            raise DataError(f"{path}: {name} block has " + (
                "a NaN entry" if np.isnan(top) else
                f"an entry of magnitude {top:.3g}; above {limit:.3g}, squared "
                f"distances over its {block.shape[1]} columns could overflow"))
    return ds
