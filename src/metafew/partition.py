"""Partitions of embedding (or raw) space used as pseudo-class structure:
metric-scaled Lloyd k-means, random-hyperplane slicing with margin, random
assignment, and label-derived partitions."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .data import DataSet
from .errors import ConfigError, DataError, InfeasibleError, NumericError, ShapeError
from .ioutil import (body_text, fmt_float, fork_map, header_lines, magnitude_limit,
                     naming, openblas_threads, parse_field, read_text, stable_rng,
                     write_text)

PROVENANCES = ("kmeans", "hyperplane", "random", "supervised")

KMEANS_MAX_ITER = 300
KMEANS_TOL = 1e-8
HYPERPLANE_POOL_SIZE = 1000
HYPERPLANE_RETRY_CAP = 100
# distance entries per row block of the k-means assignment step, which
# bounds its working memory by k rather than by n
BLOCK_ELEMS = 1 << 16
# row count every block's product is padded to a multiple of; OpenBLAS
# splits such products across threads without changing their bits
GEMM_ALIGN = 64
# rows per block of the hyperplane distance pass, a multiple of GEMM_ALIGN
SLICE_ROWS = 1024
# rows per block when points are copied into columns, each block read from cache
TRANSPOSE_ROWS = 256


@dataclass
class Hyperplane:
    normal: np.ndarray
    point: np.ndarray

    def __post_init__(self):
        self.normal = np.asarray(self.normal, dtype=np.float64)
        self.point = np.asarray(self.point, dtype=np.float64)
        if self.normal.shape != self.point.shape or self.normal.ndim != 1:
            raise ShapeError(f"normal {self.normal.shape} / point {self.point.shape}")
        if np.linalg.norm(self.normal) == 0.0:
            raise DataError("hyperplane normal must have nonzero norm")


def signed_distance(h: Hyperplane, z: np.ndarray) -> float | np.ndarray:
    """Signed point-plane distance, invariant to the normal's magnitude.
    Accepts a single vector or a batch of rows."""
    z = np.asarray(z, dtype=np.float64)
    unit = h.normal / np.linalg.norm(h.normal)
    if z.ndim == 1:
        if z.shape != h.normal.shape:
            raise ShapeError(f"point dim {z.shape} != plane dim {h.normal.shape}")
        return float(unit @ (z - h.point))
    if z.shape[1] != h.normal.shape[0]:
        raise ShapeError(f"points width {z.shape[1]} != plane dim {h.normal.shape[0]}")
    return (z - h.point) @ unit


@dataclass
class Partition:
    """Cluster structure over n points: assignment[i] is the cluster
    (0..num_clusters-1) of point i, or -1 for a discarded point. Sizes and
    member lists are derived from it once, on first use, so a built
    partition's assignment is never rewritten (_lift makes a new one)."""

    assignment: np.ndarray
    centroids: np.ndarray | None = None
    scaling: np.ndarray | None = None
    provenance: str = "kmeans"
    k: int | None = None                  # requested cluster count
    seed: int | None = None
    source_space: str = "embedding"
    margin: float | None = None
    hyperplanes: list[Hyperplane] | None = None
    objective: float | None = None
    objective_trace: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @cached_property
    def cluster_sizes(self) -> np.ndarray:
        """Member count of each cluster, read-only; kept because task
        sampling checks eligibility once per task."""
        sizes = np.bincount(self.assignment + 1)[1:]
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def clusters(self) -> list[np.ndarray]:
        """Ascending member indices of each cluster."""
        order = np.argsort(self.assignment, kind="stable")  # discarded rows first
        bounds = (self.n - np.cumsum(self.cluster_sizes[::-1])[::-1]).tolist() + [self.n]
        return [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    @property
    def num_clusters(self) -> int:
        return len(self.cluster_sizes)

    def validate(self) -> None:
        if self.provenance not in PROVENANCES:
            raise DataError(f"unknown provenance {self.provenance!r}")
        empty = np.flatnonzero(self.cluster_sizes == 0)
        if empty.size:
            raise DataError(f"cluster {empty[0]} is empty")
        if self.centroids is not None and self.centroids.shape[0] != self.num_clusters:
            raise DataError(f"{self.centroids.shape[0]} centroids for "
                            f"{self.num_clusters} clusters")


# -- metric-scaled k-means ------------------------------------------------------

def _as_points(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"points must be 2-d, got {points.shape}")
    return points


def _check_points(points: np.ndarray) -> np.ndarray:
    """2-d float points, finite and at most magnitude_limit(d), the bound
    load_dataset applies, so that no squared distance overflows."""
    points = _as_points(points)
    # max and min, not abs: no temporary the size of the block
    top = max(points.max(), -points.min()) if points.size else 0.0
    if not np.isfinite(top):
        raise DataError("points contain non-finite values")
    if points.size and top > (limit := magnitude_limit(points.shape[1])):
        raise DataError(f"points have an entry of magnitude {top:.3g}; above "
                        f"{limit:.3g}, squared distances could overflow")
    return points


def kmeans(points: np.ndarray, k: int, scaling: np.ndarray | None = None,
           seed: int | np.random.Generator = 0, max_iter: int = KMEANS_MAX_ITER,
           tol: float = KMEANS_TOL, plusplus: bool = False,
           restarts: int = 1) -> Partition:
    """Lloyd iteration under the diagonal metric ||z - mu||^2_A.

    Scaling is the diagonal of A (all-ones when omitted). Points are
    pre-multiplied by sqrt(A), which leaves assignments and member means
    identical to running the scaled objective directly. The objective is
    asserted nonincreasing every iteration; returned centroids are member
    means in the original coordinates and no cluster is empty. With
    restarts > 1 the lowest-objective run wins.
    """
    points = _check_points(points)
    n, d = points.shape
    if k > n:
        raise InfeasibleError(f"k={k} exceeds point count n={n}")
    if k < 1:
        raise ConfigError("k must be >= 1")
    if max_iter < 1:
        raise ConfigError(f"max_iter must be >= 1, got {max_iter}")
    if scaling is None:
        scaling = np.ones(d)
    scaling = np.asarray(scaling, dtype=np.float64)
    if scaling.shape != (d,):
        raise ShapeError(f"scaling shape {scaling.shape} != ({d},)")
    if not ((scaling > 0) & (scaling < np.inf)).all():
        raise ConfigError("scaling entries must be finite and > 0")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    seed_val = None if isinstance(seed, np.random.Generator) else int(seed)
    if restarts > 1:
        best = None
        for _ in range(restarts):
            run = kmeans(points, k, scaling=scaling, seed=rng, max_iter=max_iter,
                         tol=tol, plusplus=plusplus)
            if best is None or run.objective < best.objective:
                best = run
        best.seed = seed_val
        return best

    y = points * np.sqrt(scaling)
    if plusplus:
        centroids = y[_plusplus_init(y, k, rng)]
    else:
        centroids = y[rng.choice(n, size=k, replace=False)]
    sq_y = (y * y).sum(axis=1)
    columns = _columns(y, np.arange(n))
    prev_assign = None
    prev_obj = np.inf
    trace = []
    for _ in range(max_iter):
        assign, min_d2 = _assign(y, sq_y, centroids)
        assign, min_d2 = _repair_empty(y, sq_y, centroids, assign, min_d2, k)
        obj = float(min_d2.sum())
        if obj > prev_obj * (1 + 1e-12) + 1e-12:
            raise NumericError(f"k-means objective increased: {prev_obj} -> {obj}")
        trace.append(obj)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        if prev_assign is not None and prev_obj - obj <= tol * max(prev_obj, 1e-300):
            break
        centroids = _member_means(columns, assign, k)
        prev_assign, prev_obj = assign, obj
    # final centroids: means in the original coordinates, in the same buffer
    centroids = _member_means(_columns(points, np.arange(n), columns), assign, k)
    return Partition(assignment=assign, centroids=centroids,
                     scaling=scaling, provenance="kmeans", k=k, seed=seed_val,
                     objective=float(trace[-1]), objective_trace=np.array(trace))


def _columns(points, rows, out=None):
    """points[rows].T as a contiguous (d, len(rows)) array, written into out
    when given, TRANSPOSE_ROWS rows at a time."""
    out = np.empty((points.shape[1], len(rows))) if out is None else out
    for lo in range(0, len(rows), TRANSPOSE_ROWS):
        out[:, lo:lo + TRANSPOSE_ROWS] = points[rows[lo:lo + TRANSPOSE_ROWS]].T
    return out


def _member_means(columns, assign, k):
    """Mean of each of the k clusters of points given as their columns
    (d, n), each in a cluster, with the bits of points[members].mean(axis=0).
    With two or more columns numpy adds a cluster's rows one at a time in
    index order from 0.0, as bincount does; a single column it sums
    pairwise."""
    if len(columns) == 1:
        return np.array([[columns[0][m].mean()] for m in Partition(assign).clusters])
    sums = np.empty((k, len(columns)))
    for j, col in enumerate(columns):
        sums[:, j] = np.bincount(assign, weights=col, minlength=k)
    return sums / np.bincount(assign, minlength=k)[:, None]


def _aligned(rows: int) -> int:
    """rows rounded up to a multiple of GEMM_ALIGN."""
    return -(-rows // GEMM_ALIGN) * GEMM_ALIGN


def _assign(y, sq_y, centroids):
    """Nearest centroid of each row of y and its squared distance
    (|y|^2 + |c|^2) - 2 c.y, clamped at zero; a tie goes to the lower index.

    Rows go through in blocks of about BLOCK_ELEMS distances, each block
    padded with zero rows to a multiple of GEMM_ALIGN. The product is taken
    as (2 centroids) @ y.T, which has the bits of 2.0 * (centroids @ y.T).
    Blocks of other widths, or y on the left, let OpenBLAS round some
    entries differently depending on its thread count; this layout gives
    the same bits at any thread count and block size. Each block then takes
    three passes: the sums |y|^2 + |c|^2 into one reused buffer, the
    product subtracted in place, and argmin. Only a row whose minimum is
    <= 0 is clamped: it takes its first entry <= 0 at distance +0.0, as
    clamping every entry would give.
    """
    n, d = y.shape
    k = centroids.shape[0]
    cc = (centroids * centroids).sum(axis=1)
    twice = 2.0 * centroids
    rows = max(1, BLOCK_ELEMS // k // GEMM_ALIGN) * GEMM_ALIGN
    prod_buf = np.empty(k * rows)
    d2_buf = np.empty((min(rows, n), k))
    assign = np.empty(n, dtype=np.int64)
    min_d2 = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        m = hi - lo
        yb = y[lo:hi]
        if m % GEMM_ALIGN:
            yb = np.zeros((_aligned(m), d))
            yb[:m] = y[lo:hi]
        prod = np.matmul(twice, yb.T, out=prod_buf[:k * len(yb)].reshape(k, len(yb)))
        d2 = d2_buf[:m]
        np.add(sq_y[lo:hi, None], cc, out=d2)
        np.subtract(d2, prod[:, :m].T, out=d2)
        best = d2.argmin(axis=1)
        mins = d2[np.arange(m), best]
        low = np.flatnonzero(mins <= 0.0)
        if low.size:
            best[low] = (d2[low] <= 0.0).argmax(axis=1)
            mins[low] = 0.0
        assign[lo:hi] = best
        min_d2[lo:hi] = mins
    return assign, min_d2


def nearest_centroids(points: np.ndarray, centroids: np.ndarray,
                      scaling: np.ndarray | None = None) -> np.ndarray:
    """Index of each point's nearest centroid under the diagonal metric
    ||z - mu||^2_A, scaling being A's diagonal (all-ones when omitted); a
    tie goes to the lower index. This is the k-means assignment rule."""
    points = _check_points(points)
    centroids = np.asarray(centroids, dtype=np.float64)
    root = np.sqrt(np.ones(points.shape[1]) if scaling is None
                   else np.asarray(scaling, dtype=np.float64))
    if not points.shape[1:] == centroids.shape[1:] == root.shape:
        raise ShapeError(f"points {points.shape}, centroids {centroids.shape} and "
                         f"scaling {root.shape} disagree in width")
    y = points * root
    return _assign(y, (y * y).sum(axis=1), centroids * root)[0]


def _repair_empty(y, sq_y, centroids, assign, min_d2, k):
    # reseed an empty centroid at the point farthest from its own centroid
    for _ in range(2 * k):
        sizes = np.bincount(assign, minlength=k)
        empties = np.flatnonzero(sizes == 0)
        if empties.size == 0:
            return assign, min_d2
        centroids[empties[0]] = y[int(min_d2.argmax())]
        assign, min_d2 = _assign(y, sq_y, centroids)
    raise InfeasibleError(f"cannot keep {k} nonempty clusters; "
                          "fewer than k distinct points?")


def _plusplus_init(y, k, rng):
    n = y.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((y - y[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        total = d2.sum()
        if total <= 0:
            remaining = np.setdiff1d(np.arange(n), chosen)
            chosen.append(int(rng.choice(remaining)))
            continue
        nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((y - y[nxt]) ** 2).sum(axis=1))
    return np.array(chosen)


def generate_partitions(ds: DataSet, P: int, k: int = 0, seed: int = 0,
                        split: str = "meta-train", method: str = "kmeans",
                        n_way: int = 5, margin: float = 0.0, r_min: int = 6,
                        pool_size: int = HYPERPLANE_POOL_SIZE,
                        retry_cap: int = HYPERPLANE_RETRY_CAP,
                        max_iter: int = KMEANS_MAX_ITER,
                        tol: float = KMEANS_TOL, workers: int = 1) -> list[Partition]:
    """P partitions of the split's rows by `method`, partition p drawn from
    stable_rng(seed, p) and indexed by dataset row (other rows discarded).
    kmeans clusters the embeddings under a fresh random diagonal metric with
    entries i.i.d. uniform on (0, 1]; pixel clusters the raw vectors; random
    assigns uniformly to k clusters; hyperplane slices by H-combinations of
    one pool drawn from stable_rng(seed, 0xB00) (see hyperplane_partition).
    workers > 1 forks contiguous runs of p across processes (ioutil.fork_map)
    when OpenBLAS's thread count can be set; the bits do not change."""
    if P < 1:
        raise ConfigError(f"P must be >= 1, got {P}")
    if method not in ("kmeans", "pixel", "random", "hyperplane"):
        raise ConfigError(f"unknown method {method!r}")
    if method != "hyperplane" and k < 1:
        raise ConfigError(f"method={method} requires k >= 1")
    if method in ("kmeans", "hyperplane") and ds.embeddings is None:
        raise DataError(f"method={method} requires embeddings")
    rows = ds.split_indices(split)
    if rows.size == 0:
        raise DataError(f"split {split!r} has no rows")
    points = None if method == "random" else (
        ds.raw if method == "pixel" else ds.embeddings)[rows]
    if method == "hyperplane":
        pool = sample_hyperplanes(points, pool_size, stable_rng(seed, 0xB00))

    def build(p: int) -> Partition:
        rng = stable_rng(seed, p)
        if method in ("kmeans", "pixel"):  # pixel: all-ones metric
            diag = 1.0 - rng.random(points.shape[1]) if method == "kmeans" else None
            part = kmeans(points, k, scaling=diag, seed=rng, max_iter=max_iter, tol=tol)
        elif method == "random":
            part = random_partition(rows.size, k, rng)
        else:
            part = hyperplane_partition(points, n_way, margin, r_min, rng, pool=pool,
                                        retry_cap=retry_cap)
        return _lift(part, rows, ds.n, seed=seed,
                     source_space="raw" if method == "pixel" else "embedding")

    return fork_map(lambda ps: [build(p) for p in ps], range(P),
                    workers if openblas_threads() else 1)


def _lift(part: Partition, rows: np.ndarray, n: int, **fields) -> Partition:
    """A partition built on a row subset, re-indexed into full-dataset
    indices; the rows outside the subset are discarded. Keyword fields
    replace the partition's own."""
    assignment = np.full(n, -1, dtype=np.int64)
    assignment[rows] = part.assignment
    return replace(part, assignment=assignment, **fields)


# -- random-hyperplane slicing ---------------------------------------------------

def sample_hyperplanes(points: np.ndarray, count: int, rng: np.random.Generator) -> list[Hyperplane]:
    """Standard-normal normals; the on-plane point is a uniformly chosen
    data point, so every plane crosses the data cloud."""
    points = _check_points(points)
    planes = []
    for _ in range(count):
        normal = rng.standard_normal(points.shape[1])
        anchor = points[int(rng.integers(points.shape[0]))].copy()
        planes.append(Hyperplane(normal, anchor))
    return planes


def partition_by_hyperplanes(points: np.ndarray, hyperplanes: list[Hyperplane],
                             margin: float, r_min: int) -> Partition:
    """Bucket points by the sign pattern of their distances to each plane.

    Points within (-margin, margin) of any plane are discarded; buckets
    with fewer than r_min members are pruned. The caller checks whether
    enough clusters survive.

    Each plane measures only the rows that no earlier plane discarded,
    SLICE_ROWS at a time through one reused buffer. OpenBLAS takes the rows
    of a matrix-vector product in groups of 4 and rounds a last partial
    group its own way, so every block is padded to a multiple of GEMM_ALIGN
    rows: a row's distance then has the bits that signed_distance gives it
    among any multiple of 4 rows. A non-finite point has a non-finite
    distance to the first plane; only then are the points scanned.
    """
    points = _as_points(points)
    if margin < 0:
        raise ConfigError("margin must be >= 0")
    n, width = points.shape
    alive = np.arange(n)
    pattern = np.zeros(n, dtype=np.int64)
    buf = np.zeros((min(SLICE_ROWS, _aligned(n)), width))
    for bit, h in enumerate(hyperplanes):
        if h.normal.shape[0] != width:
            raise ShapeError(f"points width {width} != plane dim {h.normal.shape[0]}")
        unit = h.normal / np.linalg.norm(h.normal)
        dist = np.empty(_aligned(alive.size))
        with np.errstate(invalid="ignore"):  # a non-finite point raises below
            for lo in range(0, alive.size, SLICE_ROWS):
                rows = alive[lo:lo + SLICE_ROWS]
                block = np.take(points, rows, axis=0, out=buf[:rows.size], mode="clip")
                np.subtract(block, h.point, out=block)
                padded = buf[:_aligned(rows.size)]
                np.matmul(padded, unit, out=dist[lo:lo + len(padded)])
        dist = dist[:alive.size]
        if not np.isfinite(dist).all():
            _check_points(points)
        keep = np.abs(dist) >= margin
        alive = alive[keep]
        pattern = pattern[keep] | (dist[keep] >= 0).astype(np.int64) << bit
    # surviving sign patterns take cluster ids in ascending pattern order
    kept = np.bincount(pattern, minlength=1 << len(hyperplanes)) >= r_min
    ids = np.where(kept, np.cumsum(kept) - 1, -1)
    assignment = np.full(n, -1, dtype=np.int64)
    assignment[alive] = ids[pattern]
    return Partition(assignment=assignment, provenance="hyperplane",
                     k=int(kept.sum()), margin=margin, hyperplanes=list(hyperplanes))


def hyperplane_partition(points: np.ndarray, n_way: int, margin: float, r_min: int,
                         seed: int | np.random.Generator, pool: list[Hyperplane],
                         retry_cap: int = HYPERPLANE_RETRY_CAP) -> Partition:
    """Slice the space with H = ceil(log2 n_way) hyperplanes drawn from the
    pool; reject and retry while fewer than n_way subsets survive margin
    and size pruning. Non-finite points are caught by the slicing's first
    plane."""
    points = _as_points(points)
    if n_way < 1:
        raise ConfigError(f"n_way must be >= 1, got {n_way}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    h = max(1, math.ceil(math.log2(n_way)))
    if len(pool) < h:
        raise ConfigError(f"pool of {len(pool)} hyperplanes < H={h}")
    last_kept = 0.0
    for _ in range(retry_cap + 1):
        planes = [pool[i] for i in rng.choice(len(pool), size=h, replace=False)]
        part = partition_by_hyperplanes(points, planes, margin, r_min)
        if part.num_clusters >= n_way:
            part.seed = None if isinstance(seed, np.random.Generator) else int(seed)
            return part
        last_kept = float((part.assignment >= 0).sum()) / points.shape[0]
    raise InfeasibleError(
        f"hyperplane partition infeasible after {retry_cap + 1} attempts: "
        f"margin {margin} keeps {last_kept:.1%} of points in surviving subsets, "
        f"need {n_way} subsets of >= {r_min}")


# -- random and label partitions ---------------------------------------------------

def random_partition(n: int, k: int, rng: np.random.Generator) -> Partition:
    """Uniform independent assignment into k clusters; empty clusters are
    dropped and ids compacted."""
    if k < 2:
        raise ConfigError(f"random partition needs k >= 2, got {k}")
    _, ids = np.unique(rng.integers(0, k, size=n), return_inverse=True)
    return Partition(assignment=ids.astype(np.int64), provenance="random", k=k)


def partition_from_labels(ds: DataSet, split: str | None = None) -> Partition:
    """One cluster per label value; drives oracle task generation."""
    if ds.labels is None:
        raise DataError("partition_from_labels requires labels")
    rows = np.arange(ds.n) if split is None else ds.split_indices(split)
    if rows.size == 0:
        raise DataError(f"{'the dataset' if split is None else f'split {split!r}'} "
                        f"has no labeled rows")
    values, ids = np.unique(ds.labels[rows], return_inverse=True)
    part = _lift(Partition(assignment=ids, provenance="supervised", k=len(values)),
                 rows, ds.n)
    if ds.embeddings is not None:
        part.centroids = _member_means(_columns(ds.embeddings, rows), ids, len(values))
    return part


# -- text serialization --------------------------------------------------------

def save_partition(part: Partition, path) -> None:
    """One line per point holding its cluster id (-1: discarded), in row
    order; header lines carry provenance, n, k, seed, source space, scaling,
    and (for hyperplane partitions) margin and planes."""
    header = [f"provenance={part.provenance}", f"n={part.n}",
              f"k={part.k if part.k is not None else part.num_clusters}",
              f"seed={part.seed if part.seed is not None else ''}",
              f"source_space={part.source_space}"]
    if part.scaling is not None:
        header.append("scaling=" + ",".join(fmt_float(v) for v in part.scaling))
    if part.margin is not None:
        header.append(f"margin={fmt_float(part.margin)}")
    for h in part.hyperplanes or []:
        header.append("hyperplane=" + ",".join(fmt_float(v) for v in h.normal) + ";"
                      + ",".join(fmt_float(v) for v in h.point))
    write_text(path, header, "%d\n" * part.n % tuple(part.assignment.tolist()))


def load_partition(path, points: np.ndarray | None = None) -> Partition:
    """Rebuild a partition from its text form. When the clustered embedding
    points are supplied, the partition must come from the embedding space,
    they must number n, the scaling and every hyperplane must match their
    width, and centroids are recomputed as member means.
    The body must hold n lines of one field, line i the cluster id of point
    i: -1 or 0..k-1 for some k >= 1, none skipped. A malformed header is a
    DataError."""
    text = read_text(path)
    fields = [line.partition("=")[::2] for line in header_lines(text)]  # (key, value)
    header = dict(fields)
    planes = [parse_field(path, key, value, _parse_hyperplane)
              for key, value in fields if key == "hyperplane"]

    def header_value(key, parse):  # an unset k or seed is written empty
        return parse_field(path, key, header[key], parse) if header.get(key) else None

    assignment = _parse_assignment_lines(path, text)
    n = header_value("n", int)
    n = len(assignment) if n is None else n
    if len(assignment) != n:
        raise DataError(f"{path}: {len(assignment)} assignment lines, header says n={n}")
    if points is not None and len(points) != n:
        raise DataError(f"{path}: partition of {n} points, but {len(points)} "
                        f"points were given")
    if ((assignment < -1) | (assignment >= n)).any():
        raise DataError(f"{path}: cluster id outside -1..{n - 1}")
    part = Partition(
        assignment=assignment,
        scaling=header_value("scaling", _parse_floats),
        provenance=header.get("provenance", "kmeans"),
        k=header_value("k", int),
        seed=header_value("seed", int),
        source_space=header.get("source_space", "embedding"),
        margin=header_value("margin", float),
        hyperplanes=planes or None,
    )
    bad = [v for v in part.scaling if not 0 < v < np.inf] if part.scaling is not None else []
    if bad:
        raise DataError(f"{path}: scaling entry {bad[0]} is not finite and > 0")
    if points is not None:
        if part.source_space != "embedding":
            raise DataError(f"{path}: partition clustered in source_space="
                            f"{part.source_space}, but its centroids need the "
                            f"embedding space")
        width = points.shape[1]
        if part.scaling is not None and part.scaling.shape != (width,):
            raise DataError(f"{path}: scaling has {part.scaling.size} entries, but "
                            f"the points have width {width}")
        for h in planes:
            if h.normal.shape != (width,):
                raise DataError(f"{path}: hyperplane of dimension {h.normal.size}, "
                                f"but the points have width {width}")
    with naming(path):
        part.validate()
    if not part.num_clusters:
        raise DataError(f"{path}: every point is discarded (cluster -1)")
    if points is not None:
        kept = np.flatnonzero(assignment >= 0)
        part.centroids = _member_means(_columns(points, kept), assignment[kept],
                                       part.num_clusters)
    return part


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _parse_hyperplane(text: str) -> Hyperplane:
    normal, _, anchor = text.partition(";")
    return Hyperplane(_parse_floats(normal), _parse_floats(anchor))


def _parse_assignment_lines(path, text: str) -> np.ndarray:
    """The cluster ids of a partition file's body lines, one field each. An
    old `index,cluster` body has two fields a line: 2-d parsing keeps a
    one-line `0,3` from reading as two ids."""
    body = body_text(text)
    if not body:
        return np.empty(0, dtype=np.int64)
    try:
        ids = np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64,
                         ndmin=2, comments="#")
    except ValueError as exc:
        raise DataError(f"{path}: bad assignment line: {exc}") from None
    if ids.shape[1] != 1:
        raise DataError(f"{path}: assignment lines need 1 field, got {ids.shape[1]}")
    return ids[:, 0]
