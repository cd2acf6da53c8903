import re
import struct

import numpy as np
import pytest

from helpers import save_dataset_csv
from metafew.data import (DataSet, SplitSpec, load_dataset, pca_whiten,
                          save_dataset, split_dataset, synth_mixture)
from metafew.errors import ConfigError, DataError
from metafew.partition import kmeans


def small_dataset(n=12, with_all=True, seed=0):
    rng = np.random.default_rng(seed)
    return DataSet(
        raw=rng.standard_normal((n, 3)),
        embeddings=rng.standard_normal((n, 2)) if with_all else None,
        labels=rng.integers(0, 4, n) if with_all else None,
        attributes=rng.integers(0, 2, (n, 5)).astype(bool) if with_all else None,
    )


# -- loading -------------------------------------------------------------------

def test_load_small_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("raw_0,raw_1,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n7.0,8.0,1\n")
    ds = load_dataset(path)
    assert ds.n == 4 and ds.d_in == 2
    assert ds.labels.tolist() == [0, 1, 0, 1]
    assert ds.embeddings is None

def test_binary_round_trip_is_byte_identical(tmp_path):
    ds = small_dataset()
    ds = split_dataset(ds, SplitSpec("by_fraction", fractions=(0.5, 0.25, 0.25)),
                       np.random.default_rng(1))
    a, b = tmp_path / "a.emb1", tmp_path / "b.emb1"
    save_dataset(ds, a)
    loaded = load_dataset(a)
    assert loaded.equals(ds)
    save_dataset(loaded, b)
    assert a.read_bytes() == b.read_bytes()

def test_wide_embedding_file(tmp_path):
    rng = np.random.default_rng(2)
    ds = DataSet(raw=rng.standard_normal((10, 4)),
                 embeddings=rng.standard_normal((10, 256)))
    path = tmp_path / "wide.emb1"
    save_dataset(ds, path)
    assert load_dataset(path).d_z == 256

def test_csv_round_trip(tmp_path):
    ds = small_dataset()
    path = tmp_path / "ds.csv"
    save_dataset_csv(ds, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.raw, ds.raw)
    assert np.array_equal(loaded.attributes, ds.attributes)

def test_distinct_load_diagnostics(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("raw_0,bogus\n1,2\n")
    with pytest.raises(DataError, match="unknown columns"):
        load_dataset(bad_header)

    bad_order = tmp_path / "o.csv"
    bad_order.write_text("raw_1,raw_0\n1,2\n")
    with pytest.raises(DataError, match="malformed header"):
        load_dataset(bad_order)

    bad_row = tmp_path / "r.csv"
    bad_row.write_text("raw_0,raw_1\n1,2\n3\n")
    with pytest.raises(DataError, match="row has 1 fields"):
        load_dataset(bad_row)

    bad_label = tmp_path / "l.csv"
    bad_label.write_text("raw_0,label\n1,-3\n")
    with pytest.raises(DataError, match="label out of range"):
        load_dataset(bad_label)

    truncated = tmp_path / "t.emb1"
    truncated.write_bytes(b"EMB1" + b"\x00" * 5)
    with pytest.raises(DataError, match="truncated"):
        load_dataset(truncated)


@pytest.mark.parametrize("block", ["raw", "embeddings"])
def test_emb1_cut_inside_a_float_block(tmp_path, block):
    ds = small_dataset()
    path = tmp_path / "cut.emb1"
    save_dataset(ds, path)
    raw_end = 21 + ds.raw.nbytes
    cut = (21 + ds.raw.nbytes // 2 if block == "raw"
           else raw_end + ds.embeddings.nbytes // 2)
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(DataError, match=re.escape(f"{path}: truncated payload")):
        load_dataset(path)

def test_emb1_header_larger_than_file_is_truncated_payload(tmp_path):
    # the payload size is checked against the file before it is allocated
    path = tmp_path / "huge.emb1"
    path.write_bytes(b"EMB1" + struct.pack("<IIIIB", 2**32 - 1, 2**20, 0, 0, 0))
    with pytest.raises(DataError, match="truncated payload"):
        load_dataset(path)

@pytest.mark.parametrize("block", ["raw", "embeddings"])
@pytest.mark.parametrize("fmt", ["emb1", "csv"])
def test_load_rejects_magnitudes_that_could_overflow_squared_distances(
        tmp_path, block, fmt):
    ds = small_dataset()
    values = getattr(ds, block)
    limit = np.sqrt(np.finfo(np.float64).max / (8 * values.shape[1]))
    path = tmp_path / f"big.{fmt}"
    save = save_dataset if fmt == "emb1" else save_dataset_csv
    values[3, 1] = -limit  # the bound itself is accepted, on either sign
    save(ds, path)
    assert load_dataset(path).equals(ds)
    values[3, 1] = np.nextafter(limit, np.inf)
    save(ds, path)
    with pytest.raises(DataError, match=re.escape(f"{path}: {block} block has an "
                                                  f"entry of magnitude")):
        load_dataset(path)



# -- splitting ------------------------------------------------------------------

def test_by_fraction_all_train():
    ds = small_dataset()
    out = split_dataset(ds, SplitSpec("by_fraction", fractions=(1.0, 0.0, 0.0)),
                        np.random.default_rng(0))
    assert np.all(out.split == 0)

def test_split_partition_of_rows():
    ds = small_dataset(n=101)
    out = split_dataset(ds, SplitSpec("by_fraction", fractions=(0.7, 0.1, 0.2)),
                        np.random.default_rng(3))
    sizes = [out.split_indices(s).size for s in ("meta-train", "meta-val", "meta-test")]
    assert sum(sizes) == 101
    all_rows = np.concatenate([out.split_indices(s)
                               for s in ("meta-train", "meta-val", "meta-test")])
    assert np.unique(all_rows).size == 101

def test_by_class_keeps_classes_whole():
    rng = np.random.default_rng(4)
    ds = DataSet(raw=rng.standard_normal((50, 2)), labels=np.arange(50) % 10)
    spec = SplitSpec("by_class", class_lists=(list(range(7)), [7], [8, 9]))
    out = split_dataset(ds, spec, rng)
    for c in range(10):
        tags = np.unique(out.split[out.labels == c])
        assert tags.size == 1

def test_class_overlap_rejected():
    rng = np.random.default_rng(5)
    ds = DataSet(raw=rng.standard_normal((20, 2)), labels=np.arange(20) % 4)
    spec = SplitSpec("by_class", class_lists=([0, 1], [1, 2], [3]))
    with pytest.raises(ConfigError, match="overlap"):
        split_dataset(ds, spec, rng)

def test_character_scale_class_split():
    # 1623 classes split 1100/100/423
    labels = np.arange(1623)
    ds = DataSet(raw=np.zeros((1623, 2)), labels=labels)
    spec = SplitSpec("by_class", class_lists=(
        list(range(1100)), list(range(1100, 1200)), list(range(1200, 1623))))
    out = split_dataset(ds, spec, np.random.default_rng(0))
    sizes = [out.split_indices(s).size for s in ("meta-train", "meta-val", "meta-test")]
    assert sizes == [1100, 100, 423]


# -- PCA whitening -----------------------------------------------------------------

def test_whiten_identity_covariance_input():
    rng = np.random.default_rng(7)
    emb = rng.standard_normal((4000, 3))
    ds = DataSet(raw=np.zeros((4000, 1)), embeddings=emb)
    out = pca_whiten(ds, 3)
    rows = out.embeddings[out.split_indices("meta-train")]
    cov = np.cov(rows.T)
    assert np.allclose(cov, np.eye(3), atol=0.12)
    assert np.allclose(rows.mean(axis=0), 0.0, atol=1e-12)

def test_whiten_correlated_gaussian():
    rng = np.random.default_rng(8)
    cov = np.array([[1.0, 0.9], [0.9, 1.0]])
    emb = rng.multivariate_normal([3.0, -1.0], cov, size=10000)
    ds = DataSet(raw=np.zeros((10000, 1)), embeddings=emb)
    out = pca_whiten(ds, 2)
    sample_cov = np.cov(out.embeddings.T)
    assert np.abs(sample_cov - np.eye(2)).max() <= 0.05

def test_whiten_exact_on_stats_rows():
    # the stats rows themselves whiten to exactly identity sample covariance
    rng = np.random.default_rng(9)
    emb = rng.standard_normal((300, 4)) @ rng.standard_normal((4, 4))
    ds = DataSet(raw=np.zeros((300, 1)), embeddings=emb)
    out = pca_whiten(ds, 4)
    c = np.cov(out.embeddings.T)
    assert np.abs(c - np.eye(4)).max() <= 1e-6

def test_whiten_d_out_one_is_top_principal_axis():
    rng = np.random.default_rng(10)
    base = rng.standard_normal(2000)
    emb = np.stack([3.0 * base, 0.3 * rng.standard_normal(2000)], axis=1)
    ds = DataSet(raw=np.zeros((2000, 1)), embeddings=emb)
    out = pca_whiten(ds, 1)
    # explicit 2x2 eigendecomposition oracle
    c = np.cov(emb.T)
    w, v = np.linalg.eigh(c)
    top = v[:, np.argmax(w)]
    expect = (emb - emb.mean(axis=0)) @ top / np.sqrt(w.max())
    got = out.embeddings[:, 0]
    sign = np.sign(np.dot(got, expect))
    assert np.allclose(got, sign * expect, atol=1e-9)

def test_whiten_degenerate_direction_reports_floor():
    rng = np.random.default_rng(11)
    col = rng.standard_normal((50, 1))
    emb = np.concatenate([col, col], axis=1)  # rank 1
    ds = DataSet(raw=np.zeros((50, 1)), embeddings=emb)
    with pytest.raises(DataError, match="1e-10"):
        pca_whiten(ds, 2)

def test_whiten_row_order_invariance():
    rng = np.random.default_rng(12)
    emb = rng.standard_normal((500, 3)) @ rng.standard_normal((3, 3))
    ds = DataSet(raw=np.zeros((500, 1)), embeddings=emb)
    out1 = pca_whiten(ds, 2)
    perm = rng.permutation(500)
    ds2 = DataSet(raw=ds.raw[perm], embeddings=emb[perm])
    out2 = pca_whiten(ds2, 2)
    back = np.empty_like(out2.embeddings)
    back[perm] = out2.embeddings
    for j in range(2):
        sign = np.sign(np.dot(back[:, j], out1.embeddings[:, j]))
        assert np.allclose(back[:, j] * sign, out1.embeddings[:, j], atol=1e-8)

def test_whiten_requires_embeddings_and_valid_dims():
    ds = small_dataset(with_all=False)
    with pytest.raises(DataError):
        pca_whiten(ds, 1)
    ds2 = small_dataset()
    with pytest.raises(ConfigError):
        pca_whiten(ds2, 5)


# -- synthetic mixture ----------------------------------------------------------------

def test_zero_noise_collapses_classes():
    ds = synth_mixture(3, 4, 5, 2, noise=0.0, seed=13)
    for c in range(3):
        rows = ds.raw[ds.labels == c]
        assert np.all(rows == rows[0])
        emb = ds.embeddings[ds.labels == c]
        assert np.all(emb == emb[0])

def test_synth_deterministic():
    a = synth_mixture(4, 6, 3, 2, noise=0.2, seed=21)
    b = synth_mixture(4, 6, 3, 2, noise=0.2, seed=21)
    assert a.raw.tobytes() == b.raw.tobytes()
    assert a.embeddings.tobytes() == b.embeddings.tobytes()

def test_kmeans_recovers_generating_components():
    from scipy.optimize import linear_sum_assignment
    ds = synth_mixture(6, 30, 8, 4, noise=0.01, seed=22)
    part = kmeans(ds.embeddings, 6, seed=23, plusplus=True)
    # Hungarian-style best pairing between clusters and true components
    confusion = np.zeros((6, 6))
    for c, members in enumerate(part.clusters):
        for m in members:
            confusion[c, ds.labels[m]] += 1
    rows, cols = linear_sum_assignment(-confusion)
    assert confusion[rows, cols].sum() / ds.n >= 0.99
