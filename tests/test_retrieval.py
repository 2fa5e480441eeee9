"""Exhaustive cosine top-k retrieval against a brute-force oracle."""

import math

import numpy as np
import pytest

from searchbias import retrieval
from searchbias.core import DataError, EmbeddingTable
from searchbias.retrieval import retrieve_all, retrieve_topk


def oracle_topk(query, images, k):
    """Independent reference: fsum-based cosine, sort by (-score, file order)."""
    query = [float(x) for x in query]
    qn = math.sqrt(math.fsum(x * x for x in query))
    scored = []
    for pos, (iid, vec) in enumerate(images.records()):
        vec = [float(x) for x in vec]
        vn = math.sqrt(math.fsum(x * x for x in vec))
        s = math.fsum(a * b for a, b in zip(query, vec)) / (qn * vn)
        scored.append((min(1.0, max(-1.0, s)), pos, iid))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [iid for _, _, iid in scored[:k]]


def test_cosine_stays_clamped():
    """A vector against itself and scaled copies scores within [-1, 1].

    Unclamped, the kernel gives this vector +-1.0000000000000002 against
    every one of these copies.
    """
    v = np.full(9, 0.1234567891234)
    scales = [1.0, 2.0, 0.5, 3.0, 1e-3, -1.0, -7.0]
    images = EmbeddingTable([f"x{i}" for i in range(len(scales))], [c * v for c in scales])
    for query in (v, -v, 4.0 * v):
        scores = [s for _, s in retrieve_topk(query, images, k=len(scales)).ranked]
        assert all(-1.0 <= s <= 1.0 for s in scores)
        assert sorted(map(abs, scores)) == [1.0] * len(scales)


def test_topk_exact_example():
    images = EmbeddingTable(["a", "b", "c"], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    res = retrieve_topk([1.0, 0.0], images, k=2)
    assert res.ranked == [("a", 1.0), ("b", 0.0)]
    assert res.image_ids() == ["a", "b"]


def test_tie_break_is_file_order():
    images = EmbeddingTable(["z", "m", "a"], [[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    res = retrieve_topk([1.0, 0.0], images, k=3)
    assert res.image_ids() == ["z", "m", "a"]
    assert all(score == 1.0 for _, score in res.ranked)


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
        images = EmbeddingTable([f"i{j}" for j in range(n)], rng.standard_normal((n, d)))
        query = rng.standard_normal(d)
        k = int(rng.integers(1, n + 2))
        res = retrieve_topk(query, images, k)
        assert res.image_ids() == oracle_topk(query, images, k)
        assert len(res.ranked) == min(k, n)
        scores = [s for _, s in res.ranked]
        assert all(-1.0 <= s <= 1.0 for s in scores)
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))
        assert len(set(res.image_ids())) == len(res.ranked)


def test_scale_invariance():
    rng = np.random.default_rng(5)
    images = EmbeddingTable([f"i{j}" for j in range(40)], rng.standard_normal((40, 6)))
    q = rng.standard_normal(6)
    base = retrieve_topk(q, images, 10)
    # Power-of-two scaling is exact in binary floating point: identical bytes.
    assert retrieve_topk(4.0 * q, images, 10).ranked == base.ranked
    assert retrieve_topk(0.125 * q, images, 10).ranked == base.ranked
    # Arbitrary positive scaling must at least preserve the ranking.
    assert retrieve_topk(3.7 * q, images, 10).image_ids() == base.image_ids()


def test_monotone_containment():
    rng = np.random.default_rng(6)
    images = EmbeddingTable([f"i{j}" for j in range(25)], rng.standard_normal((25, 4)))
    q = rng.standard_normal(4)
    for k in range(1, 25):
        small = set(retrieve_topk(q, images, k).image_ids())
        big = set(retrieve_topk(q, images, k + 1).image_ids())
        assert small <= big


def test_retrieve_all_order_and_parallel_identity():
    rng = np.random.default_rng(7)
    images = EmbeddingTable([f"i{j}" for j in range(30)], rng.standard_normal((30, 5)))
    texts = EmbeddingTable([f"t{j}" for j in range(12)], rng.standard_normal((12, 5)))
    serial = retrieve_all(texts, images, k=5, threads=1)
    assert [r.text_id for r in serial] == list(texts.ids)
    parallel = retrieve_all(texts, images, k=5, threads=4)
    assert [r.ranked for r in parallel] == [r.ranked for r in serial]
    single = [retrieve_topk(texts.row(t), images, 5, text_id=t) for t in texts.ids]
    assert [r.ranked for r in single] == [r.ranked for r in serial]


def test_retrieve_all_empty_texts():
    images = EmbeddingTable(["a"], [[1.0]])
    texts = EmbeddingTable([], np.zeros((0, 1)))
    assert retrieve_all(texts, images, k=3) == []


def test_retrieval_validation():
    images = EmbeddingTable(["a"], [[1.0, 0.0]])
    with pytest.raises(DataError):
        retrieve_topk([1.0], images, 1)
    with pytest.raises(DataError):
        retrieve_topk([1.0, 0.0], images, 0)


def test_block_size_and_threads_do_not_change_bytes(monkeypatch):
    """Multi-block, multi-thread retrieval equals per-query retrieval byte for byte.

    Each image appears as a group of exact duplicates, power-of-two scaled
    copies (exactly tied cosines) and copies moved by one ulp (near-ties), so
    for many k the k-th place falls inside a group. Queries repeat the same
    way, so equal queries straddle block edges.
    """
    rng = np.random.default_rng(12)
    base = rng.standard_normal((9, 7))
    nudged = base.copy()
    nudged[:, 0] = np.nextafter(nudged[:, 0], np.inf)
    group = np.stack([base, base, 2.0 * base, 0.25 * base, nudged], axis=1)
    vectors = group.reshape(-1, 7)
    images = EmbeddingTable([f"i{j}" for j in range(len(vectors))], vectors)
    queries = np.concatenate([
        rng.standard_normal((4, 7)),
        np.repeat(base[:4], 2, axis=0),
        4.0 * base[4:7],
        nudged[7:],
        base[:4] + 1e-13 * rng.standard_normal((4, 7)),
    ])
    texts = EmbeddingTable([f"t{j}" for j in range(len(queries))], queries)
    for k in (1, 3, 4, 7, 22, len(vectors), len(vectors) + 5):
        single = [retrieve_topk(texts.row(t), images, k, text_id=t).ranked for t in texts.ids]
        for budget in (1, 3 * len(images), retrieval._BLOCK_ENTRIES):
            monkeypatch.setattr(retrieval, "_BLOCK_ENTRIES", budget)
            for threads in (1, 3):
                got = retrieve_all(texts, images, k, threads=threads)
                assert [r.ranked for r in got] == single, (k, budget, threads)
        monkeypatch.undo()
        # Repeated queries rank identically; tied images keep file order.
        assert single[4] == single[5] and single[6] == single[7]
        for ranked in single:
            keys = [(-s, int(iid[1:])) for iid, s in ranked]
            assert keys == sorted(keys)
