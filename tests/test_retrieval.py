"""Exhaustive cosine top-k retrieval against a brute-force oracle."""

import functools
import math
import operator
import sys

import numpy as np
import pytest

from searchbias import retrieval
from searchbias.core import DataError, EmbeddingTable
from searchbias.retrieval import retrieve_all


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


def _lr_sum(terms):
    """Strictly left-to-right float sum, starting from the first term."""
    return functools.reduce(operator.add, terms)


def _norm(vec):
    """The kernel's norm: a left-to-right sum of squares, rescaled by a power
    of two when that sum overflows or falls below the smallest normal."""
    total = _lr_sum(x * x for x in vec)
    if sys.float_info.min <= total < math.inf:
        return math.sqrt(total)
    exp = math.frexp(max(abs(x) for x in vec))[1]
    scaled = [math.ldexp(x, -exp) for x in vec]
    return math.ldexp(math.sqrt(_lr_sum(x * x for x in scaled)), exp)


def _oracle(query, images, k):
    """Pure-Python reference of the emitted bytes: (image id, score) pairs.

    Each score is the kernel's: both vectors divided by their norms, products
    summed left to right, clamped to [-1, 1]; ranked by (-score, file order).
    """
    query = [float(x) for x in query]
    qn = _norm(query)
    unit = [x / qn for x in query]
    scored = []
    for pos, (iid, vec) in enumerate(images.records()):
        vec = [float(x) for x in vec]
        vn = _norm(vec)
        s = _lr_sum(a * (b / vn) for a, b in zip(unit, vec))
        scored.append((min(1.0, max(-1.0, s)), pos, iid))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [(iid, s) for s, _, iid in scored[:k]]


def pairs(table):
    """Each query's (image id, score) pairs, best first, read from a RankedTable."""
    ids = table.image_ids
    return [
        [(ids[r], s) for r, s in zip(rows, scores)]
        for rows, scores in zip(table.rows.tolist(), table.scores.tolist())
    ]


def topk(query, images, k, text_id="query"):
    """One query's pairs: `retrieve_all` on a one-row text table."""
    return pairs(retrieve_all(EmbeddingTable([text_id], [query]), images, k))[0]


def test_cosine_stays_clamped():
    """A vector against itself and scaled copies scores within [-1, 1].

    Unclamped, the kernel gives this vector +-1.0000000000000002 against
    every one of these copies.
    """
    v = np.full(9, 0.1234567891234)
    scales = [1.0, 2.0, 0.5, 3.0, 1e-3, -1.0, -7.0]
    images = EmbeddingTable([f"x{i}" for i in range(len(scales))], [c * v for c in scales])
    for query in (v, -v, 4.0 * v):
        scores = [s for _, s in topk(query, images, k=len(scales))]
        assert all(-1.0 <= s <= 1.0 for s in scores)
        assert sorted(map(abs, scores)) == [1.0] * len(scales)


def test_topk_exact_example():
    images = EmbeddingTable(["a", "b", "c"], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    assert topk([1.0, 0.0], images, k=2) == [("a", 1.0), ("b", 0.0)]


def test_tie_break_is_file_order():
    images = EmbeddingTable(["z", "m", "a"], [[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    assert topk([1.0, 0.0], images, k=3) == [("z", 1.0), ("m", 1.0), ("a", 1.0)]


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
        images = EmbeddingTable([f"i{j}" for j in range(n)], rng.standard_normal((n, d)))
        query = rng.standard_normal(d)
        k = int(rng.integers(1, n + 2))
        ranked = topk(query, images, k)
        ids = [iid for iid, _ in ranked]
        assert ids == oracle_topk(query, images, k)
        assert ranked == _oracle(query, images, k)
        assert len(ranked) == min(k, n)
        scores = [s for _, s in ranked]
        assert all(-1.0 <= s <= 1.0 for s in scores)
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))
        assert len(set(ids)) == len(ranked)


def test_scale_invariance():
    rng = np.random.default_rng(5)
    images = EmbeddingTable([f"i{j}" for j in range(40)], rng.standard_normal((40, 6)))
    q = rng.standard_normal(6)
    base = topk(q, images, 10)
    # Power-of-two scaling is exact in binary floating point: identical bytes.
    assert topk(4.0 * q, images, 10) == base
    assert topk(0.125 * q, images, 10) == base
    # Arbitrary positive scaling must at least preserve the ranking.
    assert [iid for iid, _ in topk(3.7 * q, images, 10)] == [iid for iid, _ in base]


def test_monotone_containment():
    rng = np.random.default_rng(6)
    images = EmbeddingTable([f"i{j}" for j in range(25)], rng.standard_normal((25, 4)))
    q = rng.standard_normal(4)
    for k in range(1, 25):
        small = {iid for iid, _ in topk(q, images, k)}
        big = {iid for iid, _ in topk(q, images, k + 1)}
        assert small <= big


def test_retrieve_all_order_and_parallel_identity():
    rng = np.random.default_rng(7)
    images = EmbeddingTable([f"i{j}" for j in range(30)], rng.standard_normal((30, 5)))
    texts = EmbeddingTable([f"t{j}" for j in range(12)], rng.standard_normal((12, 5)))
    serial = retrieve_all(texts, images, k=5, threads=1)
    assert list(serial.text_ids) == list(texts.ids)
    parallel = retrieve_all(texts, images, k=5, threads=4)
    assert pairs(parallel) == pairs(serial)
    single = [topk(texts.row(t), images, 5, text_id=t) for t in texts.ids]
    assert single == pairs(serial)


def test_retrieve_all_empty_texts():
    images = EmbeddingTable(["a"], [[1.0]])
    texts = EmbeddingTable([], np.zeros((0, 1)))
    empty = retrieve_all(texts, images, k=3)
    assert len(empty) == 0 and pairs(empty) == []


def test_retrieve_all_refuses_k_below_one_whatever_the_texts_hold():
    images = EmbeddingTable(["a"], [[1.0]])
    for texts in (EmbeddingTable([], np.zeros((0, 1))), EmbeddingTable(["t"], [[1.0]])):
        for k in (0, -1):
            with pytest.raises(DataError, match="k must be >= 1"):
                retrieve_all(texts, images, k=k)


def test_retrieval_validation():
    images = EmbeddingTable(["a"], [[1.0, 0.0]])
    with pytest.raises(DataError, match="^all-zero vector at id 't'$"):
        retrieve_all(EmbeddingTable(["t"], [[0.0, 0.0]]), images, 1)
    with pytest.raises(DataError, match="^id at row 0 must be a non-empty string, got ''$"):
        retrieve_all(EmbeddingTable([""], [[1.0, 0.0]]), images, 1)
    for texts in (EmbeddingTable([], np.zeros((0, 2))), EmbeddingTable(["t"], [[1.0, 0.0]])):
        for threads in (0, -3):
            with pytest.raises(DataError, match="threads must be >= 1"):
                retrieve_all(texts, images, 1, threads=threads)
    with pytest.raises(DataError, match="^text dim 1 does not match image dim 2$"):
        retrieve_all(EmbeddingTable(["t"], [[1.0]]), images, 1)
    with pytest.raises(DataError, match="^cannot retrieve from an empty image table$"):
        retrieve_all(EmbeddingTable(["t"], [[1.0, 0.0]]), EmbeddingTable([], np.zeros((0, 2))), 1)


def _check_settings(monkeypatch, texts, images, k, expect):
    """retrieve_all gives `expect` at every setting of the private constants
    and thread count: the module's own, 1-row blocks with 1-pair tiles, blocks
    set by the row floor or by the byte bound, and tiles of 2 or 3 pairs, so
    block and tile edges fall between equal queries and inside one query's
    candidates."""
    dim, row_bytes = images.dim, 4 * len(images)
    for setting in [
        {},
        dict(_BLOCK_BYTES=1, _MIN_ROWS=1, _TILE_ENTRIES=1),
        dict(_BLOCK_BYTES=1, _MIN_ROWS=2, _TILE_ENTRIES=2 * dim),
        dict(_BLOCK_BYTES=5 * row_bytes, _MIN_ROWS=1, _TILE_ENTRIES=3 * dim),
        dict(_BLOCK_BYTES=1, _MIN_ROWS=3, _TILE_ENTRIES=3 * dim - 1),
    ]:
        for name, value in setting.items():
            monkeypatch.setattr(retrieval, name, value)
        for threads in (1, 3):
            got = retrieve_all(texts, images, k, threads=threads)
            assert pairs(got) == expect, (k, setting, threads)
        monkeypatch.undo()


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
        single = [topk(texts.row(t), images, k, text_id=t) for t in texts.ids]
        assert single == [_oracle(texts.row(t), images, k) for t in texts.ids]
        _check_settings(monkeypatch, texts, images, k, single)
        # Repeated queries rank identically; tied images keep file order.
        assert single[4] == single[5] and single[6] == single[7]
        for ranked in single:
            keys = [(-s, int(iid[1:])) for iid, s in ranked]
            assert keys == sorted(keys)


def test_float32_near_ties_keep_their_float64_order(monkeypatch):
    """Cosines 1e-10 apart, far below float32 resolution, rank as the oracle does.

    The float32 pass cannot order these images, so the top k of the kernel
    must come through its margin. Scaling either table by 2^100 or 2^-100
    leaves every byte as it is.
    """
    rng = np.random.default_rng(21)
    dim, ties = 7, 24
    query = rng.standard_normal(dim)
    query /= np.linalg.norm(query)
    cosines = 0.8 + 1e-10 * rng.permutation(ties)
    # Unit directions orthogonal to the query, one per tied image.
    side = rng.standard_normal((ties, dim))
    side -= (side @ query)[:, None] * query
    side /= np.linalg.norm(side, axis=1, keepdims=True)
    tied = cosines[:, None] * query + np.sqrt(1.0 - cosines**2)[:, None] * side
    distract = rng.standard_normal((30, dim))
    distract -= (np.abs(distract @ query) + 1.0)[:, None] * query
    vectors = np.concatenate([distract[:15], tied, distract[15:]])
    queries = np.stack([query, query + 1e-9 * rng.standard_normal(dim), -query])
    ids = [f"i{j}" for j in range(len(vectors))]
    base = {}
    for scale in (1.0, 2.0**100, 2.0**-100):
        images = EmbeddingTable(ids, scale * vectors)
        texts = EmbeddingTable(["a", "b", "c"], queries / scale)
        for k in (1, 5, 12, ties - 1, ties, ties + 3):
            expect = [_oracle(q, images, k) for q in texts.vectors]
            assert base.setdefault(k, expect) == expect
            _check_settings(monkeypatch, texts, images, k, expect)
        # The k-th place falls inside the tied run.
        assert {iid for iid, _ in base[12][0]} < {f"i{j}" for j in range(15, 15 + ties)}


@pytest.mark.parametrize("dim", [1, 2, 7, 512])
def test_kernel_sums_each_pair_left_to_right(dim):
    """The kernel equals a pure-Python left-to-right sum, bit for bit.

    numpy sums pairwise, without warning, a single column and an F-ordered
    array such as the result of `a[:, idx]`. So the pair counts straddle a
    tile edge (the last tile may hold one pair), and F-ordered and
    fancy-indexed inputs are included. The first pair's products are all
    -0.0, which a running sum keeps.
    """
    rng = np.random.default_rng(dim)
    tile = retrieval._tile_pairs(dim)
    idx = rng.permutation(dim + 3)[:dim]
    for pairs in sorted({1, 2, tile - 1, tile, tile + 1} - {0}):
        # Terms of wide-ranging size make the order of additions visible.
        a = rng.standard_normal((pairs, dim)) * 2.0 ** rng.integers(-20, 20, (pairs, dim))
        b = rng.standard_normal((pairs, dim))
        a[0], b[0] = 1.0, -0.0
        wide = np.zeros((pairs, dim + 3))
        wide[:, idx] = a
        for x, y in ((a, b), (np.asfortranarray(a), np.asfortranarray(b)), (wide[:, idx], b)):
            want = [_lr_sum(p * q for p, q in zip(rx, ry)) for rx, ry in zip(x.tolist(), y.tolist())]
            assert retrieval._row_dots(x, y).tobytes() == np.array(want).tobytes(), (pairs, x.flags)
            assert np.signbit(retrieval._row_dots(x, y)[0])
        norms = retrieval.row_norms(np.asfortranarray(a))
        want = [math.sqrt(_lr_sum(p * p for p in row)) for row in a.tolist()]
        assert norms.tobytes() == np.array(want).tobytes()


def test_norms_outside_float_range_give_true_cosines():
    """A squared norm that overflows or underflows is rescaled, not lost.

    Before, [1e200, 1e200] scored 0.0 against [1, 0], [1e-200, 1e-200] scored
    nan, and a query [1e-200, 1e-200] was refused as a zero vector.
    """
    vectors = [[1e200, 1e200], [1e-200, 1e-200], [3.0, -4.0], [1e-200, 3e-201], [-1e300, 2e299]]
    images = EmbeddingTable(["big", "small", "plain", "tiny", "huge"], vectors)
    for query in ([1.0, 0.0], [1e-200, 1e-200], [-1e300, 1e300], [0.6, 0.8]):
        for k in range(1, 6):
            assert topk(query, images, k) == _oracle(query, images, k)
    scores = dict(topk([1.0, 0.0], images, 5))
    assert scores["big"] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert scores["small"] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    # Power-of-two scaling leaves the unit rows, so the bytes, as they are,
    # in range or not.
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((20, 5))
    texts = EmbeddingTable([f"t{j}" for j in range(4)], rng.standard_normal((4, 5)))
    base = retrieve_all(texts, EmbeddingTable([f"i{j}" for j in range(20)], vecs), 6)
    for scale in (2.0**600, 2.0**-600):
        scaled = vecs.copy()
        scaled[::3] *= scale
        images = EmbeddingTable([f"i{j}" for j in range(20)], scaled)
        texts_scaled = EmbeddingTable(texts.ids, texts.vectors * scale)
        got = retrieve_all(texts_scaled, images, 6)
        assert pairs(got) == pairs(base)


def test_norm_that_is_not_a_normal_float_is_refused():
    """A row whose norm overflows, or is subnormal, is named, never scored."""
    images = EmbeddingTable(["ok", "huge"], [[1.0, 0.0], [1.5e308, 1.5e308]])
    with pytest.raises(DataError, match="'huge' has a norm outside the float64 range"):
        topk([1.0, 0.0], images, 1)
    images = EmbeddingTable(["ok", "sub"], [[1.0, 0.0], [2.0**-1074, 2.0**-1074]])
    with pytest.raises(DataError, match="'sub' has a norm"):
        topk([1.0, 0.0], images, 1)
    images = EmbeddingTable(["ok"], [[1.0, 0.0]])
    with pytest.raises(DataError, match="'q' has a norm"):
        topk([1e-310, 0.0], images, 1, text_id="q")


def test_ranked_table_holds_what_per_query_retrieval_gives():
    """retrieve_all's table holds image rows and scores; each query's row
    equals that query's own one-row retrieval."""
    rng = np.random.default_rng(14)
    images = EmbeddingTable([f"i{j}" for j in range(6)], rng.standard_normal((6, 3)))
    texts = EmbeddingTable([f"t{j}" for j in range(4)], rng.standard_normal((4, 3)))
    for k in (3, 6, 9):
        table = retrieve_all(texts, images, k)
        single = [topk(texts.row(t), images, k, text_id=t) for t in texts.ids]
        width = min(k, len(images))
        assert table.rows.shape == table.scores.shape == (4, width)
        assert table.rows.dtype == np.int64 and table.scores.dtype == np.float64
        assert len(table) == 4 and list(table.text_ids) == list(texts.ids)
        assert [[images.ids[r] for r in row] for row in table.rows.tolist()] == [
            [iid for iid, _ in ranked] for ranked in single
        ]
        assert table.scores.tolist() == [[s for _, s in ranked] for ranked in single]
    empty = retrieve_all(EmbeddingTable([], np.zeros((0, 3))), images, 9)
    assert len(empty) == 0 and not empty and empty.rows.shape == (0, 6)


def _lexsort_reference(texts, images, k):
    """Every (query, image) pair a candidate, scored by the kernel and ranked
    by one stable lexsort by (query, -score): rows and scores of each top k."""
    n = len(images)
    qunits = texts.vectors / retrieval.row_norms(texts.vectors)[:, None]
    iunits = images.vectors / retrieval.row_norms(images.vectors)[:, None]
    qrow = np.repeat(np.arange(len(texts)), n)
    irow = np.tile(np.arange(n), len(texts))
    exact = np.clip(retrieval._row_dots(qunits[qrow], iunits[irow]), -1.0, 1.0)
    keep = np.lexsort((-exact, qrow)).reshape(len(texts), n)[:, :k]
    return irow[keep], exact[keep]


def test_row_sort_matches_a_lexsort_reference():
    rng = np.random.default_rng(3)
    spread = rng.standard_normal((30, 3))
    # Below the xy-plane, and x <= 0 < y: every one scores below zero for
    # the query along (1, -1, -0).
    spread[:, 0], spread[:, 1], spread[:, 2] = -abs(spread[:, 0]), abs(spread[:, 1]) + 0.1, -abs(spread[:, 2])
    # 24 equal rows up the z axis, alternately with x = -0.0: the query
    # along z ties on all of them at 1, and the query along (1, -1, -0) on
    # all of them at 0.0 and -0.0 alike, so both have far more candidates
    # than the queries near one spread row.
    up = np.zeros((24, 3))
    up[:, 2] = 1.0
    up[::2, 0] = -0.0
    vectors = np.vstack([spread[:10], up, spread[10:]])
    images = EmbeddingTable([f"i{j}" for j in range(len(vectors))], vectors)
    queries = np.vstack([[0.0, 0.0, 2.0], [1.0, -1.0, -0.0], spread[:6] + 0.01 * rng.standard_normal((6, 3))])
    texts = EmbeddingTable([f"t{j}" for j in range(len(queries))], queries)
    for k in (1, 5, 30, len(images)):
        got = retrieve_all(texts, images, k)
        rows, scores = _lexsort_reference(texts, images, k)
        assert np.array_equal(got.rows, rows), k
        assert got.scores.tobytes() == scores.tobytes(), k
    # The signed zeros tie: the zero query's top 5 are the first five up rows.
    assert got.rows[1, :5].tolist() == list(range(10, 15))
    assert sorted({math.copysign(1.0, s) for s in got.scores[1, :24]}) == [-1.0, 1.0]
