"""Exhaustive cosine-similarity retrieval over embedding tables.

One engine ranks every query. Image norms are computed once per table. Each
block of queries is scored with one matrix product against the raw image
table, and `argpartition`-style selection keeps the top k plus every image
whose product score lies within a proven rounding margin of the k-th score.
Only those candidates are re-scored, each pair by the same fixed-order kernel
(`_row_dots`), and ranked by (-score, image row). The product only narrows
the candidates; the emitted (id, score) pairs come from the kernel alone, so
they do not depend on the block size, the thread count or the BLAS build.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import DataError

# Float64 entries per block of work (256 KiB): it sets the query rows scored
# per matrix product and the candidate pairs re-scored at a time, so memory
# stays bounded by the block, never by queries x images or images x dim.
_BLOCK_ENTRIES = 32768


def cosine(v, c):
    """Cosine similarity of two vectors, clamped to [-1, 1] against float drift."""
    v = np.asarray(v, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if v.shape != c.shape or v.ndim != 1:
        raise DataError(f"cosine needs two equal-length vectors, got {v.shape} and {c.shape}")
    nv2 = float(np.dot(v, v))
    nc2 = float(np.dot(c, c))
    if nv2 == 0.0 or nc2 == 0.0:
        raise DataError("cosine undefined for a zero vector")
    # One sqrt of the product keeps collinear pairs at exactly +-1.
    return float(min(1.0, max(-1.0, float(np.dot(v, c)) / math.sqrt(nv2 * nc2))))


@dataclass
class RetrievalResult:
    """Top-k images for one query: (image_id, score) pairs, best first."""

    text_id: str
    ranked: list

    def image_ids(self):
        return [iid for iid, _ in self.ranked]


def _row_dots(a, b):
    """Dot product of each row of `a` with the same row of `b`, in fixed order.

    Each sum runs strictly left to right over the columns, so a pair's value
    depends only on its two rows: not on which other rows share the call, on
    the chunking, or on any BLAS library.
    """
    prod = a * b
    np.cumsum(prod, axis=1, out=prod)
    return prod[:, -1]


def row_norms(vectors):
    """Euclidean norm of every row, by the fixed-order kernel, in bounded chunks."""
    vectors = np.asarray(vectors, dtype=np.float64)
    out = np.empty(vectors.shape[0])
    step = max(1, _BLOCK_ENTRIES // vectors.shape[1])
    for lo in range(0, vectors.shape[0], step):
        chunk = vectors[lo : lo + step]
        out[lo : lo + step] = np.sqrt(_row_dots(chunk, chunk))
    return out


def _margin(dim):
    """Candidate margin, in cosine units, for vectors of `dim` components.

    A product score and the kernel's cosine each lie within about
    (2 dim + 4) unit roundoffs of the exact cosine (a dot product of `dim`
    terms summed in any order, two norms, divisions), for vectors whose
    squared norms neither overflow nor underflow. So the two differ by at most
    g = (4 dim + 8) roundoffs, and an image whose product score is more than
    2g below the k-th product score ranks below all k of those images under
    the kernel as well. The margin is 2g with a factor of 2 to spare.
    """
    return (8 * dim + 16) * np.finfo(np.float64).eps


def _rank_block(queries, qnorms, images, inorms, k):
    """Top-k (image id, score) lists for a block of queries, by (-score, row)."""
    vectors = images.vectors
    n = vectors.shape[0]
    scores = queries @ vectors.T
    scores /= inorms
    if k < n:
        kth = np.partition(scores, n - k, axis=1)[:, n - k]
        floor = kth - _margin(images.dim) * qnorms
        qrow, irow = np.nonzero(scores >= floor[:, None])
    else:
        qrow, irow = np.divmod(np.arange(len(queries) * n), n)
    del scores  # free the block before the candidates' copies are made
    exact = np.empty(len(qrow))
    step = max(1, _BLOCK_ENTRIES // images.dim)
    for lo in range(0, len(qrow), step):
        q, i = qrow[lo : lo + step], irow[lo : lo + step]
        # Division, not a reciprocal product, keeps collinear pairs at +-1.
        exact[lo : lo + step] = _row_dots(
            queries[q] / qnorms[q, None], vectors[i] / inorms[i, None]
        )
    np.clip(exact, -1.0, 1.0, out=exact)
    ids = images.ids
    bounds = np.searchsorted(qrow, np.arange(len(queries) + 1)).tolist()
    ranked = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        # A query's candidates come in ascending image row, so a stable sort
        # on -score breaks ties by file order.
        keep = start + np.argsort(-exact[start:stop], kind="stable")[:k]
        ranked.append([(ids[i], s) for i, s in zip(irow[keep].tolist(), exact[keep].tolist())])
    return ranked


def _rank(queries, images, k, threads=1):
    """Ranked (image id, score) lists for every row of `queries`, in row order."""
    if k < 1:
        raise DataError("k must be >= 1")
    if len(images) == 0:
        raise DataError("cannot retrieve from an empty image table")
    inorms = row_norms(images.vectors)
    qnorms = row_norms(queries)
    if not np.all(qnorms > 0.0):
        raise DataError("zero query vector")
    rows = max(1, _BLOCK_ENTRIES // len(images))
    starts = range(0, len(queries), rows)

    def block(lo):
        return _rank_block(queries[lo : lo + rows], qnorms[lo : lo + rows], images, inorms, k)

    if threads <= 1 or len(starts) < 2:
        blocks = [block(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(block, starts))
    return [ranked for part in blocks for ranked in part]


def retrieve_topk(query, images, k, text_id="query"):
    """Exhaustively score `query` against every image and keep the top k.

    Ties are broken by image file order (earlier row wins). Returns
    min(k, len(images)) entries, the same bytes `retrieve_all` gives this query.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1 or query.shape[0] != images.dim:
        raise DataError(f"query dim {query.shape} does not match image dim {images.dim}")
    if not np.all(np.isfinite(query)):
        raise DataError("non-finite query vector")
    (ranked,) = _rank(query[None, :], images, k)
    return RetrievalResult(text_id=text_id, ranked=ranked)


def retrieve_all(texts, images, k, threads=1):
    """Rank the images for every text, preserving text file order.

    `threads` > 1 spreads query blocks over a thread pool. Each text gets
    exactly the bytes `retrieve_topk` gives it, whatever the thread count.
    """
    if texts.dim != images.dim:
        raise DataError(f"text dim {texts.dim} does not match image dim {images.dim}")
    if len(texts) == 0:
        return []
    ranked = _rank(texts.vectors, images, k, threads=threads)
    return [RetrievalResult(text_id=tid, ranked=r) for tid, r in zip(texts.ids, ranked)]
