"""Exhaustive cosine-similarity retrieval over embedding tables.

One engine ranks every query. Image norms are computed once per table, and
so is a float32 copy of the unit image rows. Each block of queries is scored
with one float32 matrix product of its unit rows against that copy, and
`partition` keeps the top k plus every image whose float32 score lies within
a proven rounding margin of the k-th. Only those candidates are re-scored in
float64, each pair by the same fixed-order kernel (`_row_sums`), and ranked
by (-score, image row). The float32 product only narrows the candidates; the
emitted (id, score) pairs come from the kernel alone, so they do not depend
on the block size, the thread count or the BLAS build. The rankings come back
as one `RankedTable` of image rows and scores; no per-entry Python object is
made.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import DataError

# A block of queries holds at most the larger of _BLOCK_BYTES and a quarter
# of the float32 unit image table in float32 scores, so its memory stays a
# fraction of what retrieval already holds, but never fewer than _MIN_ROWS
# queries: each block's product re-packs the whole unit table, and few-row
# blocks pay that packing once per handful of queries.
_BLOCK_BYTES = 512 * 1024
_MIN_ROWS = 32
# Float64 entries per tile of the re-scoring kernel (256 KiB): it sets the
# pairs summed at a time, so memory stays bounded by the tile, never by
# candidates x dim or images x dim.
_TILE_ENTRIES = 32768

_TINY = np.finfo(np.float64).tiny


@dataclass(eq=False)
class RankedTable:
    """Every query's ranking as two (queries, width) arrays.

    rows[q, j] is the image row (in `image_ids`) of query q's (j + 1)-th best
    image and scores[q, j] its score; a ranking shorter than the width is
    padded with row -1. `image_index` maps an image id to its row. Its length
    is the number of queries.
    """

    text_ids: Sequence
    image_ids: Sequence = field(repr=False)
    image_index: Mapping = field(repr=False)
    rows: np.ndarray = field(repr=False)
    scores: np.ndarray = field(repr=False)

    def __len__(self):
        return len(self.text_ids)


def _tile_pairs(dim):
    """Row pairs per tile of the kernel for vectors of `dim` components."""
    return max(1, _TILE_ENTRIES // dim)


def _row_sums(prod, work):
    """Sum of each row of `prod`, strictly left to right: the fixed-order kernel.

    The rows are copied into `work` as a C-ordered (dim, rows) array and summed
    over its first axis, so numpy adds whole rows of it: each row's sum runs
    left to right while the adds run vectorised across rows. A row's sum so
    depends only on that row: not on which other rows share the call, on the
    tiling, or on any BLAS library. Starting from -0.0 leaves the first term
    as it is, as a running sum does. numpy sums a single column pairwise, so
    one row takes `cumsum`. `work` holds at least prod.size floats; a loop
    over tiles passes the same buffer to every call.
    """
    m, dim = prod.shape
    if m == 1:
        return np.cumsum(prod[0])[-1:]
    cols = work[: m * dim].reshape(dim, m)
    np.copyto(cols, prod.T)
    return np.add.reduce(cols, axis=0, initial=-0.0)


def _row_dots(a, b):
    """Dot product of each row of `a` with the same row of `b`, by the kernel."""
    out = np.empty(len(a))
    step = _tile_pairs(a.shape[1])
    prod, work = np.empty((2, min(step, len(a)) * a.shape[1]))
    for lo in range(0, len(a), step):
        x, y = a[lo : lo + step], b[lo : lo + step]
        out[lo : lo + step] = _row_sums(np.multiply(x, y, out=prod[: x.size].reshape(x.shape)), work)
    return out


def row_norms(vectors, ids=None):
    """Euclidean norm of every row, by the fixed-order kernel, in bounded tiles.

    A row whose squared norm overflows, or falls below the smallest normal
    float, is scaled by a power of two first and its norm scaled back, so
    other rows keep their bytes. A zero row has norm 0. A nonzero row whose
    norm itself is not a normal float raises DataError naming the row (by
    `ids`, else by index), since dividing by it would not give a unit row.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):  # such rows are rescaled below
        out = _row_dots(vectors, vectors)
    bad = np.flatnonzero((out < _TINY) | (out == np.inf))
    np.sqrt(out, out=out)
    if bad.size:
        rows = vectors[bad]
        exp = np.frexp(np.abs(rows).max(axis=1))[1]
        scaled = np.ldexp(rows, -exp[:, None])
        with np.errstate(over="ignore", under="ignore"):  # such norms are refused below
            out[bad] = norms = np.ldexp(np.sqrt(_row_dots(scaled, scaled)), exp)
        wrong = bad[(norms != 0.0) & ~((norms >= _TINY) & (norms < np.inf))]
        if wrong.size:
            row = int(wrong[0])
            name = repr(ids[row]) if ids is not None else f"at row {row}"
            raise DataError(f"vector {name} has a norm outside the float64 range")
    return out


def _margin(dim):
    """Candidate margin, in cosine units, for float32 scores of `dim` components.

    Both vectors enter the float32 product as unit rows from the kernel's
    float64 division, rounded to float32 (relative error u = 2^-24 per
    component). A float32 dot product of `dim` terms, summed in any order,
    lies within (dim + 2) u of the exact dot product of those float64 unit
    rows, up to terms of order dim^2 u^2 and underflow below 2^-140; the
    kernel's float64 cosine lies within (dim + 2) 2^-53 of it. So a float32
    score and the kernel's cosine differ by at most g = (dim + 3) u, and an
    image whose score is more than 2g below the k-th score ranks below all k
    of those images under the kernel as well, clamping to [-1, 1] included.
    The margin, (8 dim + 16) float32 epsilons, is 2g with a factor of more
    than 5 to spare.
    """
    return (8 * dim + 16) * float(np.finfo(np.float32).eps)


def _rank_block(queries, qnorms, images, inorms, units, k):
    """The top k of each query in a block, by (-score, image row): its image
    rows and scores, two (queries, min(k, N)) arrays."""
    vectors = images.vectors
    n = vectors.shape[0]
    # Unit vectors by division, one rounding per component. Scaling a vector
    # by a power of two leaves its unit vector, so its scores, bit-identical;
    # collinear pairs need not reach +-1 exactly.
    qunits = queries / qnorms[:, None]
    k = min(k, n)
    scores = qunits.astype(np.float32) @ units.T
    # The k-th score of each row, partitioned a few rows at a time, so no
    # second copy of the block is made. With k = n it is the row's minimum,
    # and every image is a candidate.
    kth = np.empty(len(scores), dtype=np.float32)
    per = max(1, _TILE_ENTRIES // n)
    for lo in range(0, len(scores), per):
        kth[lo : lo + per] = np.partition(scores[lo : lo + per], n - k, axis=1)[:, n - k]
    # The floor is computed in float64, then rounded down onto the float32
    # grid, so a float32 comparison with it is exact.
    floor = kth.astype(np.float64) - _margin(images.dim)
    low = floor.astype(np.float32)
    low = np.where(low > floor, np.nextafter(low, np.float32(-np.inf)), low)
    qrow, irow = np.divmod(np.flatnonzero(scores >= low[:, None]), n)
    del scores, kth  # free the block before the candidates' copies are made
    exact = np.empty(len(qrow))
    step = _tile_pairs(images.dim)
    # Gather buffers and kernel work space, reused by every tile.
    x, y, work = np.empty((3, min(step, len(qrow)), images.dim))
    for lo in range(0, len(qrow), step):
        q, i = qrow[lo : lo + step], irow[lo : lo + step]
        a, b = x[: len(q)], y[: len(q)]
        # mode="clip" only spares `take` a buffered copy; every index is valid.
        np.take(qunits, q, axis=0, out=a, mode="clip")
        np.take(vectors, i, axis=0, out=b, mode="clip")
        np.divide(b, inorms[i, None], out=b)
        exact[lo : lo + step] = _row_sums(np.multiply(a, b, out=a), work.ravel())
    np.clip(exact, -1.0, 1.0, out=exact)
    # Candidates come by query, then in ascending image row. Each query's run
    # is laid out as one row of a matrix padded with +inf, at each candidate's
    # offset within the run, so one stable sort per row by -score breaks ties
    # by file order (and -0.0 equals 0.0). The matrix and the sort's indices,
    # (queries x widest run) each, are at most twice the float32 block's
    # bytes, freed above. Every query has at least k candidates; the first k
    # of its row are its top k.
    counts = np.bincount(qrow, minlength=len(queries))
    starts = np.cumsum(counts) - counts
    padded = np.full((len(queries), int(counts.max())), np.inf)
    padded[qrow, np.arange(len(qrow)) - starts[qrow]] = -exact
    keep = starts[:, None] + np.argsort(padded, axis=1, kind="stable")[:, :k]
    return irow[keep], exact[keep]


def retrieve_all(texts, images, k, threads=1):
    """Rank the images for every text, preserving text file order.

    Returns a `RankedTable` of min(k, len(images)) columns over the image
    table's rows. `threads` must be at least 1; more spread query blocks over
    a thread pool. Each text gets the same bytes whatever the thread count
    and whatever other texts share the table.
    """
    if texts.dim != images.dim:
        raise DataError(f"text dim {texts.dim} does not match image dim {images.dim}")
    if k < 1:
        raise DataError("k must be >= 1")
    if threads < 1:
        raise DataError("threads must be >= 1")
    if len(texts) == 0:
        width = min(k, len(images))
        return RankedTable(
            texts.ids, images.ids, images.index,
            np.empty((0, width), dtype=np.int64), np.empty((0, width)),
        )
    if len(images) == 0:
        raise DataError("cannot retrieve from an empty image table")
    queries, vectors = texts.vectors, images.vectors
    inorms = row_norms(vectors, images.ids)
    # The table refuses all-zero rows, and a nonzero row's norm is positive.
    qnorms = row_norms(queries, texts.ids)
    # The float32 unit rows (N x dim x 4 bytes) come from the kernel's own
    # float64 division, rounded once more; no float64 copy is made.
    units = np.empty(vectors.shape, dtype=np.float32)
    np.divide(vectors, inorms[:, None], out=units, casting="same_kind")
    budget = max(_BLOCK_BYTES, vectors.size)  # a quarter of the unit table's bytes
    rows = max(_MIN_ROWS, budget // (4 * len(images)))
    starts = range(0, len(queries), rows)

    def block(lo):
        return _rank_block(
            queries[lo : lo + rows], qnorms[lo : lo + rows], images, inorms, units, k
        )

    if threads == 1 or len(starts) < 2:
        blocks = [block(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(block, starts))
    rows, scores = (np.concatenate(parts) for parts in zip(*blocks))
    return RankedTable(texts.ids, images.ids, images.index, rows, scores)
