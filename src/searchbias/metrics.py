"""Bias and recall metrics for retrieval results.

The headline number is the top-k gender skew: for one query,
delta = (N_male - N_female) / (N_male + N_female) over the retrieved images,
defined as 0 when no gendered image is retrieved. Averaging delta over
queries gives the corpus-level bias; +1 means all-male retrievals, -1
all-female. The male share of gendered retrievals is (1 + bias) / 2.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import DataError, gender_codes
from .retrieval import row_norms

# The row a truth id not in the image table maps to: no ranked row and no
# padding (-1) equals it, so it is never a hit.
_NO_ROW = -2


class UndefinedBiasError(DataError):
    """An occupation term has no Male or no Female image to compare against."""


@dataclass
class BiasReport:
    k: int
    bias_at_k: float
    per_query: dict = field(repr=False)
    n_queries: int

    @property
    def male_share(self):
        return (1.0 + self.bias_at_k) / 2.0


@dataclass
class RecallReport:
    k: int
    recall_at_k: float
    n_queries: int


@dataclass
class MetricCurve:
    """Per-query gender skew and ground-truth hits at every cutoff k = 1..k_max.

    deltas[q, k - 1] is the q-th result's skew at cutoff k; hits[q, k - 1]
    says whether its ground-truth image is among its first k. Either is None
    when the curve was built without the map it needs.
    """

    text_ids: list
    deltas: np.ndarray = field(repr=False)
    hits: np.ndarray = field(repr=False)

    def biases(self):
        """Bias@k at every cutoff k = 1..k_max: the mean per-query skew, summed exactly."""
        n = len(self.text_ids)
        return [math.fsum(column) / n for column in self.deltas.T.tolist()]

    def recalls(self):
        """Recall@k at every cutoff k = 1..k_max: the fraction of queries whose
        ground-truth image is in the top k."""
        n = len(self.text_ids)
        return [hits / n for hits in self.hits.sum(axis=0).tolist()]


def metric_curve(results, k_max, labels=None, truth=None):
    """Build the deltas (given `labels`) and hits (given `truth`) up to k_max in one pass.

    `results` is a `RankedTable`, as `retrieve_all` returns. One Q x k_max matrix
    holds each query's label codes (+1 Male, -1 Female, 0 otherwise or past
    the end of a short ranking), read by image row, and its cumulative sums
    count both genders at every cutoff at once. Hits mark every cutoff at or
    past the rank of the query's ground-truth image, found by comparing image
    rows: a truth id maps to its row through the image table's id index, and
    one the table does not hold is never a hit. Each text id may appear once.
    """
    if k_max < 1:
        raise DataError("k must be >= 1")
    if not results:
        raise DataError("no retrieval results to score")
    text_ids = list(results.text_ids)
    if len(set(text_ids)) < len(text_ids):
        repeated = next(tid for tid, n in Counter(text_ids).items() if n > 1)
        raise DataError(f"text {repeated!r} appears more than once in the results")
    rows = results.rows[:, :k_max]
    width = rows.shape[1]
    deltas = hits = None
    if labels is not None:
        codes = np.zeros((len(text_ids), k_max), dtype=np.int8)
        try:
            # One code per image row, and a last 0 that the -1 padding reads.
            codes[:, :width] = np.append(gender_codes(results.image_ids, labels), np.int8(0))[rows]
        except DataError:
            # Only ranked images need a label: name the first one without.
            ranked = rows >= 0
            ids = results.image_ids
            codes[:, :width][ranked] = gender_codes([ids[r] for r in rows[ranked].tolist()], labels)
        n_male = np.cumsum(codes == 1, axis=1)
        n_female = np.cumsum(codes == -1, axis=1)
        gendered = n_male + n_female
        # Integer counts divided as floats: the same value as Python's int / int.
        deltas = np.where(gendered > 0, (n_male - n_female) / np.maximum(gendered, 1), 0.0)
    if truth is not None:
        try:
            wants = [truth[tid] for tid in text_ids]
        except KeyError as exc:
            raise DataError(f"text {exc.args[0]!r} has no ground-truth image") from None
        # Ids are compared as Python strings, by the index's dict lookup:
        # numpy's string arrays drop trailing NULs ("a\x00" == "a").
        get = results.image_index.get
        truth_rows = np.fromiter((get(iid, _NO_ROW) for iid in wants), np.int64, len(wants))
        found = np.zeros((len(text_ids), k_max), dtype=bool)
        np.equal(rows, truth_rows[:, None], out=found[:, :width])
        hits = np.logical_or.accumulate(found, axis=1)
    return MetricCurve(text_ids=text_ids, deltas=deltas, hits=hits)


def bias_at_k(results, labels, k):
    """Mean per-query gender skew at cutoff k over all queries, summed exactly."""
    curve = metric_curve(results, k, labels=labels)
    per_query = dict(zip(curve.text_ids, curve.deltas[:, -1].tolist()))
    bias = math.fsum(per_query.values()) / len(per_query)
    return BiasReport(k=k, bias_at_k=bias, per_query=per_query, n_queries=len(per_query))


def recall_at_k(results, truth, k):
    """Fraction of queries whose ground-truth image appears in the top k."""
    curve = metric_curve(results, k, truth=truth)
    n = len(curve.text_ids)
    return RecallReport(k=k, recall_at_k=int(curve.hits[:, -1].sum()) / n, n_queries=n)


def _class_means(images, labels):
    """Mean of the unit image rows of the Male class and of the Female class (2 x d)."""
    codes = gender_codes(images.ids, labels)
    weights = np.array([codes == 1, codes == -1], dtype=np.float64)
    counts = weights.sum(axis=1)
    missing = [name for name, count in zip(("Male", "Female"), counts) if not count]
    if missing:
        raise UndefinedBiasError(f"no {' and no '.join(missing)} images; similarity gap undefined")
    # A weighted sum of the rows: no unit copy of the table is made.
    weights /= row_norms(images.vectors, images.ids)
    return (weights @ images.vectors) / counts[:, None]


def _gap(term_vector, means, term_id):
    """Mean cosine of one term vector to the Male images minus that to the
    Female images: its unit vector dotted with each class's mean unit row."""
    term = np.asarray(term_vector, dtype=np.float64)
    if term.shape != (means.shape[1],):
        raise DataError(f"term vector shape {term.shape} does not match image dim {means.shape[1]}")
    unit = term / row_norms(term[None, :], [term_id])[0]
    return float(unit @ means[0]) - float(unit @ means[1])


@dataclass
class OccupationBiasReport:
    per_occupation: dict
    mean_abs_bias: float


def occupation_bias_report(terms, images, labels):
    """Score every term in the `terms` table.

    Raises DataError if the table is empty, or UndefinedBiasError (a
    DataError) naming the missing class or classes if the images lack Male or
    Female labels, which leaves every term undefined. Otherwise every term
    is scored.
    """
    if len(terms) == 0:
        raise DataError("the occupation term table is empty")
    means = _class_means(images, labels)
    per_occupation = {term_id: _gap(vec, means, term_id) for term_id, vec in terms.records()}
    mean_abs = math.fsum(abs(b) for b in per_occupation.values()) / len(per_occupation)
    return OccupationBiasReport(per_occupation=per_occupation, mean_abs_bias=mean_abs)
