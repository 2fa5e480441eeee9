"""Bias and recall metrics for retrieval results.

The headline number is the top-k gender skew: for one query,
delta = (N_male - N_female) / (N_male + N_female) over the retrieved images,
defined as 0 when no gendered image is retrieved. Averaging delta over
queries gives the corpus-level bias; +1 means all-male retrievals, -1
all-female. The male share of gendered retrievals is (1 + bias) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DataError, GenderLabel
from .retrieval import row_norms

_CODES = {GenderLabel.MALE: 1, GenderLabel.FEMALE: -1}


class UndefinedBiasError(DataError):
    """An occupation term has no Male or no Female image to compare against."""


def delta_k(result, labels, k=None):
    """Per-query gender skew of the top-k retrieved images.

    Counts Male and Female labels among the first k entries of `result`
    (all entries when k is None) and returns their normalized difference,
    or 0.0 when neither gender appears.
    """
    if k is None:
        k = max(1, len(result.ranked))
    return metric_curve([result], k, labels=labels).deltas[0, k - 1].item()


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

    deltas[q, k - 1] is delta_k of the q-th result at cutoff k; hits[q, k - 1]
    says whether its ground-truth image is among its first k. Either is None
    when the curve was built without the map it needs.
    """

    text_ids: list
    deltas: np.ndarray = field(repr=False)
    hits: np.ndarray = field(repr=False)

    def bias(self, k):
        """Bias@k: the mean per-query skew, summed exactly."""
        per_query = dict(zip(self.text_ids, self.deltas[:, k - 1].tolist()))
        bias = math.fsum(per_query.values()) / len(per_query)
        return BiasReport(k=k, bias_at_k=bias, per_query=per_query, n_queries=len(per_query))

    def recall(self, k):
        """Recall@k: the fraction of queries whose ground-truth image is in the top k."""
        n = len(self.text_ids)
        return RecallReport(k=k, recall_at_k=int(self.hits[:, k - 1].sum()) / n, n_queries=n)


def metric_curve(results, k_max, labels=None, truth=None):
    """Build the deltas (given `labels`) and hits (given `truth`) up to k_max in one pass.

    One Q x k_max matrix holds each result's label codes (+1 Male, -1 Female,
    0 otherwise or past the end of a short ranking) and its cumulative sums
    count both genders at every cutoff at once. Hits mark every cutoff at or
    past the rank of the query's ground-truth image.
    """
    if k_max < 1:
        raise DataError("k must be >= 1")
    if not results:
        raise DataError("no retrieval results to score")
    deltas = hits = None
    if labels is not None:
        codes = np.zeros((len(results), k_max), dtype=np.int8)
        for q, r in enumerate(results):
            row = []
            for image_id, _ in r.ranked[:k_max]:
                if image_id not in labels:
                    raise DataError(f"retrieved image {image_id!r} has no gender label")
                row.append(_CODES.get(labels[image_id], 0))
            codes[q, : len(row)] = row
        n_male = np.cumsum(codes == 1, axis=1)
        n_female = np.cumsum(codes == -1, axis=1)
        gendered = n_male + n_female
        # Integer counts divided as floats: the same value as Python's int / int.
        deltas = np.where(gendered > 0, (n_male - n_female) / np.maximum(gendered, 1), 0.0)
    if truth is not None:
        hits = np.zeros((len(results), k_max), dtype=bool)
        for q, r in enumerate(results):
            if r.text_id not in truth:
                raise DataError(f"text {r.text_id!r} has no ground-truth image")
            want = truth[r.text_id]
            for rank, (image_id, _) in enumerate(r.ranked[:k_max]):
                if image_id == want:
                    hits[q, rank:] = True
                    break
    return MetricCurve(text_ids=[r.text_id for r in results], deltas=deltas, hits=hits)


def bias_at_k(results, labels, k):
    """Mean per-query gender skew at cutoff k over all queries."""
    return metric_curve(results, k, labels=labels).bias(k)


def recall_at_k(results, truth, k):
    """Fraction of queries whose ground-truth image appears in the top k."""
    return metric_curve(results, k, truth=truth).recall(k)


def _class_means(images, labels):
    """Mean of the unit image rows of the Male class and of the Female class (2 x d)."""
    weights = np.zeros((2, len(images)))
    for row, image_id in enumerate(images.ids):
        if image_id not in labels:
            raise DataError(f"image {image_id!r} has no gender label")
        lab = labels[image_id]
        if lab is GenderLabel.MALE:
            weights[0, row] = 1.0
        elif lab is GenderLabel.FEMALE:
            weights[1, row] = 1.0
    counts = weights.sum(axis=1)
    if not counts.all():
        raise UndefinedBiasError("no Male or no Female images; similarity gap undefined")
    # A weighted sum of the rows: no unit copy of the table is made.
    weights /= row_norms(images.vectors)
    return (weights @ images.vectors) / counts[:, None]


def _gap(term_vector, means):
    term = np.asarray(term_vector, dtype=np.float64)
    if term.shape != (means.shape[1],):
        raise DataError(f"term vector shape {term.shape} does not match image dim {means.shape[1]}")
    norm = row_norms(term[None, :])[0]
    if norm == 0.0:
        raise DataError("occupation bias undefined for a zero term vector")
    unit = term / norm
    return float(unit @ means[0]) - float(unit @ means[1])


def occupation_bias(term_vector, images, labels):
    """Similarity gap of one query vector toward Male versus Female images.

    Returns mean cosine over Male-labeled images minus mean cosine over
    Female-labeled images, computed as the unit term vector dotted with the
    mean unit image row of each class. Raises UndefinedBiasError when either
    side is empty, so callers can skip the term.
    """
    return _gap(term_vector, _class_means(images, labels))


@dataclass
class OccupationBiasReport:
    per_occupation: dict
    mean_abs_bias: float
    skipped: list


def occupation_bias_report(terms, images, labels, warn=None):
    """Score every term in the `terms` table, skipping undefined ones.

    `warn` is called with a message for each skipped term. Errors out if no
    term is scorable at all.
    """
    per_occupation = {}
    skipped = []
    try:
        means = _class_means(images, labels)
        per_occupation = {term_id: _gap(vec, means) for term_id, vec in terms.records()}
    except UndefinedBiasError:
        # The classes belong to the image table, so every term is undefined.
        skipped = list(terms.ids)
        if warn is not None:
            for term_id in skipped:
                warn(f"occupation {term_id!r}: missing a gender class, excluded from the mean")
    if not per_occupation:
        raise DataError("no occupation term had both Male and Female images to compare")
    mean_abs = math.fsum(abs(b) for b in per_occupation.values()) / len(per_occupation)
    return OccupationBiasReport(
        per_occupation=per_occupation, mean_abs_bias=mean_abs, skipped=skipped
    )
