"""Bias@K, Recall@K, and occupation bias against independent counting oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from searchbias.core import DataError, EmbeddingTable, GenderLabel
from searchbias.metrics import (
    UndefinedBiasError,
    bias_at_k,
    metric_curve,
    occupation_bias_report,
    recall_at_k,
)
from searchbias.retrieval import retrieve_all

from hand_ranked import ranked_table

M, F, N = GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL


def from_genders(text_id, genders):
    """Build a (text id, image ids) ranking plus labels straight from a gender sequence."""
    ids = [f"{text_id}_img{j}" for j in range(len(genders))]
    return (text_id, ids), dict(zip(ids, genders))


def delta(res, labels, k):
    """One ranking's skew at cutoff k, read from its metric curve."""
    return metric_curve(ranked_table([res]), k, labels).deltas[0, -1]


def gap(term, images, labels):
    """One term vector's occupation bias, from a one-term table."""
    return occupation_bias_report(EmbeddingTable(["t"], [term]), images, labels).per_occupation["t"]


def oracle_delta(genders, k):
    males = sum(1 for g in genders[:k] if g is M)
    females = sum(1 for g in genders[:k] if g is F)
    if males + females == 0:
        return 0.0
    return (males - females) / (males + females)


def oracle_bias(gender_lists, k):
    return math.fsum(oracle_delta(gs, k) for gs in gender_lists) / len(gender_lists)


def oracle_recall(rank_lists, truths, k):
    hits = sum(1 for ranked, truth in zip(rank_lists, truths) if truth in ranked[:k])
    return hits / len(rank_lists)


def test_delta_examples():
    res, labels = from_genders("t", [M, M, F, N])
    assert delta(res, labels, 4) == pytest.approx(1 / 3)
    res, labels = from_genders("t", [N, N, N])
    assert delta(res, labels, 3) == 0.0
    res, labels = from_genders("t", [F, F, F])
    assert delta(res, labels, 3) == -1.0
    res, labels = from_genders("t", [M, M])
    assert delta(res, labels, 2) == 1.0


def test_delta_truncates_to_k():
    res, labels = from_genders("t", [M, M, F, F])
    assert delta(res, labels, 2) == 1.0
    assert delta(res, labels, 4) == 0.0


def test_delta_missing_label():
    res = ("t", ["unknown"])
    with pytest.raises(DataError, match="unknown"):
        delta(res, {}, 1)


def test_bias_examples():
    r1, l1 = from_genders("t1", [M, M])
    r2, l2 = from_genders("t2", [F, F])
    rep = bias_at_k(ranked_table([r1, r2]), {**l1, **l2}, k=2)
    assert rep.bias_at_k == 0.0
    assert rep.per_query == {"t1": 1.0, "t2": -1.0}
    assert rep.n_queries == 2

    res, labels = from_genders("t", [M, F, M, M, N, N, N, N, N, N])
    rep = bias_at_k(ranked_table([res]), labels, k=10)
    assert rep.bias_at_k == 0.5


def test_bias_requires_results():
    with pytest.raises(DataError):
        bias_at_k(ranked_table([]), {}, k=5)
    with pytest.raises(DataError, match="^k must be >= 1$"):
        metric_curve(ranked_table([("q", ["m"])]), 0, {"m": M})


def test_male_share_identity():
    res, labels = from_genders("t", [M, M, F])
    rep = bias_at_k(ranked_table([res]), labels, k=3)
    assert rep.male_share == (1.0 + rep.bias_at_k) / 2.0
    # The headline interpretation: bias 0.3960 means ~70% male share.
    assert (1.0 + 0.3960) / 2.0 == 0.698


def test_recall_examples():
    results = ranked_table([("t1", ["a", "b"]), ("t2", ["c", "d"])])
    assert recall_at_k(results, {"t1": "a", "t2": "c"}, k=1).recall_at_k == 1.0
    assert recall_at_k(results, {"t1": "z", "t2": "z"}, k=2).recall_at_k == 0.0
    results = ranked_table([(f"t{j}", ["a", "b", "c", "d", "e"]) for j in range(4)])
    truth = {"t0": "a", "t1": "e", "t2": "z", "t3": "y"}
    assert recall_at_k(results, truth, k=5).recall_at_k == 0.5
    with pytest.raises(DataError, match="t9"):
        recall_at_k(ranked_table([("t9", ["a"])]), {}, k=1)


def test_oracle_equivalence_random_configs():
    rng = np.random.default_rng(42)
    genders = [M, F, N]
    for trial in range(200):
        n_q = int(rng.integers(1, 12))
        depth = int(rng.integers(1, 15))
        k = int(rng.integers(1, depth + 1))
        gender_lists, rankings, labels, rank_lists, truths = [], [], {}, [], []
        for q in range(n_q):
            gs = [genders[int(g)] for g in rng.integers(0, 3, depth)]
            res, labs = from_genders(f"q{q}", gs)
            gender_lists.append(gs)
            rankings.append(res)
            labels.update(labs)
            ids = res[1]
            rank_lists.append(ids)
            truths.append(ids[int(rng.integers(0, depth))] if rng.random() < 0.5 else "miss")
        truth = {f"q{q}": truths[q] for q in range(n_q)}
        results = ranked_table(rankings)
        assert abs(bias_at_k(results, labels, k).bias_at_k - oracle_bias(gender_lists, k)) <= 1e-12
        assert abs(
            recall_at_k(results, truth, k).recall_at_k - oracle_recall(rank_lists, truths, k)
        ) <= 1e-12


def test_hits_compare_ids_as_python_strings():
    """Ragged rankings, a truth outside its ranking, duplicate ids and ids that
    differ only by a trailing NUL, which numpy's string arrays would drop."""
    rank_lists = [
        ["a", "a\x00"],
        ["x\x00", "x", "y"],
        ["b"],
        ["c", "d", "c", "e"],
        ["f", "g", "h"],
        [],
    ]
    truths = ["a\x00", "x", "z", "c", "h", "f"]
    results = ranked_table([(f"q{q}", ids) for q, ids in enumerate(rank_lists)])
    truth = {f"q{q}": want for q, want in enumerate(truths)}
    for k in range(1, 6):
        got = recall_at_k(results, truth, k).recall_at_k
        assert got == oracle_recall(rank_lists, truths, k)
    nul = ranked_table([("t", ["a", "a\x00"])])
    assert recall_at_k(nul, {"t": "a\x00"}, 1).recall_at_k == 0.0
    assert recall_at_k(nul, {"t": "a\x00"}, 2).recall_at_k == 1.0


def test_antisymmetry_under_label_swap():
    rng = np.random.default_rng(9)
    gs = [[M, F, N][int(g)] for g in rng.integers(0, 3, 30)]
    res, labels = from_genders("t", gs)
    swapped = {i: {M: F, F: M, N: N}[g] for i, g in labels.items()}
    for k in (1, 5, 17, 30):
        assert delta(res, labels, k) == -delta(res, swapped, k)


def test_query_order_invariance_and_truncation_consistency():
    rng = np.random.default_rng(10)
    rankings, labels = [], {}
    for q in range(8):
        gs = [[M, F, N][int(g)] for g in rng.integers(0, 3, 12)]
        res, labs = from_genders(f"q{q}", gs)
        rankings.append(res)
        labels.update(labs)
    rep = bias_at_k(ranked_table(rankings), labels, k=7)
    rev = bias_at_k(ranked_table(rankings[::-1]), labels, k=7)
    assert rep.bias_at_k == rev.bias_at_k
    truncated = ranked_table([(tid, ids[:7]) for tid, ids in rankings])
    assert bias_at_k(truncated, labels, k=7).bias_at_k == rep.bias_at_k


def occupation_oracle(term, images, labels):
    males, females = [], []
    for iid, vec in images.records():
        t = [float(x) for x in term]
        v = [float(x) for x in vec]
        s = math.fsum(a * b for a, b in zip(t, v)) / (
            math.sqrt(math.fsum(x * x for x in t)) * math.sqrt(math.fsum(x * x for x in v))
        )
        if labels[iid] is M:
            males.append(s)
        elif labels[iid] is F:
            females.append(s)
    return math.fsum(males) / len(males) - math.fsum(females) / len(females)


def test_occupation_bias_examples():
    images = EmbeddingTable(
        ["m1", "f1", "n1"], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    )
    labels = {"m1": M, "f1": F, "n1": N}
    assert gap([1.0, 0.0], images, labels) == 1.0
    # Symmetric about the term vector: zero bias.
    images2 = EmbeddingTable(["m1", "f1"], [[1.0, 1.0], [1.0, -1.0]])
    assert gap([1.0, 0.0], images2, {"m1": M, "f1": F}) == pytest.approx(0.0, abs=1e-15)


def test_occupation_bias_matches_oracle():
    rng = np.random.default_rng(11)
    images = EmbeddingTable([f"i{j}" for j in range(40)], rng.standard_normal((40, 6)))
    labels = {f"i{j}": [M, F, N][int(g)] for j, g in enumerate(rng.integers(0, 3, 40))}
    term = rng.standard_normal(6)
    got = gap(term, images, labels)
    assert got == pytest.approx(occupation_oracle(term, images, labels), abs=1e-12)


def test_occupation_bias_with_norms_outside_float_range():
    """Rows whose squared norm overflows or underflows keep their true cosines.

    Before, rows scaled by 2^700 got weight 0 (norm inf) and rows scaled by
    2^-700 got nan (norm 0). A power-of-two scale now leaves every byte as
    it is; a norm that is itself not a normal float is refused by name.
    """
    rng = np.random.default_rng(12)
    ids = [f"i{j}" for j in range(30)]
    vecs = rng.standard_normal((30, 5))
    labels = {iid: [M, F, N][j % 3] for j, iid in enumerate(ids)}
    term = rng.standard_normal(5)
    base = gap(term, EmbeddingTable(ids, vecs), labels)
    for scale in (2.0**700, 2.0**-700):
        scaled = vecs.copy()
        scaled[::2] *= scale
        images = EmbeddingTable(ids, scaled)
        terms = EmbeddingTable(["t"], [term * scale])
        assert occupation_bias_report(terms, images, labels).per_occupation == {"t": base}
    huge = EmbeddingTable(["m1", "f1"], [[1.5e308, 1.5e308], [0.0, 1.0]])
    with pytest.raises(DataError, match="'m1' has a norm outside the float64 range"):
        gap([1.0, 0.0], huge, {"m1": M, "f1": F})
    images = EmbeddingTable(["m1", "f1"], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DataError, match="'nurse' has a norm"):
        occupation_bias_report(EmbeddingTable(["nurse"], [[1e-310, 0.0]]), images, {"m1": M, "f1": F})
    with pytest.raises(DataError, match=r"^term vector shape \(3,\) does not match image dim 2$"):
        occupation_bias_report(EmbeddingTable(["nurse"], [[1.0, 0.0, 1.0]]), images, {"m1": M, "f1": F})


def test_occupation_bias_undefined_class():
    images = EmbeddingTable(["m1"], [[1.0, 0.0]])
    with pytest.raises(UndefinedBiasError):
        gap([1.0, 0.0], images, {"m1": M})


def test_occupation_report_skips_and_warns():
    images = EmbeddingTable(["m1", "f1"], [[1.0, 0.1], [0.3, 1.0]])
    labels = {"m1": M, "f1": F}
    terms = EmbeddingTable(["doctor", "nurse"], [[1.0, 0.0], [0.0, 1.0]])
    rep = occupation_bias_report(terms, images, labels)
    assert set(rep.per_occupation) == {"doctor", "nurse"}
    assert rep.mean_abs_bias == pytest.approx(
        (abs(rep.per_occupation["doctor"]) + abs(rep.per_occupation["nurse"])) / 2
    )

    # A missing class leaves every term undefined: one error names the class
    # or classes, with no per-term warnings before it.
    for labels, missing in (
        ({"m1": M, "f1": M}, "no Female images"),
        ({"m1": F, "f1": F}, "no Male images"),
        ({"m1": N, "f1": N}, "no Male and no Female images"),
    ):
        with pytest.raises(DataError, match=f"^{missing};"):
            occupation_bias_report(terms, images, labels)


def test_curve_of_a_ranked_table_matches_counting_oracles():
    """metric_curve over retrieve_all's table equals the counting oracles at
    every cutoff, with cutoffs past the image count, a truth id only a
    trailing NUL away from an image id, and truth ids no image has."""
    rng = np.random.default_rng(13)
    ids = ["a", "a\x00"] + [f"i{j}" for j in range(7)]
    images = EmbeddingTable(ids, rng.standard_normal((len(ids), 4)))
    texts = EmbeddingTable([f"t{j}" for j in range(15)], rng.standard_normal((15, 4)))
    labels = {iid: [M, F, N][j % 3] for j, iid in enumerate(ids)}
    truth = {tid: (ids + ["missing", "a\x00\x00"])[j % 11] for j, tid in enumerate(texts.ids)}
    truths = [truth[t] for t in texts.ids]
    n = len(ids)
    for k in (1, 4, n, n + 3):
        table = retrieve_all(texts, images, k)
        ranked = [[ids[r] for r in row] for row in table.rows.tolist()]
        genders = [[labels[iid] for iid in row] for row in ranked]
        for k_max in sorted({1, k, n + 5}):
            got = metric_curve(table, k_max, labels, truth)
            assert got.text_ids == list(texts.ids)
            # The columns stop at the ranking's width; the curve's lists do not.
            width = min(k_max, k, n)
            assert got.deltas.tolist() == [
                [oracle_delta(gs, cut) for cut in range(1, width + 1)] for gs in genders
            ]
            assert got.hits.shape == (len(texts), width)
            cuts = range(1, k_max + 1)
            assert got.biases() == [oracle_bias(genders, cut) for cut in cuts]
            assert got.recalls() == [oracle_recall(ranked, truths, cut) for cut in cuts]


def test_curve_memory_follows_the_ranking_not_k_max():
    """A k_max far past the image count allocates by the ranking's width and
    the k_max-long lists of Bias@k and Recall@k: 2.4 MB here, where a curve
    of 9 x k_max matrices took 46 MB."""
    rng = np.random.default_rng(29)
    images = EmbeddingTable([f"i{j}" for j in range(12)], rng.standard_normal((12, 3)))
    texts = EmbeddingTable([f"t{j}" for j in range(9)], rng.standard_normal((9, 3)))
    labels = {iid: [M, F, N][j % 3] for j, iid in enumerate(images.ids)}
    truth = {tid: images.ids[j] for j, tid in enumerate(texts.ids)}
    table = retrieve_all(texts, images, 12)
    k_max = 10**5
    tracemalloc.start()
    try:
        curve = metric_curve(table, k_max, labels, truth)
        biases, recalls = curve.biases(), curve.recalls()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert curve.deltas.shape == curve.hits.shape == (9, 12)
    assert len(biases) == len(recalls) == k_max
    full = metric_curve(table, 12, labels, truth)
    assert biases == full.biases() + full.biases()[-1:] * (k_max - 12)
    assert recalls == full.recalls() + [1.0] * (k_max - 12)


def test_only_ranked_images_need_a_label():
    """An image no query ranks may lack a label; the first ranked one without
    a label is named, in query and rank order."""
    images = EmbeddingTable(["m", "f", "u", "v"], [[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0], [0.0, 1.0]])
    texts = EmbeddingTable(["q1", "q2"], [[1.0, 0.05], [0.2, 1.0]])
    table = retrieve_all(texts, images, 2)
    assert [[images.ids[r] for r in row] for row in table.rows.tolist()] == [["m", "f"], ["v", "f"]]
    labels = {"m": M, "f": F, "v": N}
    assert metric_curve(table, 2, labels).deltas.tolist() == [[1.0, 0.0], [0.0, -1.0]]
    for bad in ("f", "v"):
        partial = {iid: g for iid, g in labels.items() if iid != bad}
        with pytest.raises(DataError, match=f"image '{bad}' has no gender label"):
            metric_curve(table, 2, partial)
    with pytest.raises(DataError, match="image 'f' has no gender label"):
        metric_curve(table, 2, {"m": M})
    # q2 ranks v (row 3) before f (row 1).
    with pytest.raises(DataError, match="image 'v' has no gender label"):
        metric_curve(retrieve_all(EmbeddingTable(["q2"], [[0.2, 1.0]]), images, 2), 2, {"m": M})


def test_repeated_text_id_is_refused():
    """Bias@K keyed its per-query values by text id, so a repeated id dropped
    rows from Bias@K but not from Recall@K; such results are refused."""
    results = ranked_table([("q", ["m"]), ("q", ["f"])])
    labels, truth = {"m": M, "f": F}, {"q": "m"}
    for curve in (
        lambda: metric_curve(results, 1, labels, truth),
        lambda: bias_at_k(results, labels, 1),
        lambda: recall_at_k(results, truth, 1),
    ):
        with pytest.raises(DataError, match="^text 'q' appears more than once in the results$"):
            curve()
