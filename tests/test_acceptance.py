"""Acceptance suite: one test per headline criterion, printed pass/fail lines.

Criterion 5 measures clipping per query class and from the collection base
rate b = (N_m - N_f) / (N_m + N_f). Each query takes the gender of its truth
image; Bias@10 is computed over the male-truth and the female-truth queries
separately, and the statistic is the mean over those two classes of
|Bias@10(class) - b|. A retriever that ignores gender puts about b into every
top 10, so this offset is near 0 for it and large for one that follows gender.
The signed Bias@10 over all queries cannot show the difference: the query set
mirrors the collection's genders, so male and female classes average to about
b either way, and the test only prints it.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from searchbias.cli import main
from searchbias.clipper import ClipPlan, apply_clip, estimate_mi, fit_clip_plan
from searchbias.core import EmbeddingTable, GenderLabel, load_labels, synth_dataset
from searchbias.gender_text import CaptionGender, caption_gender, neutralize
from searchbias.metrics import bias_at_k, metric_curve, recall_at_k
from searchbias.retrieval import retrieve_all
from searchbias.trainer import (
    LinearEncoders,
    TrainerConfig,
    TripletBatch,
    objective,
    train,
)

from hand_ranked import ranked_table

M, F, N = GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL


def report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def result_from_genders(text_id, genders):
    ids = [f"{text_id}_i{j}" for j in range(len(genders))]
    return (text_id, ids), dict(zip(ids, genders))


def counting_delta(genders, k):
    males = sum(1 for g in genders[:k] if g is M)
    females = sum(1 for g in genders[:k] if g is F)
    return 0.0 if males + females == 0 else (males - females) / (males + females)


def test_criterion_1_metric_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    pool = [M, F, N]
    for _ in range(1000):
        n_q = int(rng.integers(1, 10))
        depth = int(rng.integers(1, 16))
        k = int(rng.integers(1, depth + 1))
        rankings, labels, gender_lists, truths = [], {}, [], {}
        for q in range(n_q):
            gs = [pool[int(g)] for g in rng.integers(0, 3, depth)]
            res, labs = result_from_genders(f"q{q}", gs)
            rankings.append(res)
            labels.update(labs)
            gender_lists.append(gs)
            hit = rng.random() < 0.5
            truths[f"q{q}"] = res[1][int(rng.integers(0, depth))] if hit else "none"
        results = ranked_table(rankings)
        want_bias = math.fsum(counting_delta(gs, k) for gs in gender_lists) / n_q
        got_bias = bias_at_k(results, labels, k).bias_at_k
        assert abs(got_bias - want_bias) <= 1e-12
        want_recall = sum(1 for tid, ids in rankings if truths[tid] in ids[:k]) / n_q
        got_recall = recall_at_k(results, truths, k).recall_at_k
        assert abs(got_recall - want_recall) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"1000 random configs match counting oracles to 1e-12 in {elapsed:.2f}s")


def test_criterion_2_delta_edge_cases():
    res, labels = result_from_genders("t", [N] * 10)
    all_neutral = bias_at_k(ranked_table([res]), labels, 10)
    assert all_neutral.bias_at_k == 0.0
    res, labels = result_from_genders("t", [M] * 10)
    all_male = bias_at_k(ranked_table([res]), labels, 10)
    assert all_male.bias_at_k == 1.0
    res, labels = result_from_genders("t", [F] * 10)
    all_female = bias_at_k(ranked_table([res]), labels, 10)
    assert all_female.bias_at_k == -1.0
    for rep in (all_neutral, all_male, all_female):
        assert rep.male_share == (1.0 + rep.bias_at_k) / 2.0
    # bias 0.3960 reads as a 69.8% male share among gendered results.
    mixed = ranked_table([("t", ["a"])])
    share = bias_at_k(mixed, {"a": M}, 1).male_share
    assert share == (1.0 + 1.0) / 2.0
    assert (1.0 + 0.3960) / 2.0 == 0.698
    report(2, "all-Neutral/Male/Female deltas are exact; male share equals (1+bias)/2")


def test_criterion_3_mi_estimator_sanity():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    n = 10000
    genders = [M if rng.random() < 0.5 else F for _ in range(n)]
    column = np.array([1.0 if g is M else -1.0 for g in genders])
    column += 1e-9 * rng.standard_normal(n)
    codes = np.array([g.code for g in genders], dtype=np.int8)
    determined = estimate_mi(column, codes)
    assert abs(determined - math.log(2)) < 0.01
    permuted = codes[rng.permutation(n)]
    noise_mi = estimate_mi(column, permuted)
    assert noise_mi <= 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(
        3,
        f"determined column MI {determined:.4f} (ln2 {math.log(2):.4f}), "
        f"permuted {noise_mi:.4f}, {elapsed:.2f}s",
    )


def test_criterion_4_clip_plan_recovery_and_prefix():
    planted = [0, 1, 2]
    hits = 0
    for seed in range(20):
        ds = synth_dataset(seed, 5000, 1, 64, planted, skew=0.7)
        plan = fit_clip_plan(ds.images, ds.labels, m=3)
        if sorted(plan.clipped) == planted:
            hits += 1
    assert hits >= 19, f"exact recovery in only {hits}/20 seeds"

    ds = synth_dataset(0, 5000, 1, 64, planted, skew=0.7)
    full = fit_clip_plan(ds.images, ds.labels, m=63)
    for m in range(64):
        assert full.prefix(m).clipped == full.clipped[:m]
    for m in (0, 1, 3, 17, 63):
        assert fit_clip_plan(ds.images, ds.labels, m=m).clipped == full.clipped[:m]
    report(4, f"planted dims recovered in {hits}/20 seeds; greedy prefix holds for all m")


def base_rate(labels):
    """(N_m - N_f) / (N_m + N_f) over the collection: Bias@K of gender-blind retrieval."""
    males = sum(1 for g in labels.values() if g is M)
    females = sum(1 for g in labels.values() if g is F)
    return (males - females) / (males + females)


def class_offset(results, ds, k):
    """Mean over male- and female-truth queries of |Bias@k(class) - base rate|."""
    b = base_rate(ds.labels)
    deltas = metric_curve(results, k, ds.labels).deltas[:, k - 1].tolist()
    classes = [ds.labels[ds.truth[tid]] for tid in results.text_ids]
    offsets = []
    for gender in (M, F):
        subset = [d for d, g in zip(deltas, classes) if g is gender]
        offsets.append(abs(math.fsum(subset) / len(subset) - b))
    return math.fsum(offsets) / len(offsets)


def clipped_retrieval(ds, dims, k):
    plan = ClipPlan(dim=ds.images.dim, mi=[0.0] * ds.images.dim, clipped=dims)
    return retrieve_all(apply_clip(ds.texts, plan), apply_clip(ds.images, plan), k)


def test_criterion_5_post_processing_debiasing_effect():
    start = time.monotonic()
    planted = [0, 1, 2]
    pre_offset, post_offset, pre_signed, post_signed = [], [], [], []
    pre_recall, post_recall = [], []
    for seed in range(5):
        ds = synth_dataset(seed, 5000, 1000, 64, planted, skew=0.7)
        unclipped = retrieve_all(ds.texts, ds.images, 10)
        clipped = clipped_retrieval(ds, planted, 10)
        if seed == 0:
            control_ds = ds
        pre_offset.append(class_offset(unclipped, ds, 10))
        post_offset.append(class_offset(clipped, ds, 10))
        pre_signed.append(abs(bias_at_k(unclipped, ds.labels, 10).bias_at_k))
        post_signed.append(abs(bias_at_k(clipped, ds.labels, 10).bias_at_k))
        pre_recall.append(recall_at_k(unclipped, ds.truth, 10).recall_at_k)
        post_recall.append(recall_at_k(clipped, ds.truth, 10).recall_at_k)
    b0, b1 = float(np.mean(pre_offset)), float(np.mean(post_offset))
    s0, s1 = float(np.mean(pre_signed)), float(np.mean(post_signed))
    r0, r1 = float(np.mean(pre_recall)), float(np.mean(post_recall))
    elapsed = time.monotonic() - start
    bias_drop = (b0 - b1) / b0
    recall_drop = (r0 - r1) / r0

    # Negative control, outside the timed span: clipping three dims that carry
    # no gender signal must leave the offset where it was.
    c0 = pre_offset[0]
    c1 = class_offset(clipped_retrieval(control_ds, [61, 62, 63], 10), control_ds, 10)
    control_drop = (c0 - c1) / c0
    print(
        f"criterion 5 measured: per-class |Bias@10 - b| {b0:.4f} -> {b1:.4f} "
        f"({bias_drop:+.1%} reduction, target >=50%); signed all-query |Bias@10| "
        f"{s0:.4f} -> {s1:.4f} (not asserted, stays near b); Recall@10 {r0:.4f} -> {r1:.4f} "
        f"({recall_drop:+.1%} drop, cap 10%); {elapsed:.1f}s; control dims 61-63 on seed 0: "
        f"{c0:.4f} -> {c1:.4f} ({control_drop:+.1%})"
    )
    assert elapsed < 60.0
    assert recall_drop <= 0.10
    assert bias_drop >= 0.50, (
        f"clipping the planted dims reduced the 5-seed mean of per-class "
        f"|Bias@10 - b| by only {bias_drop:.1%} ({b0:.4f} -> {b1:.4f}): male- and "
        "female-truth queries still retrieve their own gender more than the "
        "collection base rate b predicts"
    )
    assert control_drop < 0.50, (
        f"clipping non-planted dims 61-63 reduced per-class |Bias@10 - b| by "
        f"{control_drop:.1%} ({c0:.4f} -> {c1:.4f}); the statistic does not "
        "single out the gender dimensions"
    )
    report(5, f"per-class |Bias@10 - b| down {bias_drop:.1%} with recall drop {recall_drop:.1%}")


def random_batch_and_encoders(seed):
    rng = np.random.default_rng(seed)
    n, d, emb = 8, 6, 5
    batch = TripletBatch(
        image_vecs=rng.standard_normal((n, d)),
        text_vecs=rng.standard_normal((n, d)),
        image_ids=[f"i{j}" for j in range(n)],
        genders=[[M, F, N][int(g)].code for g in rng.integers(0, 3, n)],
        neutral_query=rng.random(n) < 0.5,
    )
    return batch, LinearEncoders.init(d, emb, rng)


def test_criterion_6_gradient_check():
    h = 1e-6
    for point in range(10):
        batch, enc = random_batch_and_encoders(100 + point)
        for alpha in (0.0, 0.4, 1.0):
            cfg = TrainerConfig(gamma=0.3, alpha=alpha, epochs=1)
            got = objective(batch, enc, cfg)
            rng = np.random.default_rng(point)
            for grad, attr in ((got.d_img, "w_img"), (got.d_txt, "w_txt")):
                for _ in range(4):
                    r = int(rng.integers(grad.shape[0]))
                    c = int(rng.integers(grad.shape[1]))
                    plus = {k: getattr(enc, k).copy() for k in ("w_img", "w_txt")}
                    minus = {k: getattr(enc, k).copy() for k in ("w_img", "w_txt")}
                    plus[attr][r, c] += h
                    minus[attr][r, c] -= h
                    fd = (
                        objective(batch, LinearEncoders(**plus), cfg).loss
                        - objective(batch, LinearEncoders(**minus), cfg).loss
                    ) / (2 * h)
                    denom = max(abs(fd), abs(grad[r, c]), 1e-6)
                    rel = abs(fd - grad[r, c]) / denom
                    assert rel <= 1e-3, (point, alpha, attr, r, c, fd, grad[r, c])
    report(6, "analytic gradients match central differences at 10 points, alpha in {0, 0.4, 1}")


FAIR_BENCH = dict(n_images=2000, n_texts=4000, dim=64, bias_dims=[0, 1, 2],
                  skew=0.7, mu=2.0, text_noise=0.1)
FAIR_CFG = dict(gamma=0.2, lr=0.002, epochs=30, batch_size=64, emb_dim=32)


def test_criterion_7_fairsample_effect():
    start = time.monotonic()
    bias = {0.0: [], 1.0: []}
    recall = {0.0: [], 1.0: []}
    for seed in (0, 1, 2):
        ds = synth_dataset(
            seed, FAIR_BENCH["n_images"], FAIR_BENCH["n_texts"], FAIR_BENCH["dim"],
            FAIR_BENCH["bias_dims"], skew=FAIR_BENCH["skew"], mu=FAIR_BENCH["mu"],
            text_noise=FAIR_BENCH["text_noise"],
        )
        # Every text is treated as a gender-neutral query: the corpus a
        # neutralization pass produces, which is where fair sampling applies.
        flags = {tid: N for tid in ds.texts.ids}
        for alpha in (0.0, 1.0):
            cfg = TrainerConfig(alpha=alpha, seed=seed, **FAIR_CFG)
            rows = []
            train(ds, cfg, text_labels=flags, on_epoch=rows.append)
            bias[alpha].append(abs(rows[-1]["val_bias_at_10"]))
            recall[alpha].append(rows[-1]["val_recall_at_10"])
    b0, b1 = float(np.mean(bias[0.0])), float(np.mean(bias[1.0]))
    r0, r1 = float(np.mean(recall[0.0])), float(np.mean(recall[1.0]))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert b1 < b0, f"3-seed mean |Bias@10|: alpha=1 {b1:.4f} vs alpha=0 {b0:.4f}"
    assert abs(r1 - r0) / r0 <= 0.15, f"Recall@10: alpha=1 {r1:.4f} vs alpha=0 {r0:.4f}"
    report(
        7,
        f"3-seed mean |Bias@10| {b0:.4f} -> {b1:.4f} at alpha=1; "
        f"Recall@10 {r0:.4f} -> {r1:.4f}; {elapsed:.0f}s",
    )


def test_criterion_8_alpha_zero_bitwise_equivalence():
    for seed in range(20):
        batch, enc = random_batch_and_encoders(200 + seed)
        cfg = TrainerConfig(gamma=0.25, alpha=0.0, epochs=1)
        got = objective(batch, enc, cfg)
        assert got.loss == got.l_it + got.l_ti
    report(8, "total loss at alpha=0 equals the standard objective bitwise on 20 batches")


REFERENCE_REWRITES = [
    (
        "A man with a red helmet on a small moped on a dirt road.",
        "A person with a red helmet on a small moped on a dirt road.",
    ),
    (
        "A little girl is getting ready to blow out a candle on a small dessert.",
        "A little child is getting ready to blow out a candle on a small dessert.",
    ),
    (
        "A female surfboarder dressed in black holding a white surfboard.",
        "A surfboarder dressed in black holding a white surfboard.",
    ),
    (
        "A group of young men and women sitting at a table.",
        "A group of young people sitting at a table.",
    ),
]


def test_criterion_9_neutralization_suite():
    for before, after in REFERENCE_REWRITES:
        assert neutralize(before) == after, before

    rng = np.random.default_rng(31)
    gendered = ["man", "men", "male", "boy", "gentleman", "father", "brother", "son",
                "husband", "boyfriend", "woman", "women", "female", "girl", "lady",
                "mother", "mom", "sister", "daughter", "wife", "girlfriend"]
    filler = ["a", "an", "the", "and", "with", "young", "old", "person", "people",
              "dog", "park", "riding", "red", "is", "are", "table", "crowd", "photo"]
    checked = 0
    for _ in range(10000):
        length = int(rng.integers(1, 14))
        words = []
        for _ in range(length):
            pool = gendered if rng.random() < 0.3 else filler
            word = pool[int(rng.integers(len(pool)))]
            style = rng.random()
            if style < 0.12:
                word = word.capitalize()
            elif style < 0.16:
                word = word.upper()
            words.append(word)
        text = " ".join(words)
        if rng.random() < 0.5:
            text += "."
        once = neutralize(text)
        assert caption_gender(once) is CaptionGender.NONE, (text, once)
        assert neutralize(once) == once, (text, once)
        checked += 1
    report(9, f"4 reference rewrites verbatim; idempotence+completeness on {checked} fuzz captions")


def run_twice_and_compare(argv, out_dir):
    assert main(argv) == 0
    first = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
    assert main(argv) == 0
    second = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
    assert first == second, f"rerun changed bytes for: {argv[0]}"


def test_criterion_10_cli_rerun_determinism(tmp_path):
    data = tmp_path / "data"
    synth_argv = [
        "synth", "--seed", "1", "--n-images", "120", "--n-texts", "80", "--dim", "10",
        "--bias-dims", "0,1", "--skew", "0.7", "--mu", "2", "--out-dir", str(data),
    ]
    run_twice_and_compare(synth_argv, data)

    caps = tmp_path / "caps.jsonl"
    caps.write_text(
        '{"id": "c1", "image_id": "i1", "text": "A man with a dog."}\n'
        '{"id": "c2", "image_id": "i2", "text": "A woman reading."}\n'
        '{"id": "c3", "image_id": "i2", "text": "People in a park."}\n'
    )
    ds_args = [
        "--images", str(data / "images.jsonl"), "--texts", str(data / "texts.jsonl"),
        "--labels", str(data / "labels.jsonl"), "--truth", str(data / "truth.jsonl"),
    ]
    plan_dir = tmp_path / "plan"
    commands = {
        "label": ["label", "--captions", str(caps), "--out-dir", str(tmp_path / "label")],
        "neutralize": ["neutralize", "--captions", str(caps),
                       "--out-dir", str(tmp_path / "neutralize")],
        "retrieve": ["retrieve", "--images", str(data / "images.jsonl"),
                     "--texts", str(data / "texts.jsonl"), "-k", "5", "--threads", "2",
                     "--out-dir", str(tmp_path / "retrieve")],
        "evaluate": ["evaluate", *ds_args, "--per-query", "--out-dir", str(tmp_path / "evaluate")],
        "clip-fit": ["clip-fit", "--images", str(data / "images.jsonl"),
                     "--labels", str(data / "labels.jsonl"), "-m", "2",
                     "--out-dir", str(plan_dir)],
        "clip-apply": ["clip-apply", "--embeddings", str(data / "images.jsonl"),
                       "--plan", str(plan_dir / "clip_plan.json"),
                       "--out-dir", str(tmp_path / "clip-apply")],
        "train": ["train", *ds_args, "--epochs", "2", "--batch-size", "32",
                  "--emb-dim", "6", "--lr", "0.01", "--seed", "3",
                  "--out-dir", str(tmp_path / "train")],
        "sweep-alpha": ["sweep-alpha", *ds_args, "--alphas", "0,1", "--epochs", "1",
                        "--batch-size", "32", "--emb-dim", "6", "--seeds", "0",
                        "--out-dir", str(tmp_path / "sweep-alpha")],
        "sweep-m": ["sweep-m", *ds_args, "--m-list", "0,2", "--seed", "5",
                    "--out-dir", str(tmp_path / "sweep-m")],
        "occupation-bias": ["occupation-bias", "--terms", str(data / "texts.jsonl"),
                            "--images", str(data / "images.jsonl"),
                            "--labels", str(data / "labels.jsonl"),
                            "--out-dir", str(tmp_path / "occupation-bias")],
    }
    for name, argv in commands.items():
        run_twice_and_compare(argv, tmp_path / name if name != "clip-fit" else plan_dir)
    report(10, f"synth + {len(commands)} commands rerun byte-identically")


COCO_ENV = "SEARCHBIAS_COCO_DIR"


@pytest.mark.skipif(COCO_ENV not in os.environ, reason=f"set {COCO_ENV} to run")
def test_criterion_11_external_embeddings_optional(tmp_path):
    """Optional spot-check against externally supplied real embeddings.

    Point SEARCHBIAS_COCO_DIR at a directory with images.jsonl, texts.jsonl,
    labels.jsonl, and truth.jsonl derived from CLIP embeddings of the COCO 1K
    test split.
    """
    base = os.environ[COCO_ENV]
    ds_args = [
        "--images", os.path.join(base, "images.jsonl"),
        "--texts", os.path.join(base, "texts.jsonl"),
        "--labels", os.path.join(base, "labels.jsonl"),
        "--truth", os.path.join(base, "truth.jsonl"),
    ]
    out = tmp_path / "eval"
    assert main(["evaluate", *ds_args, "--out-dir", str(out)]) == 0
    metrics = {m["k"]: m for m in json.loads((out / "report.json").read_text())["metrics"]}
    reference = {1: 0.0900, 5: 0.2024, 10: 0.2648}
    for k, want in reference.items():
        assert abs(metrics[k]["bias_at_k"] - want) <= 0.02

    plan_dir = tmp_path / "plan"
    assert main(["clip-fit", "--images", ds_args[1], "--labels", ds_args[5],
                 "-m", "100", "--out-dir", str(plan_dir)]) == 0
    clipped_out = tmp_path / "clipped_eval"
    assert main(["evaluate", *ds_args, "--clip-plan", str(plan_dir / "clip_plan.json"),
                 "--out-dir", str(clipped_out)]) == 0
    clipped = {m["k"]: m for m in json.loads((clipped_out / "report.json").read_text())["metrics"]}
    target = {1: 0.0670, 5: 0.1541, 10: 0.2057}
    for k in (1, 5, 10):
        before = metrics[k]["bias_at_k"]
        after = clipped[k]["bias_at_k"]
        assert abs(after - target[k]) < abs(before - target[k])
    report(11, "external embeddings match the reference bias rows")
