"""Command-line surface tying the library into reproducible pipelines.

Every subcommand is a pure function of its inputs, flags, and seed: outputs
are written with deterministic serialization (sorted keys, repr floats, no
timestamps), so rerunning the same invocation reproduces every file byte for
byte. Each run also writes a manifest.json recording the command, arguments,
seed, SHA-256 digests of the input files, and the tool version.

Exit codes: 0 success, 2 validation/data error, 3 runtime or numerical error.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .clipper import ClipPlan, apply_clip, fit_clip_plan
from .core import (
    DataError,
    Dataset,
    load_embeddings,
    load_labels,
    load_truth,
    save_embeddings,
    save_labels,
    save_truth,
    synth_dataset,
)
from .gender_text import (
    Caption,
    GenderLexicon,
    image_gender,
    load_captions,
    neutralize,
    save_captions,
)
from .metrics import bias_at_k, metric_curve, occupation_bias_report, recall_at_k
from .retrieval import retrieve_all
from .trainer import TrainerConfig, train

BOOTSTRAP_RESAMPLES = 200


def _warn(message):
    print(f"warning: {message}", file=sys.stderr)


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _out_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, input_paths):
    """Record what produced this out-dir: command, args, seed, input digests."""
    arg_map = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command")
    }
    manifest = {
        "command": args.command,
        "args": arg_map,
        "seed": args.seed,
        "inputs": {path: _sha256(path) for path in input_paths if path is not None},
        "version": __version__,
    }
    with open(_out_path(args, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_lexicon(path):
    return GenderLexicon.load(path) if path else GenderLexicon.default()


def _load_pair(images_path, texts_path):
    images = load_embeddings(images_path)
    texts = load_embeddings(texts_path, expected_dim=images.dim)
    return images, texts


def _save_results(results, path):
    with open(path, "w", encoding="utf-8") as fh:
        for res in results:
            ranked = [{"image_id": iid, "score": score} for iid, score in res.ranked]
            fh.write(json.dumps({"text_id": res.text_id, "ranked": ranked}) + "\n")


def cmd_synth(args):
    ds = synth_dataset(
        args.seed,
        args.n_images,
        args.n_texts,
        args.dim,
        bias_dims=args.bias_dims,
        skew=args.skew,
        p_neutral=args.p_neutral,
        mu=args.mu,
        text_noise=args.text_noise,
    )
    save_embeddings(ds.images, _out_path(args, "images.jsonl"))
    save_embeddings(ds.texts, _out_path(args, "texts.jsonl"))
    save_labels(ds.labels, _out_path(args, "labels.jsonl"))
    save_truth(ds.truth, _out_path(args, "truth.jsonl"))
    _write_manifest(args, [])
    print(
        f"synth: {len(ds.images)} images, {len(ds.texts)} texts, "
        f"dim {ds.images.dim} -> {args.out_dir}"
    )


def cmd_label(args):
    captions = load_captions(args.captions)
    lexicon = _load_lexicon(args.lexicon)
    if not captions:
        _warn(f"{args.captions}: no captions; writing an empty labels file")
    grouped = {}
    for cap in captions:
        grouped.setdefault(cap.image_id, []).append(cap.text)
    labels = {iid: image_gender(texts, lexicon) for iid, texts in grouped.items()}
    save_labels(labels, _out_path(args, "labels.jsonl"))
    _write_manifest(args, [args.captions, args.lexicon])
    print(f"label: {len(labels)} images labeled from {len(captions)} captions")


def cmd_neutralize(args):
    captions = load_captions(args.captions)
    lexicon = _load_lexicon(args.lexicon)
    out = [
        Caption(id=cap.id, image_id=cap.image_id, text=neutralize(cap.text, lexicon))
        for cap in captions
    ]
    save_captions(out, _out_path(args, "neutralized.jsonl"))
    _write_manifest(args, [args.captions, args.lexicon])
    changed = sum(1 for before, after in zip(captions, out) if before.text != after.text)
    print(f"neutralize: {len(out)} captions written, {changed} changed")


def cmd_retrieve(args):
    images, texts = _load_pair(args.images, args.texts)
    results = retrieve_all(texts, images, k=args.k, threads=args.threads)
    _save_results(results, _out_path(args, "results.jsonl"))
    _write_manifest(args, [args.images, args.texts])
    print(f"retrieve: {len(results)} queries, top-{args.k} -> results.jsonl")


def cmd_evaluate(args):
    images, texts = _load_pair(args.images, args.texts)
    labels = load_labels(args.labels)
    truth = load_truth(args.truth)
    k_list = sorted(set(args.k_list))
    if not k_list or k_list[0] < 1:
        raise DataError("--k-list needs at least one k >= 1")
    plan = None
    if args.clip_plan:
        plan = ClipPlan.load(args.clip_plan)
        images = apply_clip(images, plan)
        texts = apply_clip(texts, plan)
    k_max = k_list[-1]
    results = retrieve_all(texts, images, k=k_max, threads=args.threads)

    curve = metric_curve(results, k_max, labels=labels, truth=truth)
    metrics = []
    curve_rows = []
    for k in range(1, k_max + 1):
        bias = curve.bias(k)
        recall = curve.recall(k)
        curve_rows.append([k, bias.bias_at_k, recall.recall_at_k])
        if k in k_list:
            metrics.append(
                {
                    "k": k,
                    "bias_at_k": bias.bias_at_k,
                    "male_share": bias.male_share,
                    "recall_at_k": recall.recall_at_k,
                }
            )
    report = {"n_queries": len(results), "metrics": metrics}
    _write_json(_out_path(args, "report.json"), report)
    _write_csv(_out_path(args, "curve.csv"), ["k", "bias_at_k", "recall_at_k"], curve_rows)
    if args.per_query:
        rows = [
            [text_id, k, delta]
            for text_id, deltas in zip(curve.text_ids, curve.deltas.tolist())
            for k, delta in enumerate(deltas, start=1)
        ]
        _write_csv(_out_path(args, "per_query.csv"), ["text_id", "k", "delta"], rows)
    _write_manifest(args, [args.images, args.texts, args.labels, args.truth, args.clip_plan])
    headline = ", ".join(
        f"bias@{m['k']}={m['bias_at_k']:.4f} recall@{m['k']}={m['recall_at_k']:.4f}"
        for m in metrics
    )
    print(f"evaluate: {len(results)} queries; {headline}")


def cmd_clip_fit(args):
    images = load_embeddings(args.images)
    labels = load_labels(args.labels)
    plan = fit_clip_plan(images, labels, args.m, bins=args.bins)
    plan.save(_out_path(args, "clip_plan.json"))
    _write_manifest(args, [args.images, args.labels])
    print(f"clip-fit: m={plan.m} of dim={plan.dim}, clipped dims {plan.clipped}")


def cmd_clip_apply(args):
    table = load_embeddings(args.embeddings)
    plan = ClipPlan.load(args.plan)
    clipped = apply_clip(table, plan)
    save_embeddings(clipped, _out_path(args, "clipped.jsonl"))
    _write_manifest(args, [args.embeddings, args.plan])
    print(f"clip-apply: {len(clipped)} vectors reduced to dim {clipped.dim}")


def _load_dataset(args):
    images, texts = _load_pair(args.images, args.texts)
    labels = load_labels(args.labels)
    truth = load_truth(args.truth)
    return Dataset(images=images, texts=texts, labels=labels, truth=truth)


def _trainer_config(args, alpha, seed):
    return TrainerConfig(
        gamma=args.gamma,
        alpha=alpha,
        lr=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=seed,
        emb_dim=args.emb_dim,
        mc_negatives=args.mc_negatives,
    )


def cmd_train(args):
    ds = _load_dataset(args)
    text_labels = load_labels(args.text_labels) if args.text_labels else None
    cfg = _trainer_config(args, args.alpha, args.seed)
    log_rows = []
    encoders = train(
        ds, cfg, text_labels=text_labels, val_frac=args.val_frac, on_epoch=log_rows.append
    )
    encoders.save(_out_path(args, "encoders.json"), cfg)
    _write_csv(
        _out_path(args, "training_log.csv"),
        ["epoch", "total_loss", "val_recall_at_10", "val_bias_at_10"],
        [
            [row["epoch"], row["total_loss"], row["val_recall_at_10"], row["val_bias_at_10"]]
            for row in log_rows
        ],
    )
    _write_manifest(
        args, [args.images, args.texts, args.labels, args.truth, args.text_labels]
    )
    if log_rows:
        last = log_rows[-1]
        print(
            f"train: {cfg.epochs} epochs, final loss {last['total_loss']:.4f}, "
            f"val recall@10 {last['val_recall_at_10']:.4f}, "
            f"val bias@10 {last['val_bias_at_10']:.4f}"
        )
    else:
        print("train: 0 epochs, encoders saved at initialization")


def cmd_sweep_alpha(args):
    ds = _load_dataset(args)
    text_labels = load_labels(args.text_labels) if args.text_labels else None
    if args.epochs < 1:
        raise DataError("sweep-alpha needs --epochs >= 1")
    if args.val_frac <= 0:
        raise DataError("sweep-alpha needs --val-frac > 0 to score each run")
    alphas = sorted(set(args.alphas))
    seeds = args.seeds if args.seeds else [args.seed]
    rows = []
    for alpha in alphas:
        recalls, biases = [], []
        for seed in seeds:
            cfg = _trainer_config(args, alpha, seed)
            log_rows = []
            train(
                ds,
                cfg,
                text_labels=text_labels,
                val_frac=args.val_frac,
                on_epoch=log_rows.append,
            )
            recalls.append(log_rows[-1]["val_recall_at_10"])
            biases.append(log_rows[-1]["val_bias_at_10"])
        rows.append(
            [alpha, math.fsum(recalls) / len(recalls), math.fsum(biases) / len(biases)]
        )
    _write_csv(
        _out_path(args, "alpha_sweep.csv"), ["alpha", "recall_at_10", "bias_at_10"], rows
    )
    _write_manifest(
        args, [args.images, args.texts, args.labels, args.truth, args.text_labels]
    )
    print(f"sweep-alpha: {len(alphas)} alphas x {len(seeds)} seeds -> alpha_sweep.csv")


def cmd_sweep_m(args):
    images, texts = _load_pair(args.images, args.texts)
    labels = load_labels(args.labels)
    truth = load_truth(args.truth)
    m_list = sorted(set(args.m_list))
    if not m_list or m_list[0] < 0:
        raise DataError("--m-list needs m values >= 0")
    if m_list[-1] >= images.dim:
        raise DataError(f"max m {m_list[-1]} must be < dim {images.dim}")
    # One fit at the largest m; smaller m reuse its prefix (greedy consistency).
    full_plan = fit_clip_plan(images, labels, m_list[-1], bins=args.bins)
    rows = []
    for m in m_list:
        plan = full_plan.prefix(m)
        images_m = apply_clip(images, plan)
        texts_m = apply_clip(texts, plan)
        results = retrieve_all(texts_m, images_m, k=10, threads=args.threads)
        recalls = [recall_at_k(results, truth, k).recall_at_k for k in (1, 5, 10)]
        bias = bias_at_k(results, labels, 10)
        deltas = np.array([bias.per_query[res.text_id] for res in results])
        # Fresh generator per row: resamples are paired across m values.
        rng = np.random.default_rng(args.seed)
        resampled = [
            deltas[rng.integers(0, len(deltas), len(deltas))].mean()
            for _ in range(BOOTSTRAP_RESAMPLES)
        ]
        sd = float(np.std(resampled, ddof=1))
        rows.append([m, *recalls, bias.bias_at_k, sd])
    _write_csv(
        _out_path(args, "m_sweep.csv"),
        ["m", "recall_at_1", "recall_at_5", "recall_at_10", "bias_at_10", "bias_at_10_sd"],
        rows,
    )
    _write_manifest(args, [args.images, args.texts, args.labels, args.truth])
    print(f"sweep-m: {len(m_list)} m values -> m_sweep.csv")


def cmd_occupation(args):
    images = load_embeddings(args.images)
    labels = load_labels(args.labels)
    terms = load_embeddings(args.terms, expected_dim=images.dim)
    report = occupation_bias_report(terms, images, labels, warn=_warn)
    _write_json(
        _out_path(args, "occupation_bias.json"),
        {
            "mean_abs_bias": report.mean_abs_bias,
            "per_occupation": report.per_occupation,
            "skipped": report.skipped,
        },
    )
    _write_manifest(args, [args.terms, args.images, args.labels])
    print(
        f"occupation-bias: {len(report.per_occupation)} terms scored "
        f"({len(report.skipped)} skipped), mean |bias| {report.mean_abs_bias:.4f}"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="searchbias",
        description="Measure and mitigate gender bias in embedding-based text-to-image search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_):
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.set_defaults(func=func)
        sp.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
        sp.add_argument(
            "--threads", type=int, default=1, help="retrieval worker threads (default: 1)"
        )
        sp.add_argument(
            "--out-dir", default=".", help="directory for outputs and manifest.json"
        )
        return sp

    sp = add("synth", cmd_synth, "Generate a synthetic benchmark with planted gender dimensions.")
    sp.add_argument("--n-images", type=int, default=1000)
    sp.add_argument("--n-texts", type=int, default=1000)
    sp.add_argument("--dim", type=int, default=64)
    sp.add_argument(
        "--bias-dims",
        type=_int_list,
        default=[],
        help="comma-separated dimensions carrying the planted gender signal",
    )
    sp.add_argument("--skew", type=float, default=0.5, help="P(Male | gendered) (default: 0.5)")
    sp.add_argument("--p-neutral", type=float, default=0.2)
    sp.add_argument("--mu", type=float, default=1.0, help="gender shift magnitude")
    sp.add_argument("--text-noise", type=float, default=0.1)

    sp = add("label", cmd_label, "Derive per-image gender labels from caption files.")
    sp.add_argument("--captions", required=True)
    sp.add_argument("--lexicon", default=None, help="JSON lexicon (default: built-in)")

    sp = add("neutralize", cmd_neutralize, "Rewrite captions with gendered words neutralized.")
    sp.add_argument("--captions", required=True)
    sp.add_argument("--lexicon", default=None, help="JSON lexicon (default: built-in)")

    sp = add("retrieve", cmd_retrieve, "Rank images for each text query by cosine similarity.")
    sp.add_argument("--images", required=True)
    sp.add_argument("--texts", required=True)
    sp.add_argument("-k", type=int, default=10)

    sp = add("evaluate", cmd_evaluate, "Compute Bias@K and Recall@K reports with a per-k curve.")
    sp.add_argument("--images", required=True)
    sp.add_argument("--texts", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--k-list", type=_int_list, default=[1, 5, 10])
    sp.add_argument("--clip-plan", default=None, help="apply this plan to both tables first")
    sp.add_argument(
        "--per-query", action="store_true", help="also write per-query deltas CSV"
    )

    sp = add("clip-fit", cmd_clip_fit, "Rank dimensions by mutual information and plan clipping.")
    sp.add_argument("--images", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("-m", type=int, required=True, help="number of dimensions to clip")
    sp.add_argument("--bins", type=int, default=20)

    sp = add("clip-apply", cmd_clip_apply, "Drop a plan's dimensions from an embedding table.")
    sp.add_argument("--embeddings", required=True)
    sp.add_argument("--plan", required=True)

    def add_trainer_flags(sp, with_alpha=True):
        sp.add_argument("--images", required=True)
        sp.add_argument("--texts", required=True)
        sp.add_argument("--labels", required=True)
        sp.add_argument("--truth", required=True)
        sp.add_argument("--gamma", type=float, default=0.2, help="hinge margin")
        if with_alpha:
            sp.add_argument("--alpha", type=float, default=0.4, help="fair-loss weight")
        sp.add_argument("--lr", type=float, default=0.01)
        sp.add_argument("--epochs", type=int, default=10)
        sp.add_argument("--batch-size", type=int, default=64)
        sp.add_argument("--emb-dim", type=int, default=32)
        sp.add_argument("--val-frac", type=float, default=0.1)
        sp.add_argument(
            "--mc-negatives",
            action="store_true",
            help="sample one fair negative per query instead of the partition expectation",
        )
        sp.add_argument(
            "--text-labels",
            default=None,
            help="labels JSONL marking which texts are gender-neutral queries "
            "(default: a text is neutral iff its truth image is Neutral)",
        )

    sp = add("train", cmd_train, "Train linear encoders with the fairness-blended triplet loss.")
    add_trainer_flags(sp)

    sp = add(
        "sweep-alpha",
        cmd_sweep_alpha,
        "Train across fair-loss weights and tabulate the recall/bias tradeoff.",
    )
    add_trainer_flags(sp, with_alpha=False)
    sp.add_argument("--alphas", type=_float_list, default=[0.0, 0.25, 0.5, 0.75, 1.0])
    sp.add_argument(
        "--seeds",
        type=_int_list,
        default=None,
        help="comma-separated seeds to average over (default: just --seed)",
    )

    sp = add(
        "sweep-m",
        cmd_sweep_m,
        "Evaluate bias/recall across clip sizes with bootstrap error bars.",
    )
    sp.add_argument("--images", required=True)
    sp.add_argument("--texts", required=True)
    sp.add_argument("--labels", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--m-list", type=_int_list, required=True)
    sp.add_argument("--bins", type=int, default=20)

    sp = add(
        "occupation-bias",
        cmd_occupation,
        "Score occupation terms by male-vs-female mean cosine similarity.",
    )
    sp.add_argument("--terms", required=True, help="occupation term embeddings JSONL")
    sp.add_argument("--images", required=True)
    sp.add_argument("--labels", required=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (DataError, OSError) as exc:
        # Bad or unreadable inputs are the caller's problem, not the tool's.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
