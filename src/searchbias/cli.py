"""Command-line surface tying the library into reproducible pipelines.

Every subcommand is a pure function of its inputs, flags, and seed: outputs
are written with deterministic serialization (sorted keys, repr floats, no
timestamps), so rerunning the same invocation reproduces every file byte for
byte. Each run also writes a manifest.json recording the command, arguments,
seed, input digests, and the tool version. `main` writes it once the command
returns, from what the loaders recorded while they read: the SHA-256 of the
bytes each input file gave its parser (`core.recording_inputs`), so no input
is read again for it, and a pipe or FIFO is named by the bytes it delivered.
A path read twice with different bytes in one run is an error.

Outside the out-dir, the JSONL inputs read from regular files (embedding
tables, labels, truth and captions) are cached in
$SEARCHBIAS_CACHE_DIR (default $XDG_CACHE_HOME/searchbias, or
~/.cache/searchbias if XDG_CACHE_HOME is not an absolute path; set it empty
to turn the cache off), so a later command that reads the same bytes skips
parsing them; see `core.load_embeddings`. A cache directory that other users
may write to is not used. No output depends on it.

Exit codes: 0 success, 2 validation/data error, 3 runtime or numerical error.
"""

import argparse
import csv
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
    _json_str,
    _write_lines,
    load_captions,
    load_embeddings,
    load_labels,
    load_truth,
    recording_inputs,
    save_captions,
    save_embeddings,
    save_labels,
    save_truth,
    synth_dataset,
)
from .gender_text import GenderLexicon, image_gender, neutralize
from .metrics import bias_at_k, metric_curve, occupation_bias_report, recall_at_k
from .retrieval import retrieve_all
from .trainer import TrainerConfig, train, train_alphas, validate, validation_split

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


def _write_manifest(args, inputs):
    """Record what produced this out-dir: command, args, seed, and `inputs`,
    each input path's SHA-256 as its loader recorded it."""
    arg_map = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "command")
    }
    manifest = {
        "command": args.command,
        "args": arg_map,
        "seed": args.seed,
        "inputs": inputs,
        "version": __version__,
    }
    _write_json(_out_path(args, "manifest.json"), manifest)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _csv_field(text):
    """`text` as one CSV field: quoted, inner quotes doubled, when it holds a
    `,`, a `"`, a `\\r` or a `\\n`, so that `csv.reader` reads it back."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_per_query(path, text_ids, deltas, k_max):
    """Write per_query.csv: the header, then one text_id,k,delta row per
    query and cutoff k = 1..k_max; past the last column of `deltas`, every
    cutoff has that column's delta (see `MetricCurve`).

    Each id is quoted once and each distinct delta formatted once, with the
    `repr` csv.writer uses for a float; deltas are told apart by their bits,
    so -0.0 keeps its sign. A query's lines are one list of the fields
    [id, ",k,", delta, "\\n", ...], whose id and delta slots are refilled
    for each query, joined and written at once.
    """
    bits = np.ascontiguousarray(deltas, dtype=np.float64).view(np.int64)
    distinct, index = np.unique(bits, return_inverse=True)
    formatted = [repr(delta) for delta in distinct.view(np.float64).tolist()]
    past = k_max - bits.shape[1]
    fields = [None, None, None, "\n"] * k_max
    fields[1::4] = [f",{k}," for k in range(1, k_max + 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("text_id,k,delta\n")
        for text_id, row in zip(text_ids, index.reshape(bits.shape).tolist()):
            fields[::4] = [_csv_field(text_id)] * k_max
            fields[2::4] = [formatted[i] for i in row + row[-1:] * past]
            fh.write("".join(fields))


def _load_lexicon(path):
    return GenderLexicon.load(path) if path else GenderLexicon.default()


def _load_pair(images_path, texts_path):
    images = load_embeddings(images_path)
    texts = load_embeddings(texts_path, expected_dim=images.dim)
    return images, texts


def _load_inputs(args):
    """The images, texts, labels and truth that the data flags name, in that order."""
    images, texts = _load_pair(args.images, args.texts)
    return images, texts, load_labels(args.labels), load_truth(args.truth)


def _save_results(results, path):
    """Write a `RankedTable` as results.jsonl, each line the bytes `json.dumps`
    gives {"text_id": ..., "ranked": [{"image_id": ..., "score": ...}, ...]}:
    each image id is escaped once, each score written by its `repr`."""
    image_ids = [_json_str(iid) for iid in results.image_ids]

    def line(text_id, rows, scores):
        ranked = b", ".join(
            [b'{"image_id": %s, "score": %r}' % (image_ids[r], s) for r, s in zip(rows, scores)]
        )
        return b'{"text_id": %s, "ranked": [%s]}\n' % (_json_str(text_id), ranked)

    _write_lines(path, map(line, results.text_ids, results.rows.tolist(), results.scores.tolist()))


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
    print(
        f"synth: {len(ds.images)} images, {len(ds.texts)} texts, "
        f"dim {ds.images.dim} -> {args.out_dir}"
    )


def cmd_label(args):
    # Read after the captions, the lexicon left ~1 MB more resident memory.
    lexicon = _load_lexicon(args.lexicon)
    _, image_ids, texts = load_captions(args.captions)
    if not texts:
        _warn(f"{args.captions}: no captions; writing an empty labels file")
    labels = image_gender(texts, image_ids, lexicon)
    save_labels(labels, _out_path(args, "labels.jsonl"))
    print(f"label: {len(labels)} images labeled from {len(texts)} captions")


def cmd_neutralize(args):
    lexicon = _load_lexicon(args.lexicon)
    ids, image_ids, texts = load_captions(args.captions)
    changed = 0
    for i, text in enumerate(texts):
        # neutralize never returns an empty text, so the caption stays valid.
        new = neutralize(text, lexicon)
        if new != text:
            texts[i] = new
            changed += 1
    save_captions((ids, image_ids, texts), _out_path(args, "neutralized.jsonl"))
    print(f"neutralize: {len(texts)} captions written, {changed} changed")


def cmd_retrieve(args):
    if args.k < 1:
        raise DataError("k must be >= 1")
    images, texts = _load_pair(args.images, args.texts)
    results = retrieve_all(texts, images, k=args.k, threads=args.threads)
    _save_results(results, _out_path(args, "results.jsonl"))
    print(f"retrieve: {len(results)} queries, top-{args.k} -> results.jsonl")


def cmd_evaluate(args):
    k_list = sorted(set(args.k_list))
    if not k_list or k_list[0] < 1:
        raise DataError("--k-list needs at least one k >= 1")
    images, texts, labels, truth = _load_inputs(args)
    plan = None
    if args.clip_plan:
        plan = ClipPlan.load(args.clip_plan)
        images = apply_clip(images, plan)
        texts = apply_clip(texts, plan)
    k_max = k_list[-1]
    results = retrieve_all(texts, images, k=k_max, threads=args.threads)

    curve = metric_curve(results, k_max, labels=labels, truth=truth)
    curve_rows = [
        [k, bias, recall]
        for k, bias, recall in zip(range(1, k_max + 1), curve.biases(), curve.recalls())
    ]
    metrics = [
        {"k": k, "bias_at_k": bias, "male_share": (1.0 + bias) / 2.0, "recall_at_k": recall}
        for k, bias, recall in curve_rows
        if k in k_list
    ]
    report = {"n_queries": len(results), "metrics": metrics}
    _write_json(_out_path(args, "report.json"), report)
    _write_csv(_out_path(args, "curve.csv"), ["k", "bias_at_k", "recall_at_k"], curve_rows)
    if args.per_query:
        _write_per_query(_out_path(args, "per_query.csv"), curve.text_ids, curve.deltas, k_max)
    headline = ", ".join(
        f"bias@{m['k']}={m['bias_at_k']:.4f} recall@{m['k']}={m['recall_at_k']:.4f}"
        for m in metrics
    )
    print(f"evaluate: {len(results)} queries; {headline}")


def _check_bins(args):
    if args.bins < 1:
        raise DataError("bins must be >= 1")


def cmd_clip_fit(args):
    _check_bins(args)
    if args.m < 0:
        raise DataError("m must be >= 0")
    images = load_embeddings(args.images)
    labels = load_labels(args.labels)
    plan = fit_clip_plan(images, labels, args.m, bins=args.bins)
    plan.save(_out_path(args, "clip_plan.json"))
    print(f"clip-fit: m={plan.m} of dim={plan.dim}, clipped dims {plan.clipped}")


def cmd_clip_apply(args):
    table = load_embeddings(args.embeddings)
    plan = ClipPlan.load(args.plan)
    clipped = apply_clip(table, plan)
    save_embeddings(clipped, _out_path(args, "clipped.jsonl"))
    print(f"clip-apply: {len(clipped)} vectors reduced to dim {clipped.dim}")


def _check_val_frac(args):
    if not 0.0 <= args.val_frac < 1.0:
        raise DataError("val_frac must be in [0, 1)")


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
    cfg = _trainer_config(args, args.alpha, args.seed)
    _check_val_frac(args)
    ds = Dataset(*_load_inputs(args))
    text_labels = load_labels(args.text_labels) if args.text_labels else None
    header = ["epoch", "total_loss", "val_recall_at_10", "val_bias_at_10"]
    log = []
    encoders = train(
        ds, cfg, text_labels=text_labels, val_frac=args.val_frac,
        on_epoch=lambda row: log.append([row[key] for key in header]),
    )
    encoders.save(_out_path(args, "encoders.json"), cfg)
    _write_csv(_out_path(args, "training_log.csv"), header, log)
    if log:
        _, loss, recall, bias = log[-1]
        print(
            f"train: {cfg.epochs} epochs, final loss {loss:.4f}, "
            f"val recall@10 {recall:.4f}, val bias@10 {bias:.4f}"
        )
    else:
        print("train: 0 epochs, encoders saved at initialization")


def cmd_sweep_alpha(args):
    alphas = sorted(set(args.alphas))
    if not alphas:
        raise DataError("--alphas needs at least one alpha")
    seeds = [args.seed] if args.seeds is None else args.seeds
    if not seeds:
        raise DataError("--seeds needs at least one seed")
    if args.epochs < 1:
        raise DataError("sweep-alpha needs --epochs >= 1")
    _check_val_frac(args)
    cfgs = [[_trainer_config(args, alpha, seed) for alpha in alphas] for seed in seeds]
    ds = Dataset(*_load_inputs(args))
    text_labels = load_labels(args.text_labels) if args.text_labels else None
    # Each run is scored once, on the held-out rows of its seed's split.
    val_rows = [validation_split(len(ds.texts), seed, args.val_frac)[0] for seed in seeds]
    if not val_rows[0].size:
        raise DataError(
            f"sweep-alpha needs a non-empty validation split to score each run; "
            f"--val-frac {args.val_frac} of {len(ds.texts)} texts gives 0"
        )
    # scores[i]: (Recall@10, Bias@10) of alphas[i]'s final encoders, one per seed.
    scores = [[] for _ in alphas]
    for seed_cfgs, val_idx in zip(cfgs, val_rows):
        # One lockstep pass per seed.
        encoders = train_alphas(ds, seed_cfgs, text_labels=text_labels, val_frac=args.val_frac)
        for runs, enc in zip(scores, encoders):
            runs.append(validate(ds, enc, val_idx))
    rows = []
    for alpha, runs in zip(alphas, scores):
        recalls, biases = zip(*runs)
        rows.append(
            [alpha, math.fsum(recalls) / len(recalls), math.fsum(biases) / len(biases)]
        )
    _write_csv(
        _out_path(args, "alpha_sweep.csv"), ["alpha", "recall_at_10", "bias_at_10"], rows
    )
    print(f"sweep-alpha: {len(alphas)} alphas x {len(seeds)} seeds -> alpha_sweep.csv")


def cmd_sweep_m(args):
    m_list = sorted(set(args.m_list))
    if not m_list or m_list[0] < 0:
        raise DataError("--m-list needs m values >= 0")
    _check_bins(args)
    images, texts, labels, truth = _load_inputs(args)
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
        deltas = np.array(list(bias.per_query.values()))
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
    print(f"sweep-m: {len(m_list)} m values -> m_sweep.csv")


def cmd_occupation(args):
    images = load_embeddings(args.images)
    labels = load_labels(args.labels)
    terms = load_embeddings(args.terms, expected_dim=images.dim)
    report = occupation_bias_report(terms, images, labels)
    _write_json(
        _out_path(args, "occupation_bias.json"),
        {
            "mean_abs_bias": report.mean_abs_bias,
            "per_occupation": report.per_occupation,
            # Every term is scored; the key stays for readers of the file.
            "skipped": [],
        },
    )
    print(
        f"occupation-bias: {len(report.per_occupation)} terms scored, "
        f"mean |bias| {report.mean_abs_bias:.4f}"
    )


def build_parser(command=None):
    """The argument parser. Given the name of a subcommand, it holds only that
    subcommand, whose usage, help and error messages read the same; given
    anything else, every subcommand."""
    parser = argparse.ArgumentParser(
        prog="searchbias",
        description="Measure and mitigate gender bias in embedding-based text-to-image search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_data_flags(sp):
        for flag in ("--images", "--texts", "--labels", "--truth"):
            sp.add_argument(flag, required=True)

    def synth_flags(sp):
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

    def caption_flags(sp):
        sp.add_argument("--captions", required=True)
        sp.add_argument("--lexicon", default=None, help="JSON lexicon (default: built-in)")

    def retrieve_flags(sp):
        sp.add_argument("--images", required=True)
        sp.add_argument("--texts", required=True)
        sp.add_argument("-k", type=int, default=10)

    def evaluate_flags(sp):
        add_data_flags(sp)
        sp.add_argument("--k-list", type=_int_list, default=[1, 5, 10])
        sp.add_argument("--clip-plan", default=None, help="apply this plan to both tables first")
        sp.add_argument(
            "--per-query", action="store_true", help="also write per-query deltas CSV"
        )

    def clip_fit_flags(sp):
        sp.add_argument("--images", required=True)
        sp.add_argument("--labels", required=True)
        sp.add_argument("-m", type=int, required=True, help="number of dimensions to clip")
        sp.add_argument("--bins", type=int, default=20)

    def clip_apply_flags(sp):
        sp.add_argument("--embeddings", required=True)
        sp.add_argument("--plan", required=True)

    def add_trainer_flags(sp, with_alpha=True):
        add_data_flags(sp)
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

    def sweep_alpha_flags(sp):
        add_trainer_flags(sp, with_alpha=False)
        sp.add_argument("--alphas", type=_float_list, default=[0.0, 0.25, 0.5, 0.75, 1.0])
        sp.add_argument(
            "--seeds",
            type=_int_list,
            default=None,
            help="comma-separated seeds to average over (default: just --seed)",
        )

    def sweep_m_flags(sp):
        add_data_flags(sp)
        sp.add_argument("--m-list", type=_int_list, required=True)
        sp.add_argument("--bins", type=int, default=20)

    def occupation_flags(sp):
        sp.add_argument("--terms", required=True, help="occupation term embeddings JSONL")
        sp.add_argument("--images", required=True)
        sp.add_argument("--labels", required=True)

    # (name, function, help, flags), in the order the help lists them. The
    # functions are looked up on each call: the benchmark's tracer rebinds them.
    commands = [
        ("synth", cmd_synth, "Generate a synthetic benchmark with planted gender dimensions.",
         synth_flags),
        ("label", cmd_label, "Derive per-image gender labels from caption files.", caption_flags),
        ("neutralize", cmd_neutralize, "Rewrite captions with gendered words neutralized.",
         caption_flags),
        ("retrieve", cmd_retrieve, "Rank images for each text query by cosine similarity.",
         retrieve_flags),
        ("evaluate", cmd_evaluate, "Compute Bias@K and Recall@K reports with a per-k curve.",
         evaluate_flags),
        ("clip-fit", cmd_clip_fit, "Rank dimensions by mutual information and plan clipping.",
         clip_fit_flags),
        ("clip-apply", cmd_clip_apply, "Drop a plan's dimensions from an embedding table.",
         clip_apply_flags),
        ("train", cmd_train, "Train linear encoders with the fairness-blended triplet loss.",
         add_trainer_flags),
        ("sweep-alpha", cmd_sweep_alpha,
         "Train across fair-loss weights and tabulate the recall/bias tradeoff.",
         sweep_alpha_flags),
        ("sweep-m", cmd_sweep_m, "Evaluate bias/recall across clip sizes with bootstrap error bars.",
         sweep_m_flags),
        ("occupation-bias", cmd_occupation,
         "Score occupation terms by male-vs-female mean cosine similarity.", occupation_flags),
    ]
    for name, func, help_, add_flags in [c for c in commands if c[0] == command] or commands:
        sp = sub.add_parser(name, help=help_, description=help_)
        sp.set_defaults(func=func)
        sp.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
        sp.add_argument(
            "--threads", type=int, default=1, help="retrieval worker threads (default: 1)"
        )
        sp.add_argument(
            "--out-dir", default=".", help="directory for outputs and manifest.json"
        )
        add_flags(sp)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # A parser of one subcommand takes about a seventh of the time to build.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if args.threads < 1:
            raise DataError("threads must be >= 1")
        with recording_inputs() as inputs:
            args.func(args)
        _write_manifest(args, inputs)
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
