"""Output oracle: reference values for every command the workloads run.

The reference values are computed here, by brute force with numpy, from the
generated inputs; none of the package's scoring or metric code is reused.
Each workload check returns one list of problems per command (empty when that
command's outputs are correct).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re

import numpy as np
from searchbias import cli

from workloads import FEMININE, MASCULINE

# Scores closer than this may legitimately rank either way.
TIE_EPS = 1e-9
# Allowed difference between a reported value and its reference.
VALUE_TOL = 1e-9

_GENDERED = frozenset(MASCULINE) | frozenset(FEMININE)
_WORD_RE = re.compile(r"[A-Za-z]+")


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_table(path):
    records = read_jsonl(path)
    return [r["id"] for r in records], np.array([r["vector"] for r in records], dtype=np.float64)


def read_labels(path):
    return {r["id"]: r["gender"] for r in read_jsonl(path)}


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _unit(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class Ranking:
    """Every query scored against every image; ties go to the earlier image row."""

    def __init__(self, texts, images, depth):
        scores = _unit(texts) @ _unit(images).T
        depth = min(depth, images.shape[0])
        order = np.argsort(-scores, axis=1, kind="stable")[:, : depth + 1]
        top = np.take_along_axis(scores, order, axis=1)
        self.order = order[:, :depth]
        # ambiguous[q, k - 1]: the k-th and (k+1)-th scores are too close to order.
        gap = top[:, :-1] - top[:, 1:]
        self.ambiguous = np.zeros(self.order.shape, dtype=bool)
        self.ambiguous[:, : gap.shape[1]] = gap[:, :depth] <= TIE_EPS

    def deltas(self, signs):
        """Per-query gender skew at every cutoff k = 1..depth (Q x depth)."""
        ranked = signs[self.order]
        n_male = np.cumsum(ranked == 1, axis=1)
        n_female = np.cumsum(ranked == -1, axis=1)
        gendered = n_male + n_female
        return np.where(gendered > 0, (n_male - n_female) / np.maximum(gendered, 1), 0.0)

    def hits(self, truth_rows):
        """hits[q, k - 1]: the query's true image is in its top k."""
        return np.cumsum(self.order == truth_rows[:, None], axis=1) > 0


class Inputs:
    """The generated tables of one workload, read back from JSONL."""

    def __init__(self, in_dir):
        self.image_ids, self.images = read_table(os.path.join(in_dir, "images.jsonl"))
        self.text_ids, self.texts = read_table(os.path.join(in_dir, "texts.jsonl"))
        self.labels = read_labels(os.path.join(in_dir, "labels.jsonl"))
        row_of = {iid: i for i, iid in enumerate(self.image_ids)}
        truth = {r["text_id"]: r["image_id"] for r in read_jsonl(os.path.join(in_dir, "truth.jsonl"))}
        self.truth_rows = np.array([row_of[truth[tid]] for tid in self.text_ids])
        sign = {"male": 1, "female": -1, "neutral": 0}
        self.signs = np.array([sign[self.labels[iid]] for iid in self.image_ids])


def _close(name, got, want, tol):
    if not abs(got - want) <= tol:
        return [f"{name}: reported {got!r}, reference {want!r} (tolerance {tol:.3g})"]
    return []


def check_evaluate(out_dir, inp, keep=None, per_query=False):
    """report.json (and per_query.csv) against a brute-force ranking."""
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    texts, images = inp.texts, inp.images
    if keep is not None:
        texts, images = texts[:, keep], images[:, keep]
    ks = [m["k"] for m in report["metrics"]]
    ranking = Ranking(texts, images, max(ks))
    deltas = ranking.deltas(inp.signs)
    hits = ranking.hits(inp.truth_rows)
    n = len(inp.text_ids)
    problems = [] if report["n_queries"] == n else [f"n_queries {report['n_queries']} != {n}"]
    for m in report["metrics"]:
        k = m["k"]
        unsure = int(ranking.ambiguous[:, k - 1].sum())
        bias = float(deltas[:, k - 1].mean())
        problems += _close(f"bias@{k}", m["bias_at_k"], bias, 2 * unsure / n + VALUE_TOL)
        problems += _close(f"male_share@{k}", m["male_share"], (1 + bias) / 2, unsure / n + VALUE_TOL)
        problems += _close(
            f"recall@{k}", m["recall_at_k"], float(hits[:, k - 1].mean()), unsure / n + VALUE_TOL
        )
    if per_query:
        rows = read_csv(os.path.join(out_dir, "per_query.csv"))[1:]
        depth = deltas.shape[1]
        want = [(tid, k) for tid in inp.text_ids for k in range(1, depth + 1)]
        if [(r[0], int(r[1])) for r in rows] != want:
            return problems + ["per_query.csv rows are not (text, k) in text order"]
        got = np.array([float(r[2]) for r in rows]).reshape(n, depth)
        bad = (np.abs(got - deltas) > VALUE_TOL) & ~ranking.ambiguous
        if bad.any():
            q, k = map(int, np.argwhere(bad)[0])
            problems.append(
                f"per_query delta of {inp.text_ids[q]} at k={k + 1}: "
                f"{float(got[q, k])!r} vs reference {float(deltas[q, k])!r} ({int(bad.sum())} rows differ)"
            )
    return problems


def check_clip_plan(path, planted, m):
    with open(path, encoding="utf-8") as fh:
        clipped = json.load(fh)["clipped"]
    if len(clipped) != m:
        return [f"clip plan has {len(clipped)} dims, expected {m}"]
    if sorted(clipped[:planted]) != list(range(planted)):
        return [f"planted dims 0-{planted - 1} do not lead the clip plan: {clipped[:planted]}"]
    return []


def check_occupation(path, terms_path, inp):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    term_ids, terms = read_table(terms_path)
    cos = _unit(terms) @ _unit(inp.images).T
    gap = cos[:, inp.signs == 1].mean(axis=1) - cos[:, inp.signs == -1].mean(axis=1)
    problems = [] if report["skipped"] == [] else [f"skipped terms {report['skipped']}"]
    if sorted(report["per_occupation"]) != sorted(term_ids):
        return problems + ["per_occupation does not list every term"]
    for tid, want in zip(term_ids, gap):
        problems += _close(f"occupation {tid}", report["per_occupation"][tid], float(want), VALUE_TOL)
    problems += _close("mean_abs_bias", report["mean_abs_bias"], float(np.abs(gap).mean()), VALUE_TOL)
    return problems


def check_labels(path, planted):
    got = read_labels(path)
    if got == planted:
        return []
    wrong = [iid for iid in planted if got.get(iid) != planted[iid]]
    return [f"{len(wrong)} labels differ from the planted ones (first: {wrong[:3]})"]


def check_neutralize(path, captions_path, second_pass_dir):
    before = read_jsonl(captions_path)
    after = read_jsonl(path)
    if [(c["id"], c["image_id"]) for c in after] != [(c["id"], c["image_id"]) for c in before]:
        return ["neutralized captions do not keep caption ids and order"]
    problems = []
    leftover = [
        c["id"] for c in after if _GENDERED.intersection(w.lower() for w in _WORD_RE.findall(c["text"]))
    ]
    if leftover:
        problems.append(f"{len(leftover)} captions keep a gendered word (first: {leftover[0]})")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["neutralize", "--captions", path, "--out-dir", second_pass_dir])
    again = read_jsonl(os.path.join(second_pass_dir, "neutralized.jsonl")) if rc == 0 else None
    if again is None or [c["text"] for c in again] != [c["text"] for c in after]:
        problems.append("a second neutralize pass changes the output")
    return problems


def check_clip_apply(path, inp, clipped):
    ids, vectors = read_table(path)
    if ids != inp.image_ids:
        return ["clipped table does not keep image ids and order"]
    if not np.array_equal(vectors, np.delete(inp.images, clipped, axis=1)):
        return ["clipped vectors differ from the input with the plan's dims removed"]
    return []


def check_sweep(path, alphas):
    rows = read_csv(path)
    if rows[0] != ["alpha", "recall_at_10", "bias_at_10"] or len(rows) != len(alphas) + 1:
        return [f"alpha_sweep.csv should have a header and {len(alphas)} rows, got {rows}"]
    problems = []
    for row, alpha in zip(rows[1:], alphas):
        alpha_got, recall, bias = (float(x) for x in row)
        if alpha_got != alpha or not all(map(math.isfinite, (recall, bias))):
            problems.append(f"alpha row {row} is not alpha={alpha} with finite values")
        elif not (0.0 <= recall <= 1.0 and -1.0 <= bias <= 1.0):
            problems.append(f"alpha row {row} is out of range")
    return problems


def _guard(check, *args, **kwargs):
    """Run one check; an unreadable or malformed output is a problem, not a crash."""
    try:
        return check(*args, **kwargs)
    except Exception as exc:  # any malformed output is a failed check
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


def check_coco(in_dir, out_dir, shape):
    inp = Inputs(in_dir)
    plan_path = os.path.join(out_dir, "plan", "clip_plan.json")
    try:
        with open(plan_path, encoding="utf-8") as fh:
            dropped = set(json.load(fh)["clipped"])
        keep = [d for d in range(shape["dim"]) if d not in dropped]
    except (OSError, ValueError, KeyError, TypeError):
        keep = None
    return [
        _guard(check_clip_plan, plan_path, shape["planted"], shape["m"]),
        _guard(check_evaluate, os.path.join(out_dir, "eval"), inp),
        _guard(check_evaluate, os.path.join(out_dir, "eval_clipped"), inp, keep=keep)
        if keep is not None else ["no readable clip plan to check against"],
        _guard(check_occupation, os.path.join(out_dir, "occupation", "occupation_bias.json"),
               os.path.join(in_dir, "terms.jsonl"), inp),
    ]


def check_deep(in_dir, out_dir, shape):
    inp = Inputs(in_dir)
    captions = os.path.join(in_dir, "captions.jsonl")
    return [
        _guard(check_labels, os.path.join(out_dir, "label", "labels.jsonl"), inp.labels),
        _guard(check_neutralize, os.path.join(out_dir, "neutral", "neutralized.jsonl"), captions,
               os.path.join(out_dir, "neutral_again")),
        _guard(check_evaluate, os.path.join(out_dir, "eval"), inp, per_query=True),
        _guard(check_clip_apply, os.path.join(out_dir, "clip", "clipped.jsonl"), inp,
               list(range(shape["planted"]))),
    ]


def check_fair(in_dir, out_dir, shape):
    return [_guard(check_sweep, os.path.join(out_dir, "sweep", "alpha_sweep.csv"), [0.0, 0.5, 1.0])]


CHECKS = {"coco-clip": check_coco, "corpus-deep": check_deep, "fair-sweep": check_fair}
