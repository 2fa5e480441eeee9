"""Gendered-language handling: word lists, caption labeling, and neutral rewrites.

Tokenization is ASCII lowercasing with non-alphabetic delimiters, and matching
is exact token membership (no stemming), so possessives like "man's" match via
the stem token "man". Neutralization rewrites gendered tokens to neutral ones
("man" -> "person", "mother" -> "parent") and removes bare attributive
"male"/"female"; the result never contains a gendered token and re-running the
rewrite is a no-op.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

from .core import (
    DataError,
    GenderLabel,
    _column_entry,
    _json_object,
    _json_str,
    _load_cached,
    _parse_jsonl,
    _read_columns,
    _read_utf8,
    _write_lines,
)

# A token is a run of ASCII letters. The group makes split() keep the words
# between the gaps; findall() returns the words either way.
_WORD_RE = re.compile(r"([A-Za-z]+)")

_MASCULINE = frozenset(
    ["man", "men", "male", "boy", "gentleman", "father", "brother", "son", "husband", "boyfriend"]
)
_FEMININE = frozenset(
    [
        "woman",
        "women",
        "female",
        "girl",
        "lady",
        "mother",
        "mom",
        "sister",
        "daughter",
        "wife",
        "girlfriend",
    ]
)
_NEUTRAL = frozenset(
    ["person", "people", "human", "adult", "baby", "child", "kid", "children", "guy", "teenage", "crowd"]
)

# None means the token is dropped when used attributively ("a female surfer").
_REPLACEMENT = {
    "man": "person",
    "men": "people",
    "male": None,
    "boy": "child",
    "gentleman": "person",
    "father": "parent",
    "brother": "sibling",
    "son": "child",
    "husband": "spouse",
    "boyfriend": "partner",
    "woman": "person",
    "women": "people",
    "female": None,
    "girl": "child",
    "lady": "person",
    "mother": "parent",
    "mom": "parent",
    "sister": "sibling",
    "daughter": "child",
    "wife": "spouse",
    "girlfriend": "partner",
}

# Mixed-gender plural phrases collapse to one word before token rules run.
_PHRASE_RE = re.compile(r"\b(?:men\s+and\s+women|women\s+and\s+men)\b", re.IGNORECASE)

# If one of these follows "male"/"female", the use is not attributive, so the
# token is replaced with "person" instead of dropped.
_NON_ATTRIBUTIVE_NEXT = frozenset(
    [
        "is", "are", "was", "were", "be", "been", "being", "am",
        "and", "or", "nor", "but",
        "who", "whom", "whose", "which", "that",
        "in", "on", "at", "of", "with", "by", "to", "for", "from", "as", "not",
    ]
)

_VOWELS = "aeiou"


def tokenize(text):
    """Lowercased alphabetic tokens of `text`."""
    return [word.lower() for word in _WORD_RE.findall(text)]


def _whole_words(words):
    """Regex source matching any of `words` with no a-z letter on either side.

    Each lookbehind follows its word, so a search still skips ahead to the
    words' first letters, and words that share a first letter share one
    branch, so a position is tried against one branch, not every word.
    """
    branches = []
    for first, group in itertools.groupby(sorted(words), key=lambda w: w[:1]):
        rests = "|".join(f"{re.escape(w[1:])}(?<![a-z]{re.escape(w)})" for w in group)
        branches.append(f"{re.escape(first)}(?:{rests})")
    return f"(?:{'|'.join(branches)})(?![a-z])"


@dataclass(frozen=True)
class GenderLexicon:
    """Masculine/feminine/neutral word sets plus the neutral replacement map.

    Instances are immutable: the word sets are frozensets and `replacement`
    is a read-only mapping, so `default()` can share one instance.
    """

    masculine: frozenset = _MASCULINE
    feminine: frozenset = _FEMININE
    neutral: frozenset = _NEUTRAL
    replacement: Mapping = field(default_factory=lambda: dict(_REPLACEMENT))

    def __post_init__(self):
        masc = frozenset(w.lower() for w in self.masculine)
        fem = frozenset(w.lower() for w in self.feminine)
        neu = frozenset(w.lower() for w in self.neutral)
        object.__setattr__(self, "masculine", masc)
        object.__setattr__(self, "feminine", fem)
        object.__setattr__(self, "neutral", neu)
        if masc & fem:
            raise DataError(f"words in both masculine and feminine lists: {sorted(masc & fem)}")
        gendered = masc | fem
        repl = {k.lower(): (v.lower() if isinstance(v, str) else v) for k, v in self.replacement.items()}
        object.__setattr__(self, "replacement", MappingProxyType(repl))
        for key, value in repl.items():
            if key not in gendered:
                raise DataError(f"replacement key {key!r} is not a gendered word")
            if value is not None and (not value or set(tokenize(value)) & gendered):
                raise DataError(f"replacement target {value!r} for {key!r} is itself gendered")
        object.__setattr__(self, "_gendered", gendered)
        # Prefilter for ASCII text, which lowers letter for letter: a gendered
        # token stands in the lowered text with no letter on either side, so a
        # text this misses has none. "men" stands for the phrase rule, which
        # runs under any lexicon.
        object.__setattr__(self, "_prefilter", re.compile(_whole_words(gendered | {"men"})))
        # The caption scan (see `caption_hits`) looks only for the words that
        # can equal a token, runs of a-z; an empty alternation would match
        # everywhere, so without such words there is no scan.
        letters = [w for w in gendered if w.isascii() and w.isalpha()]
        scan = re.compile(_whole_words(letters).encode("ascii")) if letters else None
        object.__setattr__(self, "_scan", scan)
        object.__setattr__(self, "_scan_masculine", {w.encode("ascii") for w in letters if w in masc})

    def __hash__(self):
        # Agrees with the generated __eq__, which compares the four fields;
        # a mappingproxy is not hashable, so its items stand in for it.
        return hash(
            (self.masculine, self.feminine, self.neutral, frozenset(self.replacement.items()))
        )

    def __reduce__(self):
        # A mappingproxy does not pickle; the constructor arguments do.
        return type(self), (self.masculine, self.feminine, self.neutral, dict(self.replacement))

    @classmethod
    @functools.cache
    def default(cls):
        """The built-in lexicon, one shared instance built on first use."""
        return cls()

    def to_json(self):
        return json.dumps(
            {
                "masculine": sorted(self.masculine),
                "feminine": sorted(self.feminine),
                "neutral": sorted(self.neutral),
                "replacement": {k: self.replacement[k] for k in sorted(self.replacement)},
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        lists = ("masculine", "feminine", "neutral")
        obj = _json_object(text, "lexicon", (*lists, "replacement"))
        for key in lists:
            if not isinstance(obj[key], list) or not all(isinstance(w, str) for w in obj[key]):
                raise DataError(f"lexicon {key!r} must be a list of words")
        repl = obj["replacement"]
        if not isinstance(repl, dict) or not all(v is None or isinstance(v, str) for v in repl.values()):
            raise DataError("lexicon 'replacement' must map each word to a word or null")
        return cls(*(frozenset(obj[key]) for key in lists), replacement=repl)

    @classmethod
    def load(cls, path):
        return cls.from_json(_read_utf8(path))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


class CaptionGender(Enum):
    HAS_MASC = "has_masc"
    HAS_FEM = "has_fem"
    HAS_BOTH = "has_both"
    NONE = "none"


def caption_hits(texts, lexicon=None):
    """Whether each text holds a masculine token and a feminine token, as two
    boolean arrays (masculine, feminine) in the order of `texts`.

    One scan serves the whole column. The texts are joined by "\\n" and every
    non-ASCII code point is folded to "?", which keeps each offset and each
    run of ASCII letters, so the tokens too; lowering the folded text can then
    turn no other character into an ASCII letter (as `str.lower` turns the
    Kelvin sign into "k"). Each whole-word match of a gendered word is mapped
    back to its text by the texts' start offsets, never by counting "\\n": a
    text may hold one.
    """
    lexicon = lexicon or GenderLexicon.default()
    masc = np.zeros(len(texts), dtype=bool)
    fem = np.zeros(len(texts), dtype=bool)
    if lexicon._scan is None:
        return masc, fem
    folded = "\n".join(texts).encode("ascii", "replace").lower()
    # Each match as one integer, 2 * start + (1 if masculine else 0), read as
    # the scan goes: holding every match object at once left the heap larger.
    masculine = lexicon._scan_masculine
    found = np.fromiter(
        (2 * m.start() + (m[0] in masculine) for m in lexicon._scan.finditer(folded)), dtype=np.intp
    )
    # ends[i] is one past the "\n" that follows text i.
    ends = np.cumsum(np.fromiter(map(len, texts), dtype=np.intp, count=len(texts)) + 1)
    rows = np.searchsorted(ends, found >> 1, side="right")
    is_masc = (found & 1).astype(bool)
    masc[rows[is_masc]] = True
    fem[rows[~is_masc]] = True
    return masc, fem


def caption_gender(text, lexicon=None):
    """Which gendered word sets a caption hits (exact token match)."""
    (has_masc,), (has_fem,) = caption_hits([text], lexicon)
    if has_masc and has_fem:
        return CaptionGender.HAS_BOTH
    if has_masc:
        return CaptionGender.HAS_MASC
    if has_fem:
        return CaptionGender.HAS_FEM
    return CaptionGender.NONE


# An image's label by (any caption masculine) + 2 * (any caption feminine).
_IMAGE_LABELS = (GenderLabel.NEUTRAL, GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL)


def image_gender(caption_texts, lexicon=None, image_ids=None):
    """Aggregate captions into image gender labels.

    An image is Male iff at least one of its captions mentions a masculine
    word and none mentions a feminine word; Female symmetrically; Neutral
    otherwise. Order of the captions does not matter.

    Given `image_ids`, one per caption, returns {image id: label} in the order
    each id first appears. Without them, every caption is one image's, and
    that image's label is returned.
    """
    texts = list(caption_texts)
    one_image = image_ids is None
    if one_image:
        if not texts:
            raise DataError("image_gender needs at least one caption")
        image_ids = [None] * len(texts)
    elif len(image_ids) != len(texts):
        raise ValueError(f"{len(image_ids)} image ids for {len(texts)} captions")
    masc, fem = caption_hits(texts, lexicon)
    # One dict maps each image id to its row, then to its label.
    labels = dict.fromkeys(image_ids)
    for row, image_id in enumerate(labels):
        labels[image_id] = row
    image_rows = np.fromiter(map(labels.__getitem__, image_ids), dtype=np.intp, count=len(texts))
    codes = np.zeros(len(labels), dtype=np.intp)
    codes[image_rows[masc]] = 1
    codes[image_rows[fem]] |= 2
    for image_id, code in zip(labels, codes.tolist()):
        labels[image_id] = _IMAGE_LABELS[code]
    return labels[None] if one_image else labels


def _match_case(template, word):
    if len(template) > 1 and template.isupper():
        return word.upper()
    if template[:1].isupper():
        return word[:1].upper() + word[1:]
    return word


def _phrase_sub(match):
    return _match_case(match.group(), "people")


def neutralize(text, lexicon=None):
    """Rewrite a caption into gender-neutral language.

    Phrase rules run first ("men and women" -> "people"), then token rules.
    A None replacement drops the token and one adjacent space when it is used
    attributively (next word follows directly and is not a function word);
    otherwise it degrades to "person". Sentence-initial capitalization is
    preserved. Output never contains a gendered token, so the rewrite is
    idempotent. An ASCII text the lexicon's prefilter misses is returned as is.
    """
    lexicon = lexicon or GenderLexicon.default()
    lowered = text.lower()
    if text.isascii() and not lexicon._prefilter.search(lowered):
        return text
    # The phrase holds "and", whose letters only ASCII a/n/d match when case
    # is ignored, so a lowered text without "and" holds no phrase.
    if "and" in lowered:
        text = _PHRASE_RE.sub(_phrase_sub, text)
    gendered = lexicon._gendered

    # Gaps and words alternate, gap first and last: words sit at odd indices.
    # Rewrites edit their slot; a dropped word empties it.
    parts = _WORD_RE.split(text)
    last_gap = len(parts) - 1
    kept = 0  # slot of the most recent word kept, 0 before the first
    capitalize_next = False
    for j in range(1, last_gap, 2):
        word = parts[j]
        low = word.lower()
        if low in gendered:
            target = lexicon.replacement.get(low, "person")
            if target is None:
                # Attributive: whitespace alone joins the next word, which is
                # not a function word.
                if (
                    j + 2 < last_gap
                    and parts[j + 1].isspace()
                    and parts[j + 2].lower() not in _NON_ATTRIBUTIVE_NEXT
                ):
                    # Drop the token plus one adjacent space.
                    parts[j] = ""
                    if parts[j + 1][0] == " ":
                        parts[j + 1] = parts[j + 1][1:]
                    elif parts[j - 1].endswith(" "):
                        parts[j - 1] = parts[j - 1][:-1]
                    if j == 1 and word[:1].isupper():
                        capitalize_next = True
                    # Fix article agreement: "a" vs "an" against the word now adjacent.
                    if kept and parts[kept].lower() in ("a", "an"):
                        wanted = "an" if parts[j + 2][:1].lower() in _VOWELS else "a"
                        parts[kept] = _match_case(parts[kept], wanted)
                    continue
                target = "person"
            word = parts[j] = _match_case(word, target)
        if capitalize_next:
            parts[j] = word[:1].upper() + word[1:]
            capitalize_next = False
        kept = j
    return "".join(parts)


def load_captions(path):
    """Load {"id", "image_id", "text"} JSONL records as the columns
    (ids, image_ids, texts), three lists in file order.

    Cached like an embedding table (see `load_embeddings`): the entry is the
    three columns as one JSON array.
    """
    return _load_cached(path, "captions", _parse_captions, _read_captions, _column_entry)


def _parse_captions(path, sha):
    ids, image_ids, texts = [], [], []
    seen = set()
    for lineno, obj in _parse_jsonl(path, sha):
        try:
            # Read left to right, so the first missing key raises.
            cid, image_id, text = obj["id"], obj["image_id"], obj["text"]
        except KeyError as exc:
            raise DataError(f"{path}, line {lineno}: record needs {exc.args[0]!r}") from None
        if not cid or not isinstance(cid, str):
            problem = f"caption id must be a non-empty string, got {cid!r}"
        elif not image_id or not isinstance(image_id, str):
            problem = f"caption {cid!r}: image_id must be a non-empty string"
        elif not text or not isinstance(text, str):
            problem = f"caption {cid!r}: text must be a non-empty string"
        elif cid in seen:  # last: an id that is not a string may not hash
            problem = f"duplicate caption id {cid!r}"
        else:
            seen.add(cid)
            ids.append(cid)
            image_ids.append(image_id)
            texts.append(text)
            continue
        raise DataError(f"{path}, line {lineno}: {problem}")
    return ids, image_ids, texts


def _read_captions(fh):
    ids, image_ids, texts = _read_columns(fh, 3)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate caption id")
    return ids, image_ids, texts


def save_captions(columns, path):
    """Write the columns (ids, image_ids, texts) as caption JSONL lines."""
    _write_lines(
        path,
        (b'{"id": %s, "image_id": %s, "text": %s}\n'
         % (_json_str(cid), _json_str(image_id), _json_str(text))
         for cid, image_id, text in zip(*columns, strict=True)),
    )
