"""Gendered-language handling: word lists, caption labeling, and neutral rewrites.

Tokenization is ASCII lowercasing with non-alphabetic delimiters, and matching
is exact token membership (no stemming), so possessives like "man's" match via
the stem token "man". `caption_hits` labels each caption and `image_gender`
each image. Neutralization rewrites gendered tokens to neutral ones
("man" -> "person", "mother" -> "parent") and removes bare attributive
"male"/"female"; the result never contains a gendered token and re-running the
rewrite is a no-op.

Caption files are read and written by `core.load_captions` and
`core.save_captions`, beside labels and truth, and a bad line is refused in
their wording, such as `caps.jsonl, line 2 (id 'c1'): text must be a
non-empty string, got ''`.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .core import DataError, GenderLabel, _json_object, _read_utf8

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
    """Masculine and feminine word sets plus the neutral replacement map.

    Instances are immutable: the word sets are frozensets and `replacement`
    is a read-only mapping, so `default()` can share one instance.
    """

    masculine: frozenset = _MASCULINE
    feminine: frozenset = _FEMININE
    replacement: Mapping = field(default_factory=lambda: dict(_REPLACEMENT))

    def __post_init__(self):
        masc = frozenset(w.lower() for w in self.masculine)
        fem = frozenset(w.lower() for w in self.feminine)
        object.__setattr__(self, "masculine", masc)
        object.__setattr__(self, "feminine", fem)
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
        # Agrees with the generated __eq__, which compares the three fields;
        # a mappingproxy is not hashable, so its items stand in for it.
        return hash((self.masculine, self.feminine, frozenset(self.replacement.items())))

    def __reduce__(self):
        # A mappingproxy does not pickle; the constructor arguments do.
        return type(self), (self.masculine, self.feminine, dict(self.replacement))

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
                "replacement": {k: self.replacement[k] for k in sorted(self.replacement)},
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text):
        # Other keys, such as the "neutral" list of older files, are ignored.
        lists = ("masculine", "feminine")
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


# An image's label by (any caption masculine) + 2 * (any caption feminine).
_IMAGE_LABELS = (GenderLabel.NEUTRAL, GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL)


def image_gender(caption_texts, image_ids, lexicon=None):
    """Aggregate captions into image gender labels, given one image id per
    caption; returns {image id: label} in the order each id first appears.

    An image is Male iff at least one of its captions mentions a masculine
    word and none mentions a feminine word; Female symmetrically; Neutral
    otherwise. Order of the captions does not matter.
    """
    texts = list(caption_texts)
    if len(image_ids) != len(texts):
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
    return labels


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
