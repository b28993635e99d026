"""Deterministic text preprocessing and TF-IDF vectorization.

Summary and description are merged, lowercased, and tokenized; pure
numbers, punctuation, stop words, and tokens longer than 20 characters
are dropped; remaining tokens pass through a rule-based suffix stripper
(an approximation of dictionary lemmatization, kept in-repo so results
are reproducible bit for bit).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import ValidationError

MAX_TOKEN_LEN = 20

# Versioned stop-word list; changing it changes every downstream artifact.
STOP_WORDS = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by can cannot could did do does
    doing down during each few for from further had has have having he her
    here hers herself him himself his how i if in into is it its itself just
    me more most my myself no nor not now of off on once only or other our
    ours ourselves out over own same she should so some such than that the
    their theirs them themselves then there these they this those through to
    too under until up very was we were what when where which while who whom
    why will with would you your yours yourself yourselves
    """.split()
)

# Irregular forms the suffix rules would mangle.
LEMMA_EXCEPTIONS = {
    "was": "be",
    "were": "be",
    "has": "have",
    "had": "have",
    "does": "do",
    "did": "do",
    "went": "go",
    "gone": "go",
    "ran": "run",
    "running": "run",
    "threw": "throw",
    "thrown": "throw",
    "broke": "break",
    "broken": "break",
    "wrote": "write",
    "written": "write",
    "found": "find",
    "failing": "fail",
    "classes": "class",
    "crashes": "crash",
    "fixes": "fix",
    "bugs": "bug",
}

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_VOWELS = set("aeiou")


def _strip_suffix(token: str) -> str:
    if token in LEMMA_EXCEPTIONS:
        return LEMMA_EXCEPTIONS[token]
    for suffix, replacement, min_stem in (
        ("sses", "ss", 2),
        ("ies", "y", 2),
        ("ing", "", 3),
        ("edly", "", 3),
        ("ed", "", 3),
        ("ly", "", 3),
        ("s", "", 3),
    ):
        if token.endswith(suffix):
            stem = token[: len(token) - len(suffix)] + replacement
            if len(stem) < min_stem:
                continue
            if suffix == "s" and token.endswith(("ss", "us", "is")):
                continue
            # doubled final consonant from gemination: "stopped" -> "stop"
            if suffix in ("ing", "ed") and len(stem) >= 2:
                if stem[-1] == stem[-2] and stem[-1] not in _VOWELS:
                    stem = stem[:-1]
            return stem
    return token


@dataclass(frozen=True)
class TokenizedDoc:
    bug_id: int
    tokens: tuple


def preprocess_text(summary: str, description: str, bug_id: int = -1) -> TokenizedDoc:
    """Merge, lowercase, tokenize, and normalize a bug's text."""
    merged = f"{summary} {description}".lower()
    tokens = []
    for raw in _TOKEN_RE.findall(merged):
        if raw.isdigit():
            continue
        if raw in STOP_WORDS:
            continue
        token = _strip_suffix(raw)
        if not token or token in STOP_WORDS:
            continue
        if len(token) > MAX_TOKEN_LEN:
            continue
        tokens.append(token)
    return TokenizedDoc(bug_id=bug_id, tokens=tuple(tokens))


@dataclass(frozen=True)
class Vocabulary:
    index: dict  # term -> dense index, lexicographic order
    doc_freq: dict  # term -> number of docs containing it
    n_docs: int

    def __len__(self):
        return len(self.index)

    @property
    def terms(self):
        return sorted(self.index, key=self.index.get)


def build_vocabulary(docs, min_df: int = 2) -> Vocabulary:
    """Deterministic vocabulary over training docs; rare terms dropped."""
    doc_freq: dict[str, int] = {}
    for doc in docs:
        for term in set(doc.tokens):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    kept = sorted(t for t, df in doc_freq.items() if df >= min_df)
    if not kept:
        raise ValidationError(
            "no vocabulary terms survive min_df; corpus empty or too sparse"
        )
    return Vocabulary(
        index={t: i for i, t in enumerate(kept)},
        doc_freq={t: doc_freq[t] for t in kept},
        n_docs=len(docs),
    )


def tfidf_transform(doc: TokenizedDoc, vocab: Vocabulary) -> np.ndarray:
    """Dense row of tf * (ln((1+N)/(1+df)) + 1), L2-normalized; OOV
    terms ignored.  The squared weights are summed left to right in
    first-occurrence order (``sum`` compensates from Python 3.12).

    A doc with no in-vocabulary terms yields the zero row.
    """
    counts: dict[str, int] = {}
    for token in doc.tokens:
        if token in vocab.index:
            counts[token] = counts.get(token, 0) + 1
    row = np.zeros(len(vocab))
    if not counts:
        return row
    n = vocab.n_docs
    weights = {
        term: tf * (math.log((1 + n) / (1 + vocab.doc_freq[term])) + 1.0)
        for term, tf in counts.items()
    }
    norm = math.sqrt(reduce(add, (w * w for w in weights.values()), 0.0))
    for term, weight in weights.items():
        row[vocab.index[term]] = weight / norm
    return row
