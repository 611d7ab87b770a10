"""NVD ingestion, tokenization, vocabulary construction and frequency stats.

Input formats:
  * NVD TSV: one record per line, ``CVE-id<TAB>description``, UTF-8.
  * NVD JSON feed: ``CVE_Items[].cve`` with ``CVE_data_meta.ID`` and
    ``description.description_data[lang=en].value``.
  * Labeled TSV (CoNLL-like): one ``token<TAB>TAG`` per line, blank line
    between sentences.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ._textio import read_data, read_text
from .errors import EmptyCorpus, MalformedLine, MalformedRecord, UnknownTag

CVE_ID_RE = re.compile(r"CVE-\d{4}-\d{4,}")

# Words may contain internal dots or hyphens so that version strings
# ("9.3.3", "9.x"), ports and CVE ids survive as single tokens.  Punctuation
# never enters the token stream.
_TOKEN_RE = re.compile(r"\w+(?:[.\-]\w+)*")

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+|\n+")

#: Reserved word at vocabulary id 0 for everything out of vocabulary.
OOV_WORD = "<oov>"


#: Fixed English stopword list shipped with the tool (data/stopwords.txt).
STOPWORDS: frozenset[str] = frozenset(
    w for w in read_data("stopwords.txt").split() if not w.startswith("#")
)


@dataclass(frozen=True)
class RawVulnerability:
    """One NVD record: a CVE identifier plus its free-text description."""

    id: str
    description: str

    def __post_init__(self):
        if not CVE_ID_RE.fullmatch(self.id):
            raise MalformedRecord(f"bad CVE identifier {self.id!r}")
        if not self.description.strip():
            raise MalformedRecord(f"{self.id}: blank description")


@dataclass(frozen=True)
class Token:
    surface: str
    norm: str


@dataclass(frozen=True)
class LabeledSentence:
    tokens: tuple[Token, ...]
    tags: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise MalformedRecord(
                f"{len(self.tokens)} tokens vs {len(self.tags)} tags"
            )

    def norms(self) -> list[str]:
        return [t.norm for t in self.tokens]


def normalize(word: str) -> str:
    """Lowercase, except tokens containing digits (versions, ports, CVE ids)
    which are preserved verbatim."""
    return word if any(map(str.isdigit, word)) else word.lower()


def tokenize(text: str) -> list[Token]:
    """Split free text into word tokens, each its surface form and its norm.

    Punctuation is dropped from the stream; version-like strings ("9.3.3",
    "9.x"), port numbers and CVE ids come out as single tokens.
    """
    return [Token(word, normalize(word)) for word in _TOKEN_RE.findall(text)]


def norms(text: str) -> list[str]:
    return [t.norm for t in tokenize(text)]


def split_sentences(text: str) -> list[str]:
    """Newline/period sentence splitting; never splits inside a version
    token because those contain no whitespace."""
    return [s for s in _SENTENCE_SPLIT_RE.split(text) if s and not s.isspace()]


def sentences_of(record: RawVulnerability) -> list[list[str]]:
    """Tokenized, normalized sentences of one record."""
    return [
        ns for s in split_sentences(record.description) if (ns := norms(s))
    ]


# --- feed loading -----------------------------------------------------------


@dataclass
class FeedLoadResult:
    """Records plus the skip/error bookkeeping the loaders must report."""

    records: list[RawVulnerability] = field(default_factory=list)
    skipped_empty: int = 0
    malformed: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def load_nvd_feed(path: str | Path) -> FeedLoadResult:
    """Load an NVD JSON feed or the plain TSV format.

    Records with blank descriptions are skipped and counted; malformed
    records are collected, and only fatal when every record is malformed.
    """
    text = read_text(path)
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        return _load_json_feed(text)
    return _load_tsv_feed(text)


def _load_tsv_feed(text: str) -> FeedLoadResult:
    result = FeedLoadResult()
    total = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        total += 1
        cve_id, sep, description = line.partition("\t")
        if not sep or not CVE_ID_RE.fullmatch(cve_id.strip()):
            result.malformed.append(f"line {lineno}: not 'CVE-id<TAB>description'")
            continue
        if not description.strip():
            result.skipped_empty += 1
            continue
        result.records.append(RawVulnerability(cve_id.strip(), description.strip()))
    _raise_if_all_malformed(result, total)
    return result


def _load_json_feed(text: str) -> FeedLoadResult:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedRecord(f"invalid JSON feed: {exc}") from exc

    items = data.get("CVE_Items") if isinstance(data, dict) else data
    if not isinstance(items, list):
        raise MalformedRecord("JSON feed is neither an array nor an object with a CVE_Items array")

    result = FeedLoadResult()
    for idx, item in enumerate(items):
        try:
            cve = item["cve"]
            cve_id = cve["CVE_data_meta"]["ID"]
            descriptions = cve["description"]["description_data"]
            value = next(
                (d["value"] for d in descriptions if d.get("lang") == "en"), None
            )
            if not isinstance(cve_id, str) or not isinstance(value, (str, type(None))):
                raise TypeError("CVE id or description is not a string")
        except KeyError as exc:
            result.malformed.append(f"item {idx}: missing {exc}")
            continue
        except (TypeError, AttributeError) as exc:
            result.malformed.append(f"item {idx}: {exc}")
            continue
        if value is None or not value.strip():
            result.skipped_empty += 1
            continue
        if not CVE_ID_RE.fullmatch(cve_id):
            result.malformed.append(f"item {idx}: bad CVE id {cve_id!r}")
            continue
        result.records.append(RawVulnerability(cve_id, value.strip()))
    _raise_if_all_malformed(result, len(items))
    return result


def _raise_if_all_malformed(result: FeedLoadResult, total: int) -> None:
    if total > 0 and len(result.malformed) == total:
        raise MalformedRecord(
            f"all {total} records malformed; first: {result.malformed[0]}"
        )


# --- vocabulary -------------------------------------------------------------


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-ranked word list with dense ids; id 0 is reserved for OOV."""

    words: tuple[str, ...]
    index_of: dict[str, int]
    coverage: float

    oov_id = 0

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index_of

    def id_for(self, word: str) -> int:
        return self.index_of.get(word, self.oov_id)


def vocabulary_from_sentences(
    sentences: list[list[str]], max_size: int
) -> Vocabulary:
    """Top ``max_size`` words by frequency (ties broken lexicographically),
    with OOV at id 0 and corpus coverage.  A literal OOV pseudo-word in the
    text is not ranked: it already has id 0, and counts as uncovered."""
    counts: Counter[str] = Counter()
    for sentence in sentences:
        counts.update(sentence)
    if not counts:
        raise EmptyCorpus("no tokens in corpus")
    ranked = sorted(
        ((w, c) for w, c in counts.items() if w != OOV_WORD), key=lambda kv: (-kv[1], kv[0])
    )
    kept = ranked[:max_size]
    total = sum(counts.values())
    covered = sum(c for _, c in kept)
    words = (OOV_WORD,) + tuple(w for w, _ in kept)
    index_of = {w: i for i, w in enumerate(words)}
    return Vocabulary(words=words, index_of=index_of, coverage=covered / total)


def word_frequency_report(corpus: list[RawVulnerability], top_k: int) -> list[tuple[str, int]]:
    """Most frequent non-stopwords, descending (ties broken lexicographically)."""
    if not corpus:
        raise EmptyCorpus("empty corpus")
    counts: Counter[str] = Counter()
    for rec in corpus:
        for tok in tokenize(rec.description):
            if tok.norm in STOPWORDS:
                continue
            counts[tok.norm] += 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top_k]


# --- labeled data -----------------------------------------------------------


def load_labeled_dataset(path: str | Path) -> list[LabeledSentence]:
    """Load the CoNLL-like ``token<TAB>TAG`` file; blank lines separate
    sentences; unknown tag strings are rejected."""
    from .tagger import ALL_TAGS  # deferred: tagger depends on corpus types

    text = read_text(path)
    sentences: list[LabeledSentence] = []
    surfaces: list[str] = []
    tags: list[str] = []

    def flush() -> None:
        if not surfaces:
            return
        tokens = tuple(Token(surface, normalize(surface)) for surface in surfaces)
        sentences.append(LabeledSentence(tokens, tuple(tags)))
        surfaces.clear()
        tags.clear()

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            flush()
            continue
        token, sep, tag = line.rstrip("\n").partition("\t")
        if not sep or not token or not tag:
            raise MalformedLine("expected 'token<TAB>TAG'", lineno)
        tag = tag.strip()
        if tag not in ALL_TAGS:
            raise UnknownTag(tag, lineno)
        surfaces.append(token)
        tags.append(tag)
    flush()
    return sentences
