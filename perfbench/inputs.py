"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its seed and sizes.  The program under
test only ever sees what these functions return: descriptions, gold entity
sets, labeled sentences and rule corpora.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vuln2rule import demo
from vuln2rule.corpus import LabeledSentence, RawVulnerability, tokenize
from vuln2rule.rules.datalog import InteractionRule, Predicate, Term
from vuln2rule.tagger import ENTITY_TAGS, EntitySet

#: core entities the completion stage can fill in
CORE_TAGS = ("VECTOR", "IMPACT", "MEANS")


@dataclass
class ServeInputs:
    """What one inference workload feeds the program, plus the gold data the
    benchmark keeps to itself for scoring."""

    records: list[RawVulnerability]
    gold_entities: dict[str, EntitySet] | None
    #: labeled sentences of the records that have gold tags (for NER F1)
    labeled: list[LabeledSentence]
    #: records whose gold set had a core entity masked (gold workloads)
    masked: int
    #: records built to end in a generation failure
    built_to_fail: int


# --- demo shape -----------------------------------------------------------------


def _unspecified_description(record: demo.DemoRecord) -> str:
    # NVD's wording for records that name neither the flaw nor its effect
    platform = record.entities.values_for("PLATFORM")[0]
    version = record.entities.values_for("VERSION")[0]
    return (
        f"Unspecified vulnerability in {platform} {version} has unknown "
        "impact and attack vectors."
    )


def demo_tagged_inputs(seed: int, n: int, failure_share: float) -> ServeInputs:
    """Demo descriptions at ``seed``; ``failure_share`` of them are replaced
    by "Unspecified vulnerability ..." records that carry no attack entities."""
    records = demo.generate_demo_records(n, seed)
    rng = np.random.default_rng([seed, 1])
    failing = set(rng.choice(n, size=round(failure_share * n), replace=False).tolist())
    out: list[RawVulnerability] = []
    labeled: list[LabeledSentence] = []
    for i, record in enumerate(records):
        if i in failing:
            out.append(RawVulnerability(record.vulnerability.id, _unspecified_description(record)))
        else:
            out.append(record.vulnerability)
            labeled.append(record.sentence)
    return ServeInputs(out, None, labeled, masked=0, built_to_fail=len(failing))


def demo_gold_inputs(
    seed: int, n: int, mask_share: float, failure_share: float
) -> ServeInputs:
    """Gold entity sets of the demo records at ``seed``.  ``mask_share`` of
    them lose one core entity, so completion runs; ``failure_share`` get the
    MEANS value "unspecified vulnerability"."""
    records = demo.generate_demo_records(n, seed)
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(n)
    n_fail = round(failure_share * n)
    failing = set(order[:n_fail].tolist())
    masking = set(order[n_fail : n_fail + round(mask_share * n)].tolist())
    gold: dict[str, EntitySet] = {}
    masked = 0
    for i, record in enumerate(records):
        entities = EntitySet(
            cve_id=record.entities.cve_id,
            entities={k: list(v) for k, v in record.entities.entities.items()},
        )
        if i in failing:
            entities.entities["MEANS"] = ["unspecified vulnerability"]
        elif i in masking:
            present = [t for t in CORE_TAGS if entities.present(t)]
            entities.entities[present[int(rng.integers(len(present)))]] = []
            masked += 1
        gold[record.vulnerability.id] = entities
    return ServeInputs(
        [r.vulnerability for r in records],
        gold,
        [r.sentence for r in records],
        masked=masked,
        built_to_fail=len(failing),
    )


# --- paper shape ------------------------------------------------------------------

_ONSETS = "b c d f g h j k l m n p r s t v w z".split()
_VOWELS = "a e i o u".split()
_SYLLABLES = [o + v for o in _ONSETS for v in _VOWELS]  # 90 syllables


def paper_words(n: int) -> list[str]:
    """``n`` distinct lowercase pseudo-words, rank order fixed (word 0 is the
    most frequent under the Zipf draw)."""
    words = []
    base = len(_SYLLABLES)
    for i in range(n):
        # two syllables for the first base**2 ranks, then three
        if i < base * base:
            digits = [i // base, i % base]
        else:
            j = i - base * base
            digits = [j // (base * base), (j // base) % base, j % base]
        words.append("".join(_SYLLABLES[d] for d in digits) + ("x" if i >= base * base else ""))
    return words


@dataclass(frozen=True)
class PaperVocabulary:
    words: list[str]
    filler: list[str]
    filler_p: np.ndarray
    #: per entity class, the words its spans are drawn from
    pools: dict[str, list[str]]


def paper_vocabulary(n_words: int, pool_size: int) -> PaperVocabulary:
    """Filler words follow Zipf(1.1) by rank; each entity class owns a pool
    of ``pool_size`` mid-frequency words that never appear as filler."""
    words = paper_words(n_words)
    start = n_words // 10
    pools = {
        tag: words[start + k * pool_size : start + (k + 1) * pool_size]
        for k, tag in enumerate(ENTITY_TAGS)
    }
    pooled = set(w for pool in pools.values() for w in pool)
    filler = [w for w in words if w not in pooled]
    p = 1.0 / np.arange(1, len(filler) + 1) ** 1.1
    return PaperVocabulary(words, filler, p / p.sum(), pools)


def _normal_ppf(q: np.ndarray) -> np.ndarray:
    # imported here: scipy.stats costs about 20 MB of resident memory, which
    # the demo workloads, whose peak_rss_mb is a metric, never need
    from scipy.stats import norm

    return norm.ppf(q)


@dataclass(frozen=True)
class PaperRecord:
    vulnerability: RawVulnerability
    sentence: LabeledSentence
    entities: EntitySet


def paper_records(
    vocab: PaperVocabulary,
    n: int,
    seed: int,
    long_share: float,
    max_len: int,
    median_len: int = 40,
    id_base: int = 50000,
) -> list[PaperRecord]:
    """NVD-like descriptions: Zipf filler with entity spans of 1-3 pool words.

    Lengths follow a log-normal around ``median_len`` tokens, except that
    ``long_share`` of the records run from ``max_len`` to twice that, so the
    tagger chunks them.  The lengths are evenly spaced quantiles, shuffled by
    the seed: every seed gets the same length mix and different text.
    """
    rng = np.random.default_rng([seed, 3])
    n_long = round(long_share * n)
    quantiles = (np.arange(n - n_long) + 0.5) / (n - n_long)
    short = np.clip(np.round(median_len * np.exp(0.35 * _normal_ppf(quantiles))), 8, max_len)
    long = max_len + 1 + np.round(np.arange(n_long) * max_len / max(n_long, 1))
    lengths = rng.permutation(np.concatenate([short, long]).astype(int))
    out: list[PaperRecord] = []
    for i in range(n):
        length = int(lengths[i])
        spans: list[tuple[str, list[str]]] = []
        for tag in ENTITY_TAGS:
            wanted = 0.85 if tag in CORE_TAGS else 0.4
            if rng.random() < wanted:
                pool = vocab.pools[tag]
                size = int(rng.integers(1, 4))
                spans.append((tag, [pool[int(j)] for j in rng.integers(len(pool), size=size)]))
        order = rng.permutation(len(spans))
        spans = [spans[j] for j in order]
        n_filler = max(length - sum(len(w) for _, w in spans), len(spans) + 1)
        # filler runs between and around the spans, each at least one word
        cuts = np.sort(rng.choice(np.arange(1, n_filler), size=len(spans), replace=False))
        runs = np.diff(np.concatenate([[0], cuts, [n_filler]]))
        filler = rng.choice(len(vocab.filler), size=n_filler, p=vocab.filler_p)
        words: list[str] = []
        tags: list[str] = []
        pos = 0
        for k, run in enumerate(runs):
            words += [vocab.filler[int(j)] for j in filler[pos : pos + run]]
            tags += ["O"] * int(run)
            pos += int(run)
            if k < len(spans):
                tag, span_words = spans[k]
                words += span_words
                tags += [tag] * len(span_words)
        cve_id = f"CVE-2021-{id_base + i:05d}"
        text = " ".join(words) + "."
        tokens = tokenize(text)
        entities = EntitySet(cve_id=cve_id)
        for tag, span_words in spans:
            entities.entities[tag].append(" ".join(span_words))
        out.append(
            PaperRecord(
                RawVulnerability(cve_id, text),
                LabeledSentence(tuple(tokens), tuple(tags)),
                entities,
            )
        )
    return out


def paper_inputs(records: list[PaperRecord]) -> ServeInputs:
    return ServeInputs(
        [r.vulnerability for r in records],
        None,
        [r.sentence for r in records],
        masked=0,
        built_to_fail=0,
    )


def synthetic_rules(n_rules: int, n_predicates: int, seed: int) -> list[InteractionRule]:
    """Rules over ``n_predicates`` synthetic predicates of arity 2-4, grouped
    into families.  A rule draws its head and body from one family and, with
    some probability, one atom from the next family, so most slot pairs never
    co-occur and the wiring matrix is mostly Unknown, as in a real corpus."""
    rng = np.random.default_rng([seed, 4])
    arities = [2 + (k % 3) for k in range(n_predicates)]
    families = [list(range(f, n_predicates, 12)) for f in range(12)]
    rules = []
    for r in range(n_rules):
        family = families[r % len(families)]
        picks = [int(p) for p in rng.choice(family, size=min(len(family), int(rng.integers(2, 5))), replace=False)]
        if rng.random() < 0.3:
            neighbour = families[(r + 1) % len(families)]
            picks.append(int(neighbour[int(rng.integers(len(neighbour)))]))
        shared = [Term.variable(v) for v in ("A", "B", "C", "D")]

        def atom(p: int) -> Predicate:
            args = []
            for pos in range(arities[p]):
                # the first two positions follow the family's wiring; the
                # rest are fresh or, now and then, shared by chance
                if pos < 2 or rng.random() < 0.25:
                    args.append(shared[(pos + p) % len(shared)])
                else:
                    args.append(Term.variable(f"F{p}x{pos}"))
            return Predicate(f"syn{p}", tuple(args))

        head, *body = [atom(p) for p in picks]
        head_vars = {t.text for t in head.args}
        body_vars = {t.text for b in body for t in b.args}
        # keep the rule range-restricted: bind every head variable in the body
        extra = tuple(Term.variable(v) for v in sorted(head_vars - body_vars))
        if extra:
            body.append(Predicate(f"bind{len(extra)}", extra))
        rules.append(InteractionRule(head=head, body=tuple(body), description=f"synthetic {r}"))
    return rules
