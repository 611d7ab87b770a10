"""Wiring-matrix estimation (exact rationals), kNN imputation and the
union-find substrate."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceSlot, reference_prob
from vuln2rule.errors import ConfigError, EmptyMatrix, MalformedRecord
from vuln2rule.rules.datalog import parse_rule_file
from vuln2rule.rules.schema import load_default_rule_corpus
from vuln2rule.rules.wiring import (
    Slot,
    UnionFind,
    WiringMatrix,
    estimate_wiring_matrix,
    impute_matrix,
    save_wiring,
    load_wiring,
    wiring_from_csv,
    wiring_to_csv,
)

SINGLE_RULE = "execCode(H, P) :- attackerLocated(A), netAccess(A, H, Pr, Po).\n"

# 5 hand-written rules; the expected ratios below are hand-counted
FIVE_RULES = """
a(X, Y) :- b(X, Z), c(Z, Y).
a(X, Y) :- b(X, Z), c(W, Y).
a(X, X) :- b(X, Z).
d(U) :- b(U, V).
a(X, Y) :- c(X, Y).
"""


def slot(name, arity, pos):
    return Slot(name, arity, pos)


def _impute_reference(matrix: WiringMatrix, k_neighbors: int) -> WiringMatrix:
    """KNN imputation as plain loops over row pairs and Unknown entries:
    the definition ``impute_matrix`` must match bit for bit."""
    n = len(matrix.slots)
    if n == 0:
        raise EmptyMatrix("no slots")
    probs = matrix.probs
    off_diag = ~np.eye(n, dtype=bool)
    known_mask = ~np.isnan(probs) & off_diag
    if matrix.fully_known:
        return matrix
    if not known_mask.any():
        raise EmptyMatrix("no known entries to impute from")
    global_mean = float(probs[known_mask].mean())

    distances = np.full((n, n), np.inf)
    for i in range(n):
        for j in range(i + 1, n):
            mutual = known_mask[i] & known_mask[j]
            m = int(mutual.sum())
            if m == 0:
                continue
            diff = probs[i, mutual] - probs[j, mutual]
            d = float(np.sqrt(n / m * (diff**2).sum()))
            distances[i, j] = distances[j, i] = d

    filled = probs.copy()
    for i in range(n):
        for j in range(n):
            if i == j or known_mask[i, j]:
                continue
            candidates = [
                r
                for r in range(n)
                if r != i and known_mask[r, j] and np.isfinite(distances[i, r])
            ]
            candidates.sort(key=lambda r: (distances[i, r], r))
            chosen = candidates[:k_neighbors]
            if chosen:
                filled[i, j] = float(np.mean([probs[r, j] for r in chosen]))
            else:
                filled[i, j] = global_mean
    filled = (filled + filled.T) / 2.0
    np.fill_diagonal(filled, 1.0)
    return replace(matrix, probs=filled)


class TestEstimate:
    def test_single_rule_hand_counts(self):
        matrix = estimate_wiring_matrix(parse_rule_file(SINGLE_RULE))
        assert matrix.prob(slot("attackerLocated", 1, 0), slot("netAccess", 4, 0)) == 1.0
        assert matrix.prob(slot("execCode", 2, 0), slot("netAccess", 4, 1)) == 1.0
        assert matrix.prob(slot("execCode", 2, 0), slot("netAccess", 4, 0)) == 0.0

    def test_five_rule_hand_counts(self):
        matrix = estimate_wiring_matrix(parse_rule_file(FIVE_RULES))
        # a/2#0 with b/2#0: present together in rules 1,2,3 -> wired 3/3
        assert matrix.prob(slot("a", 2, 0), slot("b", 2, 0)) == pytest.approx(3 / 3)
        # b/2#1 with c/2#0: rules 1,2 -> wired only in rule 1 -> 1/2
        assert matrix.prob(slot("b", 2, 1), slot("c", 2, 0)) == pytest.approx(1 / 2)
        # a/2#1 with c/2#1: rules 1,2,5 -> wired in all -> 3/3
        assert matrix.prob(slot("a", 2, 1), slot("c", 2, 1)) == pytest.approx(3 / 3)
        # a/2#0 with c/2#0: rules 1,2,5 -> wired only in rule 5 -> 1/3
        assert matrix.prob(slot("a", 2, 0), slot("c", 2, 0)) == pytest.approx(1 / 3)
        # a/2#0 with a/2#1: rules 1,2,3,5 -> wired only in rule 3 -> 1/4
        assert matrix.prob(slot("a", 2, 0), slot("a", 2, 1)) == pytest.approx(1 / 4)
        # d/1#0 with c slots: never co-occur -> Unknown
        assert matrix.prob(slot("d", 1, 0), slot("c", 2, 0)) is None
        # d/1#0 with b/2#0: rule 4 only -> 1/1
        assert matrix.prob(slot("d", 1, 0), slot("b", 2, 0)) == 1.0

    def test_entries_are_exact_count_ratios(self):
        rules = parse_rule_file(FIVE_RULES)
        matrix = estimate_wiring_matrix(rules)
        known = ~np.isnan(matrix.probs)
        ratio = np.zeros_like(matrix.probs)
        mask = matrix.cooccur_counts > 0
        ratio[mask] = matrix.wired_counts[mask] / matrix.cooccur_counts[mask]
        assert np.array_equal(known, mask)
        assert np.array_equal(matrix.probs[known], ratio[known])

    def test_symmetry(self):
        matrix = estimate_wiring_matrix(parse_rule_file(FIVE_RULES))
        known = ~np.isnan(matrix.probs)
        assert np.array_equal(known, known.T)
        assert np.array_equal(matrix.probs[known], matrix.probs.T[known])

    def test_recount_oracle(self):
        from test_rules_datalog import random_rule

        rng = np.random.default_rng(63)
        # a pair linked by two variables in one rule still counts once there
        corpora = [parse_rule_file(FIVE_RULES), parse_rule_file("a(X) :- b(X, Y), b(Y, X).\n")]
        corpora += [[random_rule(rng) for _ in range(int(rng.integers(2, 12)))] for _ in range(20)]
        for rules in corpora:
            self._check_recount(rules)

    @staticmethod
    def _check_recount(rules):
        matrix = estimate_wiring_matrix(rules)
        for i, si in enumerate(matrix.slots):
            for j, sj in enumerate(matrix.slots):
                if i >= j:
                    continue
                cooccur = wired = 0
                for rule in rules:
                    terms_i = [
                        p.args[si.pos]
                        for p in rule.predicates()
                        if p.name == si.name and p.arity == si.arity
                    ]
                    terms_j = [
                        p.args[sj.pos]
                        for p in rule.predicates()
                        if p.name == sj.name and p.arity == sj.arity
                    ]
                    if terms_i and terms_j:
                        cooccur += 1
                        vars_i = {t.text for t in terms_i if t.kind == "Variable"}
                        vars_j = {t.text for t in terms_j if t.kind == "Variable"}
                        if vars_i & vars_j:
                            wired += 1
                expected = wired / cooccur if cooccur else None
                assert matrix.prob(si, sj) == expected

    def test_wildcards_never_wire(self):
        matrix = estimate_wiring_matrix(parse_rule_file("a(_) :- b(_).\n"))
        assert matrix.prob(slot("a", 1, 0), slot("b", 1, 0)) == 0.0


class TestImpute:
    def toy_matrix(self, probs):
        n = len(probs)
        slots = tuple(Slot(f"s{i}", 1, 0) for i in range(n))
        return WiringMatrix(slots=slots, probs=np.asarray(probs, dtype=float))

    def test_fully_known_returned_unchanged(self):
        probs = np.array([
            [np.nan, 0.2, 0.4],
            [0.2, np.nan, 0.6],
            [0.4, 0.6, np.nan],
        ])
        # diagonal NaN is fine -- only off-diagonal entries count as Unknown
        matrix = self.toy_matrix(probs)
        filled = impute_matrix(matrix, 1)
        assert filled is matrix

    def test_single_unknown_k1_copies_nearest_row(self):
        nan = np.nan
        # row distances over mutual coords: rows 0 and 1 share column 2
        # (|0.9-0.8|), rows 0 and 2 share column 1 (|0.4-0.3|); with the
        # n/m scaling both use m=1, so row 2 is nearer to row 0 than row 1.
        probs = np.array([
            [nan, 0.4, 0.9, nan],
            [0.3, nan, 0.8, 0.6],
            [0.3, 0.3, nan, 0.2],
            [nan, 0.6, 0.2, nan],
        ])
        # target: (0, 3).  candidate rows with known column 3: rows 1 and 2.
        # d(0,1): mutual col 2 -> sqrt(4/1*(0.9-0.8)^2)=0.2
        # d(0,2): mutual col 1 -> sqrt(4/1*(0.4-0.3)^2)=0.2 -> tie, lower row wins
        matrix = self.toy_matrix(probs)
        filled = impute_matrix(matrix, 1)
        # value copied from row 1, column 3 = 0.6; symmetrization averages
        # with the transposed imputation of (3, 0)
        # (3,0): candidates rows 1 (P[1,0]=0.3, d(3,1): mutual cols {1:|0.6-nan|? no}
        #   row 3 known: cols 1,2; row 1 known: cols 0,2,3 -> mutual {2}: |0.2-0.8|=0.6
        #   -> d=sqrt(4)*0.6=1.2; row 2 known cols 0,1,3; mutual {1}: |0.6-0.3|=0.3 -> 0.6
        #   nearest is row 2 -> P[2,0]=0.3
        # final P[0,3] = (0.6+0.3)/2 = 0.45
        assert filled.probs[0, 3] == pytest.approx(0.45, abs=1e-12)
        assert filled.probs[3, 0] == pytest.approx(0.45, abs=1e-12)

    def test_known_entries_preserved(self):
        nan = np.nan
        probs = np.array([
            [nan, 0.4, nan],
            [0.4, nan, 0.7],
            [nan, 0.7, nan],
        ])
        filled = impute_matrix(self.toy_matrix(probs), 2)
        assert filled.probs[0, 1] == 0.4
        assert filled.probs[1, 2] == 0.7
        assert filled.fully_known

    def test_all_unknown_row_falls_back_to_global_mean(self):
        nan = np.nan
        probs = np.array([
            [nan, 0.2, 0.4, nan],
            [0.2, nan, 0.6, nan],
            [0.4, 0.6, nan, nan],
            [nan, nan, nan, nan],
        ])
        filled = impute_matrix(self.toy_matrix(probs), 2)
        global_mean = np.mean([0.2, 0.4, 0.2, 0.6, 0.4, 0.6])
        for j in range(3):
            assert filled.probs[3, j] == pytest.approx(global_mean, abs=1e-12)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            impute_matrix(WiringMatrix(slots=(), probs=np.empty((0, 0))), 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        probs = np.array([[np.nan, 0.5, np.nan], [0.5, np.nan, 0.25], [np.nan, 0.25, np.nan]])
        with pytest.raises(ConfigError, match="k_neighbors"):
            impute_matrix(self.toy_matrix(probs), k)

    def test_diagonal_set_to_one(self):
        nan = np.nan
        probs = np.array([[nan, 0.5, nan], [0.5, nan, 0.25], [nan, 0.25, nan]])
        filled = impute_matrix(self.toy_matrix(probs), 1)
        assert np.array_equal(np.diag(filled.probs), np.ones(3))


#: exact fractions a small corpus produces, so that distances tie often
_TIED_VALUES = np.array([0.0, 1 / 3, 1 / 2, 2 / 3, 1.0])


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    k=st.integers(1, 13),
    unknown_share=st.floats(0.0, 0.95),
    random_share=st.sampled_from([0.0, 0.2, 1.0]),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_impute_matches_loop_reference_bit_for_bit(n, k, unknown_share, random_share, symmetric, seed):
    rng = np.random.default_rng(seed)
    probs = np.where(
        rng.random((n, n)) < random_share, rng.random((n, n)), rng.choice(_TIED_VALUES, (n, n))
    )
    probs[rng.random((n, n)) < unknown_share] = np.nan
    if symmetric:
        probs = np.triu(probs, 1) + np.triu(probs, 1).T
    np.fill_diagonal(probs, np.nan)
    matrix = WiringMatrix(slots=tuple(Slot(f"s{i}", 1, 0) for i in range(n)), probs=probs)
    try:
        expected = _impute_reference(matrix, k)
    except EmptyMatrix:
        with pytest.raises(EmptyMatrix):
            impute_matrix(matrix, k)
        return
    got = impute_matrix(matrix, k)
    assert np.array_equal(got.probs.view("<u8"), expected.probs.view("<u8"))


_SLOT = st.builds(
    Slot,
    st.text(alphabet="abcxyzAB_/#", min_size=1, max_size=4),
    st.integers(0, 12),
    st.integers(0, 12),
)


@settings(max_examples=200, deadline=None)
@given(
    slots=st.lists(_SLOT, min_size=1, max_size=8, unique=True),
    seed=st.integers(0, 2**32 - 1),
    unknown_share=st.sampled_from([0.0, 0.3, 1.0]),
    queries=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=20),
    stranger=_SLOT,
)
def test_prob_matches_the_numpy_scalar_reference(slots, seed, unknown_share, queries, stranger):
    """``prob`` gives the reference's value (a float of the same bits) or
    None on known, Unknown and missing slots."""
    rng = np.random.default_rng(seed)
    probs = rng.choice(_TIED_VALUES, (len(slots), len(slots)))
    probs[rng.random(probs.shape) < unknown_share] = np.nan
    matrix = WiringMatrix(slots=tuple(slots), probs=probs)
    # an index past the slots stands for a slot the matrix does not hold
    pool = [*slots, stranger]
    for i, j in queries:
        a, b = pool[min(i, len(pool) - 1)], pool[min(j, len(pool) - 1)]
        got, want = matrix.prob(a, b), reference_prob(matrix, a, b)
        assert type(got) is type(want)
        assert got is None or np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(_SLOT, max_size=10))
def test_slot_keeps_the_dataclass_hash_order_and_label(slots):
    references = [ReferenceSlot(*s) for s in slots]
    assert [hash(s) for s in slots] == [hash(r) for r in references]
    by_slot = sorted(range(len(slots)), key=lambda i: slots[i])
    assert by_slot == sorted(range(len(slots)), key=lambda i: references[i])
    for s in slots:
        if "/" not in s.name:
            assert Slot.from_label(s.label) == s
            assert s.label == f"{s.name}/{s.arity}#{s.pos}"


class TestUnionFind:
    def test_merge_relation_is_equivalence(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            uf = UnionFind(n)
            for _ in range(int(rng.integers(0, 40))):
                uf.union(int(rng.integers(n)), int(rng.integers(n)))
            # reflexive, symmetric, transitive by explicit check
            for x in range(n):
                assert uf.same(x, x)
            pairs = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(50)]
            for a, b in pairs:
                assert uf.same(a, b) == uf.same(b, a)
            for a, b in pairs:
                for c in range(0, n, max(1, n // 5)):
                    if uf.same(a, b) and uf.same(b, c):
                        assert uf.same(a, c)

    def test_groups_partition(self):
        uf = UnionFind(6)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(4, 5)
        groups = sorted(sorted(g) for g in uf.groups().values())
        assert groups == [[0, 1, 2], [3], [4, 5]]


class TestRandomCorpusProperties:
    def test_symmetry_and_ratio_on_random_corpora(self):
        from test_rules_datalog import random_rule

        rng = np.random.default_rng(62)
        for _ in range(20):
            rules = [random_rule(rng) for _ in range(int(rng.integers(2, 12)))]
            matrix = estimate_wiring_matrix(rules)
            known = ~np.isnan(matrix.probs)
            assert np.array_equal(known, known.T)
            assert np.array_equal(matrix.probs[known], matrix.probs.T[known])
            assert ((matrix.probs[known] >= 0) & (matrix.probs[known] <= 1)).all()
            assert np.isnan(np.diag(matrix.probs)).all()
            # imputation fills everything and preserves known entries
            if known.any():
                filled = impute_matrix(matrix, 3)
                assert filled.fully_known
                assert np.array_equal(filled.probs[known], matrix.probs[known])

    def test_no_mutual_coordinates_means_no_candidate(self):
        nan = np.nan
        # rows 0/2 know only column 1 and row 1 knows only columns 0/2, so
        # every row pair lacks mutual coordinates: both unknowns fall back
        # to the global mean of the known entries
        probs = np.array([
            [nan, 0.8, nan],
            [0.8, nan, 0.4],
            [nan, 0.4, nan],
        ])
        matrix = WiringMatrix(
            slots=tuple(Slot(f"u{i}", 1, 0) for i in range(3)), probs=probs
        )
        filled = impute_matrix(matrix, 5)
        assert filled.probs[0, 2] == pytest.approx(0.6, abs=1e-12)
        assert filled.probs[2, 0] == pytest.approx(0.6, abs=1e-12)

    def test_imputation_with_fewer_candidates_than_k(self):
        nan = np.nan
        probs = np.array([
            [nan, 0.8, 0.5, nan],
            [0.8, nan, 0.5, 0.3],
            [0.5, 0.5, nan, 0.7],
            [nan, 0.3, 0.7, nan],
        ])
        matrix = WiringMatrix(
            slots=tuple(Slot(f"u{i}", 1, 0) for i in range(4)), probs=probs
        )
        # K=5 exceeds the two available candidate rows for each target:
        # (0,3) averages rows 1,2 in column 3 -> 0.5; (3,0) averages rows
        # 1,2 in column 0 -> 0.65; symmetrization -> 0.575
        filled = impute_matrix(matrix, 5)
        assert filled.probs[0, 3] == pytest.approx(0.575, abs=1e-12)
        assert filled.probs[3, 0] == pytest.approx(0.575, abs=1e-12)


class TestCsv:
    def test_round_trip_with_unknowns(self, tmp_path):
        matrix = estimate_wiring_matrix(parse_rule_file(FIVE_RULES))
        path = tmp_path / "wiring.csv"
        save_wiring(matrix, path)
        text = path.read_text("utf-8")
        assert "?" in text
        assert text.splitlines()[0].startswith("slot,")
        loaded = load_wiring(path)
        assert loaded.slots == matrix.slots
        known = ~np.isnan(matrix.probs)
        assert np.array_equal(~np.isnan(loaded.probs), known)
        assert np.array_equal(loaded.probs[known], matrix.probs[known])

    def test_slot_labels(self):
        assert slot("netAccess", 4, 2).label == "netAccess/4#2"
        assert Slot.from_label("netAccess/4#2") == slot("netAccess", 4, 2)

    def test_packaged_corpus_csv_digests(self):
        raw = estimate_wiring_matrix(parse_rule_file(load_default_rule_corpus()))
        digests = [
            hashlib.sha256(wiring_to_csv(m).encode("utf-8")).hexdigest()
            for m in (raw, impute_matrix(raw, 5))
        ]
        assert digests == [
            "40c0793925259ea7d15f438bb02447ce4329bcb3caeafb935a63995196df7138",  # wiring_raw.v1.csv
            "d5e6ec0e6302199560b0a1d55d6231da55d67e6f488c5311aeb8727d61c601a1",  # wiring.v1.csv
        ]

    def test_packaged_corpus_matrices_load(self):
        raw = estimate_wiring_matrix(parse_rule_file(load_default_rule_corpus()))
        for matrix in (raw, impute_matrix(raw, 5)):
            loaded = wiring_from_csv(wiring_to_csv(matrix))
            assert loaded.slots == matrix.slots
            assert np.array_equal(loaded.probs, matrix.probs, equal_nan=True)

    @staticmethod
    def _lines():
        return wiring_to_csv(estimate_wiring_matrix(parse_rule_file(FIVE_RULES))).splitlines()

    def test_missing_rows_rejected(self, tmp_path):
        lines = self._lines()
        path = tmp_path / "wiring.csv"
        path.write_text("\n".join(lines[:-3]) + "\n", "utf-8")
        with pytest.raises(MalformedRecord, match=f"{len(lines) - 4} rows for {len(lines) - 1} slots"):
            load_wiring(path)

    def test_short_row_rejected(self):
        lines = self._lines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        with pytest.raises(MalformedRecord, match="cells for"):
            wiring_from_csv("\n".join(lines))

    def test_mislabelled_row_rejected(self):
        lines = self._lines()
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(MalformedRecord, match="row 1 is"):
            wiring_from_csv("\n".join(lines))
