"""Slot-wiring statistics over a rule corpus.

A slot is one argument position of a predicate.  For every pair of slots
whose predicates co-occur in at least one rule, the wiring probability is
the exact ratio (#rules where the two slots hold the same variable) /
(#rules where both slots are present).  Pairs that never co-occur are
Unknown (NaN) and get filled by a k-nearest-rows imputer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .._textio import read_text, write_text
from ..errors import EmptyMatrix, MalformedRecord
from .datalog import VARIABLE, InteractionRule


@dataclass(frozen=True, order=True)
class Slot:
    name: str
    arity: int
    pos: int

    @property
    def label(self) -> str:
        return f"{self.name}/{self.arity}#{self.pos}"

    @staticmethod
    def from_label(label: str) -> Slot:
        name, _, rest = label.partition("/")
        arity, _, pos = rest.partition("#")
        return Slot(name, int(arity), int(pos))


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def groups(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return out


@dataclass
class WiringMatrix:
    """Symmetric slot-pair probabilities; NaN entries are Unknown."""

    slots: tuple[Slot, ...]
    probs: np.ndarray
    wired_counts: np.ndarray | None = None
    cooccur_counts: np.ndarray | None = None
    index: dict[Slot, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.index:
            self.index = {s: i for i, s in enumerate(self.slots)}

    def prob(self, a: Slot, b: Slot) -> float | None:
        ia, ib = self.index.get(a), self.index.get(b)
        if ia is None or ib is None:
            return None
        value = self.probs[ia, ib]
        return None if np.isnan(value) else float(value)

    @property
    def fully_known(self) -> bool:
        off_diag = ~np.eye(len(self.slots), dtype=bool)
        return not np.isnan(self.probs[off_diag]).any()


def _slot_occurrences(rule: InteractionRule) -> dict[Slot, list[str | None]]:
    """Per slot, the variable name at each occurrence (None for non-variables)."""
    occurrences: dict[Slot, list[str | None]] = {}
    for pred in rule.predicates():
        for pos, term in enumerate(pred.args):
            slot = Slot(pred.name, pred.arity, pos)
            occurrences.setdefault(slot, []).append(
                term.text if term.kind == VARIABLE else None
            )
    return occurrences


def estimate_wiring_matrix(rules: list[InteractionRule]) -> WiringMatrix:
    """Exact co-wiring ratios over the corpus.

    Two slots count as wired in a rule when any occurrence of one holds the
    same variable as any occurrence of the other; the diagonal stays Unknown.
    """
    slot_set: set[Slot] = set()
    for rule in rules:
        for pred in rule.predicates():
            for pos in range(pred.arity):
                slot_set.add(Slot(pred.name, pred.arity, pos))
    slots = tuple(sorted(slot_set))
    index = {s: i for i, s in enumerate(slots)}
    n = len(slots)
    wired = np.zeros((n, n), dtype=np.int64)
    cooccur = np.zeros((n, n), dtype=np.int64)
    for rule in rules:
        occurrences = _slot_occurrences(rule)
        present = sorted(occurrences)
        for a_idx in range(len(present)):
            for b_idx in range(a_idx + 1, len(present)):
                sa, sb = present[a_idx], present[b_idx]
                ia, ib = index[sa], index[sb]
                cooccur[ia, ib] += 1
                cooccur[ib, ia] += 1
                names_a = {v for v in occurrences[sa] if v is not None}
                names_b = {v for v in occurrences[sb] if v is not None}
                if names_a & names_b:
                    wired[ia, ib] += 1
                    wired[ib, ia] += 1
    probs = np.full((n, n), np.nan)
    known = cooccur > 0
    probs[known] = wired[known] / cooccur[known]
    return WiringMatrix(slots=slots, probs=probs, wired_counts=wired, cooccur_counts=cooccur)


def impute_matrix(matrix: WiringMatrix, k_neighbors: int = 5) -> WiringMatrix:
    """Fill every Unknown entry from the k nearest rows.

    Row distance is masked Euclidean over mutually known coordinates,
    scaled up by the fraction of usable coordinates:
    ``sqrt(n_cols / m * sum(diff^2))`` with ``m`` mutual coordinates.
    Unknown (i, j) becomes the mean of column j over the k nearest rows
    that know j; rows with no overlap fall back to the global mean of all
    known entries.  The result is symmetrized by averaging and its diagonal
    is set to 1.
    """
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


# --- CSV interchange ----------------------------------------------------------


def wiring_to_csv(matrix: WiringMatrix) -> str:
    labels = [s.label for s in matrix.slots]
    lines = ["slot," + ",".join(labels)]
    for i, label in enumerate(labels):
        cells = [
            "?" if np.isnan(v) else repr(float(v)) for v in matrix.probs[i]
        ]
        lines.append(label + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def wiring_from_csv(text: str) -> WiringMatrix:
    """Inverse of ``wiring_to_csv``; a bad slot label, a cell that is not a
    float or ``?``, or anything but one row of one cell per slot for each
    header slot, in header order, raises MalformedRecord."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise EmptyMatrix("empty CSV")
    try:
        labels = lines[0].split(",")[1:]
        slots = tuple(Slot.from_label(label) for label in labels)
        if len(lines) - 1 != len(slots):
            raise ValueError(f"{len(lines) - 1} rows for {len(slots)} slots")
        probs = np.full((len(slots), len(slots)), np.nan)
        for i, line in enumerate(lines[1:]):
            label, *cells = line.split(",")
            if label != labels[i]:
                raise ValueError(f"row {i + 1} is {label!r}, want {labels[i]!r}")
            for j, cell in enumerate(cells):
                if cell != "?":
                    probs[i, j] = float(cell)
            if len(cells) != len(slots):
                raise ValueError(f"row {label!r} has {len(cells)} cells for {len(slots)} slots")
    except (ValueError, IndexError) as exc:
        raise MalformedRecord(f"wiring CSV: {exc}") from exc
    return WiringMatrix(slots=slots, probs=probs)


def save_wiring(matrix: WiringMatrix, path: str | Path) -> None:
    write_text(path, wiring_to_csv(matrix))


def load_wiring(path: str | Path) -> WiringMatrix:
    try:
        return wiring_from_csv(read_text(path))
    except MalformedRecord as exc:
        raise MalformedRecord(f"{path}: {exc}") from exc
