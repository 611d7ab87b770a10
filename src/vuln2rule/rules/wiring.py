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
from typing import NamedTuple

import numpy as np

from .._textio import read_text, write_text
from ..errors import ConfigError, EmptyMatrix, MalformedRecord
from .datalog import InteractionRule, variable_groups


class Slot(NamedTuple):
    """One argument position of a predicate; slots hash and sort as their
    ``(name, arity, pos)`` tuples."""

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
        value = self.probs.item(ia, ib)
        # v != v is the NaN test, on a Python float
        return None if value != value else value

    @property
    def fully_known(self) -> bool:
        off_diag = ~np.eye(len(self.slots), dtype=bool)
        return not np.isnan(self.probs[off_diag]).any()


def estimate_wiring_matrix(rules: list[InteractionRule]) -> WiringMatrix:
    """Exact co-wiring ratios over the corpus.

    Two slots count as wired in a rule when any occurrence of one holds the
    same variable as any occurrence of the other; the diagonal stays Unknown.
    Both counts are integers: co-occurrence is a rules x slots presence
    product, and each rule adds 1 to every slot pair that one of its
    variables links, so every ratio is one exact division.
    """
    # slots as (name, arity, pos) tuples, which sort as Slot does
    per_rule = [[(p.name, p.arity) for p in rule.predicates()] for rule in rules]
    keys = sorted({(*atom, pos) for atoms in per_rule for atom in atoms for pos in range(atom[1])})
    index = {key: i for i, key in enumerate(keys)}
    n = len(keys)
    presence = np.zeros((len(rules), n))
    pair_codes: list[int] = []
    for r, (rule, atoms) in enumerate(zip(rules, per_rule)):
        # per atom, the column of each position
        cols = [[index[name, arity, pos] for pos in range(arity)] for name, arity in atoms]
        presence[r, [c for atom_cols in cols for c in atom_cols]] = 1.0
        # the slots holding each variable
        held = [{cols[ai][pos] for ai, pos in group} for group in variable_groups(rule)]
        # a set: a pair linked by two variables still counts once per rule
        pair_codes += {a * n + b for group in held for a in group for b in group if a != b}
    wired = np.bincount(np.array(pair_codes, dtype=np.int64), minlength=n * n).reshape(n, n)
    # float products of 0/1 entries are exact integers far below 2**53
    cooccur = (presence.T @ presence).astype(np.int64)
    np.fill_diagonal(cooccur, 0)
    probs = np.full((n, n), np.nan)
    known = cooccur > 0
    probs[known] = wired[known] / cooccur[known]
    slots = tuple(Slot(*key) for key in keys)
    return WiringMatrix(slots=slots, probs=probs, wired_counts=wired, cooccur_counts=cooccur)


#: row pairs per block of the distance pass; bounds its temporaries to a few MB
_PAIR_BLOCK = 4096


def _row_distances(probs: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Masked Euclidean distance between every two rows, inf without overlap.

    Pairs are grouped by their mutual-known count ``m`` so that each pair's
    squared differences form one contiguous length-``m`` row: ``sum(axis=1)``
    then adds exactly the terms, in exactly the order, that a per-pair
    ``sum`` does, and the distances are bit-identical to the pairwise loop.
    """
    n = len(probs)
    mutual_counts = (known.astype(float) @ known.T.astype(float)).astype(np.int64)
    first, second = np.triu_indices(n, 1)
    counts = mutual_counts[first, second]
    distances = np.full((n, n), np.inf)
    for m in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == m)
        for block in range(0, len(group), _PAIR_BLOCK):
            pairs = group[block : block + _PAIR_BLOCK]
            a, b = first[pairs], second[pairs]
            diff = (probs[a] - probs[b])[known[a] & known[b]].reshape(len(a), m)
            d = np.sqrt(n / m * (diff**2).sum(axis=1))
            distances[a, b] = distances[b, a] = d
    return distances


def impute_matrix(matrix: WiringMatrix, k_neighbors: int) -> WiringMatrix:
    """Fill every Unknown entry from the k nearest rows (KNNimpute).

    Row distance is masked Euclidean over mutually known coordinates,
    scaled up by the fraction of usable coordinates:
    ``sqrt(n_cols / m * sum(diff^2))`` with ``m`` mutual coordinates; rows
    with no mutual coordinate are never neighbours.  Unknown (i, j) becomes
    the mean of column j over the first ``k_neighbors`` rows that know j,
    in (distance, row index) order; with no such row it gets the global
    mean of all known entries.  The result is symmetrized by averaging and
    its diagonal is set to 1.  ``k_neighbors < 1`` raises ConfigError.

    The array code here matches the definition as a pair of plain loops
    (kept in the tests as the reference) bit for bit: every distance and
    every mean adds the same terms in the same order.
    """
    if k_neighbors < 1:
        raise ConfigError(f"k_neighbors must be at least 1, got {k_neighbors}")
    n = len(matrix.slots)
    if n == 0:
        raise EmptyMatrix("no slots")
    probs = matrix.probs
    known = ~np.isnan(probs)
    np.fill_diagonal(known, False)
    if matrix.fully_known:
        return matrix
    if not known.any():
        raise EmptyMatrix("no known entries to impute from")
    global_mean = float(probs[known].mean())
    distances = _row_distances(probs, known)

    # the Unknown entries in row-major order, so row i's are one slice
    rows, cols = np.nonzero(~known & ~np.eye(n, dtype=bool))
    bounds = np.searchsorted(rows, np.arange(n + 1))
    # row i's candidates: every row at finite distance, nearest first; the
    # stable sort breaks distance ties toward the lower row index
    order = np.argsort(distances, axis=1, kind="stable")
    n_candidates = np.isfinite(distances).sum(axis=1)
    known_t, probs_t = known.T.copy(), probs.T.copy()
    values, sizes = [], []
    for i in range(n):
        missing, candidates = cols[bounds[i] : bounds[i + 1]], order[i, : n_candidates[i]]
        knows = known_t[missing][:, candidates]
        chosen = knows & (np.cumsum(knows, axis=1) <= k_neighbors)
        values.append(probs_t[missing][:, candidates][chosen])
        sizes.append(chosen.sum(axis=1))
    # each entry's chosen values, contiguous and nearest first
    values, size = np.concatenate(values), np.concatenate(sizes)
    starts = np.cumsum(size) - size

    filled = probs.copy()
    filled[rows, cols] = global_mean
    for c in np.unique(size[size > 0]):
        # one length-c row per entry, so the sum adds what np.mean would
        group = np.flatnonzero(size == c)
        chosen_values = values[starts[group, None] + np.arange(c)]
        filled[rows[group], cols[group]] = chosen_values.sum(axis=1) / c
    filled = (filled + filled.T) / 2.0
    np.fill_diagonal(filled, 1.0)
    return replace(matrix, probs=filled)


# --- CSV interchange ----------------------------------------------------------


def wiring_to_csv(matrix: WiringMatrix) -> str:
    labels = [s.label for s in matrix.slots]
    lines = ["slot," + ",".join(labels)]
    for label, row in zip(labels, matrix.probs.tolist()):
        # v != v is the NaN test; repr of a Python float is the CSV spelling
        cells = ["?" if v != v else repr(v) for v in row]
        lines.append(label + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def wiring_from_csv(text: str) -> WiringMatrix:
    """Inverse of ``wiring_to_csv``; a bad slot label (one whose position is
    outside [0, arity) too), a header that repeats a slot, a cell that is not a
    float or ``?``, anything but one row of one cell per slot for each
    header slot, in header order, a known cell outside [0, 1], or an (i, j)
    cell whose value or whose Unknown differs from (j, i), raises
    MalformedRecord."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise EmptyMatrix("empty CSV")
    try:
        labels = lines[0].split(",")[1:]
        slots = tuple(Slot.from_label(label) for label in labels)
        for slot in slots:
            if not 0 <= slot.pos < slot.arity:
                raise ValueError(f"slot {slot.label!r} has no position {slot.pos}")
        if len(set(slots)) < len(slots):
            repeated = next(s for i, s in enumerate(slots) if s in slots[:i])
            raise ValueError(f"header repeats slot {repeated.label!r}")
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
        outside = np.argwhere((probs < 0.0) | (probs > 1.0))
        if len(outside):
            i, j = outside[0]
            raise ValueError(f"cell ({labels[i]}, {labels[j]}) = {probs[i, j]} is outside [0, 1]")
        known = ~np.isnan(probs)
        asymmetric = np.argwhere((probs != probs.T) & (known | known.T))
        if len(asymmetric):
            i, j = asymmetric[0]
            raise ValueError(f"cells ({labels[i]}, {labels[j]}) and ({labels[j]}, {labels[i]}) differ")
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
