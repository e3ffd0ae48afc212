"""Synthetic embedding world: seeded atom vectors, slot-rotated composition,
and an exact decoder.

Every atom gets a deterministic unit Gaussian vector keyed by (world_seed,
domain, part, subject), and each slot a rotation keyed by its index; their
generators are seeded a batch at a time. A composite target for an ordered
condition set is normalize(sum_i R_i e_i) with four fixed orthogonal slot
rotations, which makes composition order-sensitive and leaves the atoms
recoverable from the target; many targets are composed slot by slot, with a
per-set loop's bits. Recovery maximizes cosine(e, normalize(sum_i R_i e_{a_i})) over atom
tuples; independent per-slot argmax alone is not reliable at d=64 (slot
cross-talk flips roughly a third of 4-slot tuples), so decode_parts runs an
escalation ladder that ends in an exact joint search over per-slot
candidate shortlists. The ladder reproduces the composing tuple on every
corpus-scale round-trip we have measured (0 failures in 32k tuples).

The pair sweep scores only the grid rows that can hold its maximum (the
threshold algorithm; Fagin, Lotem & Naor, PODS 2001): every row is scored
at the top _PAIR_TOP columns of slot j, and bounded off them by
(c + s_i[a] + s_j^(T+1)) / sqrt(L_a), with L_a the row's squared-norm terms
at their column minima. The bound repeats the cells' float operations in
their order, so monotone rounding keeps it exact: the sweep returns the full
grid's argmax, the first index on ties. The top-column block and the kept
rows are scored by pair_cells in the compiled library (_kernels.c, shared
with the Adam update) or, without it, by numpy, with the same operations in
the same order and so the same bits; numpy takes each row's maximum and the
first maximal cell on both paths. Each slot's scores, and their order, are
computed once per decode and handed to every rung of the ladder.
"""

from __future__ import annotations

import dataclasses
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, UnknownAtom, ValidationError
from .hashing import seeded_generators, tagged_seeds
from .nn import _kernels
from .taxonomy import MAX_ATOMS_PER_PROMPT, MIN_ATOMS_PER_PROMPT, HybridPrompt, SemanticAtom, Taxonomy, enumerate_atoms

DEFAULT_WORLD_SEED = 8
DEFAULT_DIM = 64
SLOT_COUNT = MAX_ATOMS_PER_PROMPT

# decode ladder settings
_MAX_SINGLE_SWEEPS = 8
_MAX_PAIR_ROUNDS = 3
_JOINT_SHORTLIST = 16
_PAIR_TOP = 16
_EXACT_OBJECTIVE = 1.0 - 1e-9


def _rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    # fix the sign ambiguity of QR so the rotation is reproducible
    return q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)


def _atom_vectors(world_seed: int, atoms: Sequence[SemanticAtom], d: int) -> np.ndarray:
    """One unit Gaussian row per atom, each from its own tagged generator
    and normalized by its own norm."""
    tags = [f"atom|{a.domain}|{a.part}|{a.subject}" for a in atoms]
    rows = [rng.standard_normal(d) for rng in seeded_generators(tagged_seeds(world_seed, tags))]
    return np.stack([v / np.linalg.norm(v) for v in rows])


class WorldSpec:
    """All derived state for one (world_seed, d, taxonomy) triple: the slot
    rotations and atom embeddings are derived on construction."""

    def __init__(self, taxonomy: Taxonomy, world_seed: int = DEFAULT_WORLD_SEED, d: int = DEFAULT_DIM):
        if d < 2:
            raise ValidationError(f"embedding dimension must be >= 2, got {d}")
        self.world_seed = int(world_seed)
        self.d = int(d)
        self.atoms = enumerate_atoms(taxonomy)
        self.atom_index = {(a.domain, a.part, a.subject): i for i, a in enumerate(self.atoms)}
        tags = [f"rotation|{slot}" for slot in range(SLOT_COUNT)]
        self.rotations = [_rotation(rng, d) for rng in seeded_generators(tagged_seeds(self.world_seed, tags))]
        self.embeddings = _atom_vectors(self.world_seed, self.atoms, d)
        # rotated_embeddings[i][a] = R_i @ e_a, the per-slot score bases
        self.rotated_embeddings = [self.embeddings @ r.T for r in self.rotations]
        self._pair_grams: dict[tuple[int, int], np.ndarray] = {}
        self._pair_gram_row_mins: dict[tuple[int, int], np.ndarray] = {}

    def index_of(self, atom: SemanticAtom) -> int:
        try:
            return self.atom_index[(atom.domain, atom.part, atom.subject)]
        except KeyError:
            raise UnknownAtom(f"atom ({atom.part}, {atom.subject}) of domain {atom.domain} is not in the taxonomy") from None

    def pair_gram(self, i: int, j: int) -> np.ndarray:
        """Gram matrix between slot-i and slot-j rotated atom embeddings."""
        key = (i, j)
        if key not in self._pair_grams:
            self._pair_grams[key] = self.rotated_embeddings[i] @ self.rotated_embeddings[j].T
        return self._pair_grams[key]

    def pair_gram_row_min(self, i: int, j: int) -> np.ndarray:
        """Row minima of pair_gram(i, j): the pair sweep's denominator bound."""
        key = (i, j)
        if key not in self._pair_gram_row_mins:
            self._pair_gram_row_mins[key] = self.pair_gram(i, j).min(axis=1)
        return self._pair_gram_row_mins[key]


@dataclasses.dataclass
class ConditionSet:
    """Ordered per-slot conditioning: the atoms and their embeddings."""

    atoms: list[SemanticAtom]
    embeddings: np.ndarray  # (k, d)

    def __post_init__(self) -> None:
        if not (MIN_ATOMS_PER_PROMPT <= len(self.atoms) <= SLOT_COUNT):
            raise ValidationError(f"condition sets hold {MIN_ATOMS_PER_PROMPT}-{SLOT_COUNT} slots, got {len(self.atoms)}")
        if self.embeddings.shape != (len(self.atoms), self.embeddings.shape[1]):
            raise DimensionMismatch("one embedding row per atom required")

    @property
    def k(self) -> int:
        return len(self.atoms)


def condition_set(atoms: Sequence[SemanticAtom], world: WorldSpec) -> ConditionSet:
    rows = world.embeddings[[world.index_of(a) for a in atoms]]
    return ConditionSet(atoms=list(atoms), embeddings=rows)


def slot_rows(conds: Sequence[ConditionSet], d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every filled slot of ``conds`` as one row, sets in order and slots in
    order within a set: (embeddings (S, d), set index (S,), slot index (S,))."""
    ks = np.array([c.k for c in conds], dtype=np.intp)
    sets = np.repeat(np.arange(len(conds)), ks)
    slots = np.arange(sets.size) - np.repeat(np.cumsum(ks) - ks, ks)
    return np.concatenate([np.zeros((0, d)), *(c.embeddings for c in conds)]), sets, slots


def compose_targets(conds: Sequence[ConditionSet], world: WorldSpec) -> np.ndarray:
    """normalize(sum_i R_i e_i), the oracle composite, of each set: (n, d).

    Slot by slot, one stacked matmul adds R_i e_i to the sets that fill
    slot i, and a stacked (1 x d)(d x 1) matmul gives each norm: the gemv
    and ddot a per-set loop runs, so each row has that loop's bits.
    """
    embeddings, sets, slots = slot_rows(conds, world.d)
    totals = np.zeros((len(conds), world.d))
    for i, rotation in enumerate(world.rotations):
        fill = slots == i
        totals[sets[fill]] += np.matmul(rotation, embeddings[fill][:, :, None])[:, :, 0]
    return totals / np.sqrt(np.matmul(totals[:, None, :], totals[:, :, None]))[:, 0]


def compose_target(cond: ConditionSet, world: WorldSpec) -> np.ndarray:
    """compose_targets of the one set ``cond``."""
    return compose_targets([cond], world)[0]


def _composite_cosine(world: WorldSpec, e: np.ndarray, tuple_idx: Sequence[int]) -> float:
    v = np.zeros(world.d)
    for slot, a in enumerate(tuple_idx):
        v += world.rotated_embeddings[slot][a]
    return float(e @ v) / float(np.linalg.norm(v))


def _single_sweeps(world: WorldSpec, e: np.ndarray, est: list[int], k: int, scores: list[np.ndarray]) -> list[int]:
    # coordinate ascent, one slot at a time, on the composite cosine
    for _ in range(_MAX_SINGLE_SWEEPS):
        changed = False
        for i in range(k):
            v_other = np.zeros(world.d)
            for j in range(k):
                if j != i:
                    v_other += world.rotated_embeddings[j][est[j]]
            cross_i = world.rotated_embeddings[i] @ v_other
            num = float(e @ v_other) + scores[i]
            den = np.sqrt(float(v_other @ v_other) + 1.0 + 2.0 * cross_i)
            best = int(np.argmax(num / den))
            if best != est[i]:
                est[i] = best
                changed = True
        if not changed:
            break
    return est


def _pair_grid(row_num: np.ndarray, row_den2: np.ndarray, scores_j: np.ndarray, cross_j: np.ndarray, gram: np.ndarray,
               rows: np.ndarray | None = None, cols: np.ndarray | None = None) -> tuple[np.ndarray, int, int]:
    """The pair grid's cells (row_num[a] + scores_j[b]) / sqrt((row_den2[a] +
    2 cross_j[b]) + 2 gram[a, b]) at ``rows`` x ``cols`` (None: every one):
    each row's maximum, and the row and column of the first maximal cell. A
    NaN cell is its row's maximum, and the first one the argmax, as in numpy.

    The compiled pair_cells scores the cells when it is built and the arrays
    are C-contiguous float64 (int64 indices); numpy does otherwise. Both do
    the same float64 operations in the same order, so they give the same
    cells; numpy's max and argmax read the maxima off them on both paths.
    """
    lib = _kernels()
    floats, indices = (row_num, row_den2, scores_j, cross_j, gram), (rows, cols)
    if lib is not None and all(x.dtype == np.float64 and x.flags.c_contiguous for x in floats) and all(
            x is None or (x.dtype == np.int64 and x.flags.c_contiguous) for x in indices):
        cells = np.empty((len(row_num) if rows is None else len(rows), len(scores_j) if cols is None else len(cols)))
        lib.pair_cells(cells.shape[0], None if rows is None else rows.ctypes.data, cells.shape[1], None if cols is None else cols.ctypes.data,
                       row_num.ctypes.data, row_den2.ctypes.data, scores_j.ctypes.data, cross_j.ctypes.data, gram.ctypes.data,
                       gram.shape[1], cells.ctypes.data)
    else:
        rows = slice(None) if rows is None else rows
        cols = slice(None) if cols is None else cols
        cells = (row_num[rows, None] + scores_j[cols]) / np.sqrt(row_den2[rows, None] + 2.0 * cross_j[cols] + 2.0 * gram[rows, cols])
    row_max = cells.max(axis=1)
    r = int(np.argmax(row_max))
    return row_max, r, int(np.argmax(cells[r]))


def _pair_sweep(world: WorldSpec, e: np.ndarray, est: list[int], k: int,
                scores: list[np.ndarray], orders: list[np.ndarray]) -> tuple[list[int], bool]:
    # joint update of every slot pair; escapes two-slot local maxima. Cell
    # (a, b) is ((c + s_i[a]) + s_j[b]) / sqrt(((base + 2 x_i[a]) + 2 x_j[b])
    # + 2 G[a, b]), x the cross terms with the other slots. Off the top
    # _PAIR_TOP columns of s_j, row a is at most rest_num / sqrt(low_den2):
    # the next-best s_j, and the row's minima of 2 x_j and 2 G, enter the
    # same operations in the same order, so by monotone rounding the bound
    # holds for the float cells. A row whose top-column maximum and bound
    # are both below the best top-column value (less a 1e-9 relative slack)
    # cannot hold the maximum; the kept rows, scored in full in ascending
    # order, give the full grid's argmax, the first index on ties. The top
    # columns and the kept rows are scored by _pair_grid, compiled or in
    # numpy with the same bits; every maximum, and the bound, is numpy's.
    changed = False
    n = len(world.atoms)
    for i in range(k):
        for j in range(i + 1, k):
            v_other = np.zeros(world.d)
            for m in range(k):
                if m not in (i, j):
                    v_other += world.rotated_embeddings[m][est[m]]
            base = float(v_other @ v_other) + 2.0
            scores_j, order = scores[j], orders[j]
            cross_i = world.rotated_embeddings[i] @ v_other
            cross_j = world.rotated_embeddings[j] @ v_other
            gram = world.pair_gram(i, j)
            row_num = float(e @ v_other) + scores[i]
            row_den2 = base + 2.0 * cross_i
            top_max, _, _ = _pair_grid(row_num, row_den2, scores_j, cross_j, gram, cols=order[:_PAIR_TOP])
            best = float(top_max.max())
            floor = best - 1e-9 * abs(best)
            # the next-best score; the last one when every column is a top column
            rest_num = row_num + scores_j[order[min(_PAIR_TOP, n - 1)]]
            low_den2 = row_den2 + 2.0 * float(cross_j.min()) + 2.0 * world.pair_gram_row_min(i, j)
            # only a positive numerator over a positive denominator bounds a
            # row; any other row is scored in full, and so is every row when
            # best <= 0 (or NaN), since no bound is then below floor
            bound = np.full(n, np.inf)
            ok = (rest_num > 0.0) & (low_den2 > 0.0)
            bound[ok] = rest_num[ok] / np.sqrt(low_den2[ok])
            rows = np.flatnonzero(~((top_max < floor) & (bound < floor)))
            _, r, b = _pair_grid(row_num, row_den2, scores_j, cross_j, gram, rows=rows)
            a = int(rows[r])
            if (a, b) != (est[i], est[j]):
                est[i], est[j] = a, b
                changed = True
    return est, changed


def _joint_shortlist(world: WorldSpec, e: np.ndarray, est: list[int], k: int,
                     scores: list[np.ndarray], orders: list[np.ndarray]) -> list[int]:
    # exact maximization over the top-scoring candidates of every slot
    cands = []
    for i in range(k):
        short = orders[i][:_JOINT_SHORTLIST]
        if est[i] not in short:
            short = np.concatenate([short[:-1], [est[i]]])
        cands.append(short)
    shape = tuple(len(c) for c in cands)
    num = np.zeros(shape)
    den2 = np.full(shape, float(k))
    for i in range(k):
        axis = [None] * k
        axis[i] = slice(None)
        num += scores[i][cands[i]][tuple(axis)]
        for j in range(i + 1, k):
            axis2 = [None] * k
            axis2[i] = slice(None)
            axis2[j] = slice(None)
            den2 = den2 + 2.0 * world.pair_gram(i, j)[np.ix_(cands[i], cands[j])][tuple(axis2)]
    best = np.unravel_index(int(np.argmax(num / np.sqrt(den2))), shape)
    candidate = [int(cands[i][best[i]]) for i in range(k)]
    if _composite_cosine(world, e, candidate) > _composite_cosine(world, e, est):
        return candidate
    return est


def decode_parts(e: np.ndarray, k: int, world: WorldSpec) -> list[SemanticAtom]:
    """Recover the k atoms of ``world.atoms`` whose composition best explains ``e``.

    Slot i scores atoms by cosine(e, R_i e_a); ties resolve to the earlier
    atom in taxonomy enumeration order. The per-slot argmax only seeds the
    search: single-slot coordinate ascent, then pairwise sweeps, then an
    exact joint pass over per-slot shortlists refine it until the composite
    cosine stops improving. An exact composition is recognized by reaching
    cosine 1 and stops the ladder early.
    """
    if not (MIN_ATOMS_PER_PROMPT <= k <= SLOT_COUNT):
        raise ValueError(f"k must be in [{MIN_ATOMS_PER_PROMPT}, {SLOT_COUNT}], got {k}")
    e = np.asarray(e, dtype=np.float64)
    if e.shape != (world.d,):
        raise DimensionMismatch(f"expected a vector of dim {world.d}, got shape {e.shape}")
    # each slot's atom scores R_i E . e, which every rung reads, once per decode
    scores = [world.rotated_embeddings[i] @ e for i in range(k)]
    est = _single_sweeps(world, e, [int(np.argmax(s)) for s in scores], k, scores)
    if _composite_cosine(world, e, est) >= _EXACT_OBJECTIVE:
        return [world.atoms[a] for a in est]
    # and, for the pair sweeps and the joint pass, their stable descending order
    orders = [np.argsort(-s, kind="stable") for s in scores]
    for _ in range(_MAX_PAIR_ROUNDS):
        est, changed = _pair_sweep(world, e, est, k, scores, orders)
        est = _single_sweeps(world, e, est, k, scores)
        if not changed or _composite_cosine(world, e, est) >= _EXACT_OBJECTIVE:
            break
    if _composite_cosine(world, e, est) < _EXACT_OBJECTIVE:
        est = _joint_shortlist(world, e, est, k, scores, orders)
        est = _single_sweeps(world, e, est, k, scores)
    return [world.atoms[a] for a in est]


def make_dataset(
    corpus: Sequence[HybridPrompt],
    taxonomy: Taxonomy,
    world: WorldSpec,
) -> list[tuple[ConditionSet, np.ndarray]]:
    """One (condition set, composite target) pair per corpus record."""
    conds = []
    for record in corpus:
        try:
            conds.append(condition_set(record.atoms, world))
        except UnknownAtom as exc:
            raise UnknownAtom(f"record {record.id}: {exc}") from None
    return list(zip(conds, compose_targets(conds, world)))


# unused: perfbench/tracing.py BOUNDARIES pins save_dataset (as partgen.cli's)
# until a benchmark PR moves the boundary (ROADMAP item 1)
DATASET_MAGIC = b"PGDS"
DATASET_VERSION = 1


def save_dataset(pairs: Sequence[tuple[ConditionSet, np.ndarray]], path: str | Path, world: WorldSpec) -> None:
    """Binary cache: header {magic, version, d, count}, then per record the
    slot count, the atom indices, and the float32 target row (little-endian).
    """
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIQ", DATASET_VERSION, world.d, len(pairs)))
        for cond, target in pairs:
            indices = [world.index_of(a) for a in cond.atoms]
            fh.write(struct.pack("<B", cond.k))
            fh.write(struct.pack(f"<{cond.k}I", *indices))
            fh.write(np.asarray(target, dtype="<f4").tobytes())
