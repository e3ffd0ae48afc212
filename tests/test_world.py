"""Synthetic embedding world: rotations, composition, decoding, dataset IO."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partgen.errors import DimensionMismatch, ParseError, UnknownAtom, ValidationError
from partgen.taxonomy import SemanticAtom, generate_corpus, parse_taxonomy
from partgen.world import (
    DEFAULT_DIM,
    SLOT_COUNT,
    ConditionSet,
    WorldSpec,
    compose_target,
    compose_targets,
    condition_set,
    decode_parts,
    load_dataset,
    make_dataset,
    save_dataset,
)
from partgen.world import _PAIR_TOP, _pair_sweep


def _sets(taxonomy, world, n, seed, k_values=(2, 3, 4)):
    rng = np.random.default_rng(seed)
    out = []
    records = list(generate_corpus(taxonomy, n * 3, master_seed=seed))
    for record in records:
        if len(record.atoms) in k_values:
            out.append(condition_set(record.atoms, world))
        if len(out) == n:
            break
    assert len(out) == n
    return out, rng


def _reference_target(cond, world):
    # one set at a time: a gemv per slot, then the ddot norm
    total = np.zeros(world.d)
    for i in range(cond.k):
        total += world.rotations[i] @ cond.embeddings[i]
    return total / np.linalg.norm(total)


def _full_grid(world, e, est, k, i, j):
    # every cell of the (i, j) pair sweep's grid, computed as the unpruned
    # sweep computed it
    v_other = np.zeros(world.d)
    for m in range(k):
        if m not in (i, j):
            v_other += world.rotated_embeddings[m][est[m]]
    base = float(v_other @ v_other) + 2.0
    scores_i = world.rotated_embeddings[i] @ e
    scores_j = world.rotated_embeddings[j] @ e
    cross_i = world.rotated_embeddings[i] @ v_other
    cross_j = world.rotated_embeddings[j] @ v_other
    num = float(e @ v_other) + scores_i[:, None] + scores_j[None, :]
    den = np.sqrt(base + 2.0 * cross_i[:, None] + 2.0 * cross_j[None, :] + 2.0 * world.pair_gram(i, j))
    return num / den


def _reference_pair_sweep(world, e, est, k):
    """The unpruned pair sweep: the argmax of every full grid."""
    changed = False
    for i in range(k):
        for j in range(i + 1, k):
            a, b = divmod(int(np.argmax(_full_grid(world, e, est, k, i, j))), len(world.atoms))
            if (a, b) != (est[i], est[j]):
                est[i], est[j] = a, b
                changed = True
    return est, changed


def _assert_sweeps_agree(world, e, est, k):
    assert _pair_sweep(world, e, list(est), k) == _reference_pair_sweep(world, e, list(est), k)


class TestGeometry:
    def test_rotations_orthogonal(self, world):
        for rotation in world.rotations:
            assert np.abs(rotation @ rotation.T - np.eye(world.d)).max() < 1e-9
        assert len(world.rotations) == SLOT_COUNT

    def test_rotations_distinct(self, world):
        for i in range(SLOT_COUNT):
            for j in range(i + 1, SLOT_COUNT):
                assert np.abs(world.rotations[i] - world.rotations[j]).max() > 0.01

    def test_embeddings_unit_norm(self, world):
        norms = np.linalg.norm(world.embeddings, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_atoms_nearly_orthogonal(self, world):
        # the world seed was chosen so no two atoms are too aligned
        gram = world.embeddings @ world.embeddings.T
        np.fill_diagonal(gram, 0.0)
        assert np.abs(gram).max() < 0.5

    def test_world_seed_changes_embeddings(self, taxonomy, world):
        other = WorldSpec(taxonomy, world_seed=world.world_seed + 1, d=world.d)
        assert np.abs(world.embeddings - other.embeddings).max() > 0.1

    def test_same_seed_reproduces(self, taxonomy, world):
        again = WorldSpec(taxonomy, world_seed=world.world_seed, d=world.d)
        assert np.array_equal(world.embeddings, again.embeddings)
        for a, b in zip(world.rotations, again.rotations):
            assert np.array_equal(a, b)

    def test_atom_embedding_lookup(self, taxonomy, world):
        atom = taxonomy.domains[0].parts[0]
        atom = SemanticAtom(part=atom.part_name, subject=atom.subjects[0], domain=taxonomy.domains[0].name)
        vec = world.embeddings[world.index_of(atom)]
        assert vec.shape == (world.d,)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_unknown_atom_raises(self, world):
        ghost = SemanticAtom(part="head", subject="nonexistentsubject", domain="creature")
        with pytest.raises(UnknownAtom):
            world.index_of(ghost)


class TestComposition:
    def test_target_unit_norm(self, taxonomy, world):
        sets, _ = _sets(taxonomy, world, 50, seed=0)
        for cond in sets:
            assert abs(np.linalg.norm(compose_target(cond, world)) - 1.0) < 1e-12

    def test_slot_order_matters(self, taxonomy, world):
        sets, _ = _sets(taxonomy, world, 30, seed=1)
        for cond in sets:
            swapped = ConditionSet(atoms=list(reversed(cond.atoms)), embeddings=cond.embeddings[::-1].copy())
            a = compose_target(cond, world)
            b = compose_target(swapped, world)
            assert float(a @ b) < 0.9

    def test_condition_set_slot_bounds(self, taxonomy, world):
        atoms = [
            SemanticAtom("head", "lion", "creature"),
            SemanticAtom("body", "horse", "creature"),
            SemanticAtom("tail", "fox", "creature"),
            SemanticAtom("wings", "bat", "creature"),
        ]
        with pytest.raises(ValidationError):
            ConditionSet(atoms=atoms[:1], embeddings=world.embeddings[:1])
        with pytest.raises(ValidationError):
            condition_set(atoms + atoms[:1], world)


class TestDecoding:
    def test_round_trip_identity(self, taxonomy, world):
        # exact oracle composites decode back to their atoms: a reduced-scale
        # check of the 0-in-32k round-trip figure in the module docstring
        sets, _ = _sets(taxonomy, world, 2000, seed=2)
        failures = 0
        for cond in sets:
            decoded = decode_parts(compose_target(cond, world), cond.k, world)
            failures += [a.key for a in decoded] != [a.key for a in cond.atoms]
        assert {cond.k for cond in sets} == {2, 3, 4}
        assert failures == 0

    def test_noise_robustness(self, taxonomy, world):
        sets, _ = _sets(taxonomy, world, 150, seed=3)
        rng = np.random.default_rng(99)
        correct = 0
        total = 0
        for cond in sets:
            noisy = compose_target(cond, world) + 0.01 * rng.standard_normal(world.d)
            noisy /= np.linalg.norm(noisy)
            decoded = decode_parts(noisy, cond.k, world)
            correct += sum(d.key == a.key for d, a in zip(decoded, cond.atoms))
            total += cond.k
        assert correct / total == 1.0

    def test_decode_rejects_bad_k(self, world):
        with pytest.raises(ValueError):
            decode_parts(np.zeros(world.d), 5, world)

    def test_decode_checks_dimension(self, world):
        with pytest.raises(DimensionMismatch):
            decode_parts(np.zeros(world.d + 1), 2, world)


class TestPairSweep:
    """The pruned pair sweep returns the full grid's argmax, first index on ties."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_full_grid_on_noisy_composites(self, taxonomy, world, k):
        sets, rng = _sets(taxonomy, world, 8, seed=20 + k, k_values=(k,))
        n = len(world.atoms)
        for cond in sets:
            target = compose_target(cond, world)
            for noise in (0.02, 0.1, 0.3, 0.5):
                e = target + noise * rng.standard_normal(world.d) / np.sqrt(world.d)
                _assert_sweeps_agree(world, e, [int(np.argmax(world.rotated_embeddings[i] @ e)) for i in range(k)], k)
                _assert_sweeps_agree(world, e, [int(a) for a in rng.integers(0, n, k)], k)

    @pytest.fixture(scope="class")
    def drawn_sets(self, taxonomy, world):
        return _sets(taxonomy, world, 60, seed=30)[0]

    @settings(max_examples=40, deadline=None)
    @given(
        record=st.integers(0, 59),
        noise=st.floats(0.0, 2.0),
        noise_seed=st.integers(0, 2**32 - 1),
        est=st.lists(st.integers(0, 463), min_size=4, max_size=4),  # the default taxonomy's 464 atoms
    )
    def test_matches_full_grid_on_drawn_inputs(self, world, drawn_sets, record, noise, noise_seed, est):
        cond = drawn_sets[record]
        rng = np.random.default_rng(noise_seed)
        e = compose_target(cond, world) + noise * rng.standard_normal(world.d) / np.sqrt(world.d)
        _assert_sweeps_agree(world, e, est[: cond.k], cond.k)

    def test_zero_vector_takes_the_first_cell(self, world):
        # every cell is 0, so no bound applies and the first index wins
        assert _pair_sweep(world, np.zeros(world.d), [5, 6, 7], 3) == ([0, 0, 0], True)
        _assert_sweeps_agree(world, np.zeros(world.d), [5, 6, 7], 3)

    def test_negated_target_scores_no_positive_cell(self, taxonomy, world):
        sets, _ = _sets(taxonomy, world, 5, seed=40, k_values=(4,))
        for cond in sets:
            est = [world.index_of(a) for a in cond.atoms]
            e = -compose_target(cond, world)
            assert _full_grid(world, e, est, 4, 0, 1).max() <= 0.0
            _assert_sweeps_agree(world, e, est, 4)

    def test_duplicate_and_near_duplicate_maxima(self, taxonomy):
        fresh = WorldSpec(taxonomy)
        rot_i, rot_j = fresh.rotated_embeddings[0], fresh.rotated_embeddings[1]
        rot_i[300] = rot_i[100]  # rows 100 and 300 tie
        rot_j[400] = rot_j[200]  # and so do columns 200 and 400
        rot_i[301] = rot_i[101] * (1.0 + 1e-15)
        rot_j[401] = rot_j[201] * (1.0 - 1e-15)
        for a, b in ((300, 400), (101, 201), (301, 401)):
            e = rot_i[a] + rot_j[b]
            e /= np.linalg.norm(e)
            _assert_sweeps_agree(fresh, e, [a, b], 2)
        e = (rot_i[100] + rot_j[200]) / np.linalg.norm(rot_i[100] + rot_j[200])
        assert _pair_sweep(fresh, e, [300, 400], 2) == ([100, 200], True)

    def test_row_without_a_positive_denominator_bound(self, taxonomy):
        # slot-1 atom 7 is slot-0 atom a reversed and doubled, so cell (a, 7)
        # has a negative squared norm: row a has no bound and must be kept,
        # and the cell's NaN is the full grid's argmax
        fresh = WorldSpec(taxonomy)
        rot_i, rot_j = fresh.rotated_embeddings[0], fresh.rotated_embeddings[1]
        e = (rot_i[10] + rot_j[5]) / np.linalg.norm(rot_i[10] + rot_j[5])
        a = next(a for a in range(len(fresh.atoms)) if a != 10 and rot_i[a] @ e > 0.05)
        rot_j[7] = -2.0 * rot_i[a]
        with np.errstate(invalid="ignore"):
            grid = _full_grid(fresh, e, [0, 0], 2, 0, 1)
            assert np.isnan(grid[a, 7]) and np.nanmax(grid[a]) < np.nanmax(grid)
            assert _pair_sweep(fresh, e, [0, 0], 2) == ([a, 7], True)
            _assert_sweeps_agree(fresh, e, [0, 0], 2)

    def test_maximum_off_the_top_columns(self, taxonomy):
        # slot-1 atom 20 points away from the slot-2 atom, so the exact
        # composite (10, 20, 30) scores low on slot 1 alone: its cell lies
        # off the top _PAIR_TOP columns, and only the row bound keeps row 10.
        # Slot-0 atom 50 completes the composite with the top column, which
        # lifts the best top-column value and so tightens the cut.
        fresh = WorldSpec(taxonomy)
        rot_i, rot_j, rot_m = fresh.rotated_embeddings[:3]
        w = np.random.default_rng(0).standard_normal(fresh.d)
        for u in (rot_m[30], rot_i[10]):
            w -= (w @ u) / (u @ u) * u
        rot_j[20] = -0.9 * rot_m[30] + np.sqrt(1.0 - 0.81) * w / np.linalg.norm(w)
        composite = rot_i[10] + rot_j[20] + rot_m[30]
        e = composite / np.linalg.norm(composite)
        top = np.argsort(-(rot_j @ e), kind="stable")[:_PAIR_TOP]
        rot_i[50] = composite - rot_j[top[0]] - rot_m[30]
        rot_i[50] /= np.linalg.norm(rot_i[50])
        est = [0, 0, 30]
        grid = _full_grid(fresh, e, est, 3, 0, 1)
        assert np.unravel_index(np.argmax(grid), grid.shape) == (10, 20)
        assert 20 not in top and grid[10, top].max() < grid[:, top].max() - 0.1
        _assert_sweeps_agree(fresh, e, est, 3)
        assert _pair_sweep(fresh, e, list(est), 3)[0] == [10, 20, 30]

    def test_small_taxonomy(self):
        # fewer atoms than _PAIR_TOP: every column is a top column
        small = parse_taxonomy("domain creature\nprefix c\npart head: lion, fox, owl\npart tail: cat, rat, bat, yak\n")
        fresh = WorldSpec(small)
        assert len(fresh.atoms) < _PAIR_TOP
        rng = np.random.default_rng(1)
        for _ in range(10):
            _assert_sweeps_agree(fresh, rng.standard_normal(fresh.d), [int(a) for a in rng.integers(0, len(fresh.atoms), 3)], 3)


class TestDataset:
    def test_make_dataset_targets_match_oracle(self, taxonomy, world):
        records = list(generate_corpus(taxonomy, 40, master_seed=4))
        pairs = make_dataset(records, taxonomy, world)
        assert len(pairs) == 40
        for (cond, target), record in zip(pairs, records):
            assert [a.key for a in cond.atoms] == [a.key for a in record.atoms]
            assert np.allclose(target, compose_target(cond, world))

    def test_targets_have_the_per_set_loop_bits(self, taxonomy, world):
        records = list(generate_corpus(taxonomy, 2000, master_seed=11))
        assert {len(r.atoms) for r in records} == {2, 3, 4}
        conds = [condition_set(r.atoms, world) for r in records]
        expected = np.stack([_reference_target(c, world) for c in conds])
        assert compose_targets(conds, world).tobytes() == expected.tobytes()
        targets = np.stack([target for _, target in make_dataset(records, taxonomy, world)])
        assert targets.tobytes() == expected.tobytes()
        for cond, row in zip(conds[:100], expected):
            assert compose_target(cond, world).tobytes() == row.tobytes()

    def test_compose_targets_of_no_sets_is_empty(self, world):
        assert compose_targets([], world).shape == (0, world.d)

    def test_make_dataset_names_the_record_of_an_unknown_atom(self, taxonomy, world):
        records = list(generate_corpus(taxonomy, 3, master_seed=4))
        ghost = SemanticAtom(part=records[1].atoms[0].part, subject="unicorn", domain=records[1].atoms[0].domain)
        records[1].atoms[0] = ghost
        with pytest.raises(UnknownAtom, match=rf"^record {records[1].id}: atom \({ghost.part}, unicorn\)"):
            make_dataset(records, taxonomy, world)

    def test_save_load_round_trip(self, taxonomy, world, tmp_path):
        pairs = make_dataset(list(generate_corpus(taxonomy, 25, master_seed=5)), taxonomy, world)
        path = tmp_path / "dataset.bin"
        save_dataset(pairs, path, world)
        loaded = load_dataset(path, world)
        assert len(loaded) == len(pairs)
        for (cond_a, target_a), (cond_b, target_b) in zip(pairs, loaded):
            assert [a.key for a in cond_a.atoms] == [a.key for a in cond_b.atoms]
            assert np.array_equal(target_a.astype(np.float32), target_b.astype(np.float32))

    def test_load_rejects_wrong_magic(self, world, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ParseError):
            load_dataset(path, world)

    @pytest.fixture
    def saved(self, taxonomy, world, tmp_path):
        path = tmp_path / "dataset.bin"
        save_dataset(make_dataset(list(generate_corpus(taxonomy, 3, master_seed=6)), taxonomy, world), path, world)
        return path

    # header (magic, version, d, count: 20 bytes): inside the version and
    # the count; first record (slot count, atom indices, target row): its
    # slot count, first atom index and target row; the file's last byte
    @pytest.mark.parametrize("cut", [6, 14, 20, 24, 40, -1])
    def test_truncated_file_is_parse_error(self, world, saved, cut):
        saved.write_bytes(saved.read_bytes()[:cut])
        with pytest.raises(ParseError, match="truncated dataset"):
            load_dataset(saved, world)

    def test_atom_index_out_of_range_is_parse_error(self, world, saved):
        data = bytearray(saved.read_bytes())
        data[21:25] = struct.pack("<I", len(world.atoms))  # first atom index of the first record
        saved.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="out of range"):
            load_dataset(saved, world)

    @pytest.mark.parametrize("k", [0, 1, SLOT_COUNT + 1])
    def test_bad_slot_count_is_parse_error(self, world, saved, k):
        data = bytearray(saved.read_bytes())
        data[20] = k  # slot count of the first record
        saved.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="slot count"):
            load_dataset(saved, world)
