"""Synthetic embedding world: rotations, composition, decoding, dataset IO."""

import struct

import numpy as np
import pytest

from partgen.errors import DimensionMismatch, ParseError, UnknownAtom, ValidationError
from partgen.taxonomy import SemanticAtom, generate_corpus
from partgen.world import (
    DEFAULT_DIM,
    SLOT_COUNT,
    ConditionSet,
    WorldSpec,
    compose_target,
    condition_set,
    decode_parts,
    load_dataset,
    make_dataset,
    save_dataset,
)


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
        # exact oracle composites decode back to their atoms
        sets, _ = _sets(taxonomy, world, 300, seed=2)
        for cond in sets:
            target = compose_target(cond, world)
            decoded = decode_parts(target, cond.k, taxonomy, world)
            assert [a.key for a in decoded] == [a.key for a in cond.atoms]

    def test_noise_robustness(self, taxonomy, world):
        sets, _ = _sets(taxonomy, world, 150, seed=3)
        rng = np.random.default_rng(99)
        correct = 0
        total = 0
        for cond in sets:
            noisy = compose_target(cond, world) + 0.01 * rng.standard_normal(world.d)
            noisy /= np.linalg.norm(noisy)
            decoded = decode_parts(noisy, cond.k, taxonomy, world)
            correct += sum(d.key == a.key for d, a in zip(decoded, cond.atoms))
            total += cond.k
        assert correct / total == 1.0

    def test_decode_rejects_bad_k(self, taxonomy, world):
        with pytest.raises(ValueError):
            decode_parts(np.zeros(world.d), 5, taxonomy, world)

    def test_decode_checks_dimension(self, taxonomy, world):
        with pytest.raises(DimensionMismatch):
            decode_parts(np.zeros(world.d + 1), 2, taxonomy, world)


class TestDataset:
    def test_make_dataset_targets_match_oracle(self, taxonomy, world):
        records = list(generate_corpus(taxonomy, 40, master_seed=4))
        pairs = make_dataset(records, taxonomy, world)
        assert len(pairs) == 40
        for (cond, target), record in zip(pairs, records):
            assert [a.key for a in cond.atoms] == [a.key for a in record.atoms]
            assert np.allclose(target, compose_target(cond, world))

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
