"""Taxonomy parsing, validation, prompt rendering, and corpus generation."""

import copy
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from partgen.errors import InsufficientAtoms, ParseError, ValidationError
from partgen.hashing import combine_seed, fnv1a_64
from partgen.taxonomy import (
    CORPUS_BLOCK,
    DOMAIN_NAMES,
    RenderConfig,
    SemanticAtom,
    default_taxonomy_path,
    enumerate_atoms,
    generate_corpus,
    load_default_taxonomy,
    load_taxonomy,
    parse_taxonomy,
    read_corpus,
    render_prompt,
    validate,
    write_corpus,
)


@pytest.fixture(scope="module")
def default_text() -> str:
    return default_taxonomy_path().read_text(encoding="utf-8")


def _atom(part: str, subject: str, domain: str = "creature") -> SemanticAtom:
    return SemanticAtom(part=part, subject=subject, domain=domain)


class TestParsing:
    def test_default_file_shape(self, taxonomy):
        assert len(taxonomy.domains) == 6
        assert tuple(d.name for d in taxonomy.domains) == DOMAIN_NAMES
        assert all(len(d.parts) == 8 for d in taxonomy.domains)
        assert len(enumerate_atoms(taxonomy)) == 464

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# header comment\n\ndomain creature\nprefix A creature\n"
            "part tail: lion, fox, whale  # trailing comment\n"
        )
        taxonomy = parse_taxonomy(text)
        assert taxonomy.domains[0].parts[0].subjects == ["lion", "fox", "whale"]

    def test_part_before_domain_rejected(self):
        with pytest.raises(ParseError, match="part before any domain"):
            parse_taxonomy("part tail: lion")

    def test_unrecognized_line_reports_location(self):
        with pytest.raises(ParseError, match="custom.txt:2"):
            parse_taxonomy("domain creature\nwhatever\n", source="custom.txt")

    def test_missing_colon_rejected(self):
        with pytest.raises(ParseError, match="part line needs"):
            parse_taxonomy("domain creature\npart tail lion fox\n")

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_taxonomy(tmp_path / "absent.txt")


class TestValidation:
    def test_wrong_domain_count_message(self, default_text):
        # drop the last domain block entirely
        truncated = default_text[: default_text.rindex("domain ")]
        with pytest.raises(ValidationError, match=r"expected 6 domains, found 5"):
            validate(parse_taxonomy(truncated))

    def test_duplicate_pair_rejected(self, default_text):
        broken = default_text.replace("part head: lion,", "part head: lion, lion,", 1)
        assert broken != default_text
        with pytest.raises(ValidationError, match="duplicate"):
            validate(parse_taxonomy(broken))

    def test_subject_count_bounds(self):
        lines = ["domain creature", "prefix A creature"]
        lines += [f"part p{i}x: " + ", ".join(f"s{j}x" for j in range(6)) for i in range(7)]
        lines += ["part tiny: one, two"]  # 2 subjects, below the minimum of 6
        taxonomy = parse_taxonomy("\n".join(lines))
        taxonomy.domains.extend(taxonomy.domains[:1] * 5)  # shape only; count check comes first
        with pytest.raises(ValidationError, match="unknown domain|appears twice|outside"):
            validate(taxonomy)

    def test_unknown_domain_rejected(self):
        text = "domain gadget\nprefix A gadget\n" + "\n".join(
            f"part q{i}x: " + ", ".join(f"s{j}x" for j in range(6)) for i in range(8)
        )
        taxonomy = parse_taxonomy(text)
        taxonomy.domains.extend([taxonomy.domains[0]] * 5)
        with pytest.raises(ValidationError, match="unknown domain 'gadget'"):
            validate(taxonomy)

    def test_malformed_subject_token_rejected(self, default_text):
        broken = default_text.replace("part head: lion,", "part head: Lion,", 1)
        assert broken != default_text
        with pytest.raises(ValidationError, match="lowercase"):
            validate(parse_taxonomy(broken))

    def test_atom_token_shape_enforced(self):
        with pytest.raises(ValidationError):
            _atom("Tail", "lion")
        with pytest.raises(ValidationError):
            _atom("tail", " lion")
        with pytest.raises(ValidationError):
            _atom("tail", "")
        with pytest.raises(ValidationError):
            _atom("tail", "lion", domain="unknown")


class TestRendering:
    def test_two_atoms_bare_and(self):
        text = render_prompt("A creature", [_atom("head", "lion"), _atom("body", "horse")])
        assert text == "A creature with head of a lion and body of a horse."

    def test_three_atoms_serial_comma(self):
        atoms = [_atom("head", "lion"), _atom("body", "horse"), _atom("tail", "fox")]
        text = render_prompt("A creature", atoms)
        assert text == "A creature with head of a lion, body of a horse, and tail of a fox."

    def test_four_atoms_serial_comma(self):
        atoms = [
            _atom("head", "eagle"),
            _atom("body", "horse"),
            _atom("wings", "bat"),
            _atom("tail", "fox"),
        ]
        text = render_prompt("A creature", atoms)
        assert text == (
            "A creature with head of a eagle, body of a horse, "
            "wings of a bat, and tail of a fox."
        )

    def test_article_is_always_a(self):
        # template fidelity beats grammar: 'a eagle', not 'an eagle'
        text = render_prompt("A creature", [_atom("head", "eagle"), _atom("tail", "owl")])
        assert "of a eagle" in text and "of a owl" in text

    def test_atom_count_bounds(self):
        with pytest.raises(ValueError):
            render_prompt("A creature", [_atom("head", "lion")])


# "tail" appears in two domains, so the mixed pool holds its atoms in two
# separate stretches; a single-domain vehicle record has only two parts
_TAIL_TAXONOMY = (
    "domain creature\nprefix A creature\n"
    "part tail: lion, fox, cat\npart head: owl, elk\npart wings: bat, moth, crow, hawk\n"
    "domain vehicle\nprefix A vehicle\n"
    "part wheels: bus, van\npart tail: jet, kite, glider\n"
)
# one domain of one-subject parts: the domain and each record's last atom
# are drawn with integers(1), which consumes nothing
_ONE_SUBJECT_TAXONOMY = "domain plant\nprefix A plant\npart leaf: fern\npart root: oak\npart stem: reed\npart bud: rose\n"


class TestSampling:
    @pytest.mark.parametrize("mix_ratio", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("source", ["default", "tail", "one-subject"])
    def test_corpus_matches_per_record_oracle(self, taxonomy, source, mix_ratio):
        """Each record as its own numpy generator draws it, across block edges;
        InsufficientAtoms for the block of the first record whose pool runs
        out of parts, after the blocks before it."""
        if source != "default":
            # parse only: validation would reject both
            taxonomy = parse_taxonomy(_TAIL_TAXONOMY if source == "tail" else _ONE_SUBJECT_TAXONOMY)
        for n in (1, CORPUS_BLOCK - 1, CORPUS_BLOCK + 1):
            expected = []
            for i in range(n):
                rng = np.random.default_rng(combine_seed(29, i))
                k = int(rng.integers(2, 5))
                mix = bool(rng.random() < mix_ratio)
                expected.append((mix, _filtered_list_draw(taxonomy, rng, k, mix)))
            records, corpus = [], generate_corpus(taxonomy, n, master_seed=29, mix_ratio=mix_ratio)
            short = next((i for i, (_, atoms) in enumerate(expected) if atoms is None), None)
            if short is None:
                records = list(corpus)
            else:
                with pytest.raises(InsufficientAtoms):
                    records.extend(corpus)
                expected = expected[: short - short % CORPUS_BLOCK]
            assert [(r.domain_mix, r.atoms) for r in records] == expected
            for r in records:
                assert len({a.part for a in r.atoms}) == len(r.atoms)
                assert r.domain_mix or len({a.domain for a in r.atoms}) == 1
                assert r.prefix == taxonomy.domain(r.atoms[0].domain).prefix


def _filtered_list_draw(taxonomy, rng, k, mix_domains):
    """The draw contract spelled out: the domain index unless mixing, then one
    index per atom into a freshly filtered list of the not-yet-used parts;
    None when the pool runs out of parts."""
    atoms = enumerate_atoms(taxonomy)
    if not mix_domains:
        domain = taxonomy.domains[int(rng.integers(len(taxonomy.domains)))].name
        atoms = [a for a in atoms if a.domain == domain]
    chosen, used = [], set()
    for _ in range(k):
        eligible = [a for a in atoms if a.part not in used]
        if not eligible:
            return None
        pick = eligible[int(rng.integers(len(eligible)))]
        chosen.append(pick)
        used.add(pick.part)
    return chosen


class TestCorpus:
    def test_record_fields(self, taxonomy):
        record = list(generate_corpus(taxonomy, 8, master_seed=11, mix_ratio=0.5))[7]
        assert record.id == 7
        assert 2 <= len(record.atoms) <= 4
        assert record.prefix == taxonomy.domain(record.atoms[0].domain).prefix
        assert record.text == render_prompt(record.prefix, record.atoms)
        assert record.seed == fnv1a_64(record.text)
        assert record.render == RenderConfig()

    def test_render_defaults(self):
        config = RenderConfig()
        assert (config.resolution, config.steps, config.guidance_scale, config.scheduler_shift) == (
            1024,
            50,
            5.0,
            3.0,
        )

    def test_determinism(self, taxonomy):
        a = list(generate_corpus(taxonomy, 50, master_seed=5))
        b = list(generate_corpus(taxonomy, 50, master_seed=5))
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
        c = list(generate_corpus(taxonomy, 50, master_seed=6))
        assert [r.to_dict() for r in a] != [r.to_dict() for r in c]

    def test_record_independent_of_corpus_size(self, taxonomy):
        # record i is derived from (master_seed, i) alone
        small = list(generate_corpus(taxonomy, 5, master_seed=9))
        large = list(generate_corpus(taxonomy, 20, master_seed=9))
        assert [r.to_dict() for r in small] == [r.to_dict() for r in large[:5]]

    def test_blocked_corpus_seeds_are_text_hashes_and_prefixes(self, taxonomy):
        # sizes on both sides of one and two block boundaries
        longest = list(generate_corpus(taxonomy, 2 * CORPUS_BLOCK + 1, master_seed=13))
        assert [r.id for r in longest] == list(range(2 * CORPUS_BLOCK + 1))
        assert [r.seed for r in longest] == [fnv1a_64(r.text) for r in longest]
        for n in (CORPUS_BLOCK - 1, CORPUS_BLOCK, CORPUS_BLOCK + 1):
            records = list(generate_corpus(taxonomy, n, master_seed=13))
            assert [r.to_dict() for r in records] == [r.to_dict() for r in longest[:n]]

    def test_mix_ratio_extremes(self, taxonomy):
        never = list(generate_corpus(taxonomy, 60, master_seed=2, mix_ratio=0.0))
        assert all(not r.domain_mix for r in never)
        assert all(len({a.domain for a in r.atoms}) == 1 for r in never)
        always = list(generate_corpus(taxonomy, 60, master_seed=2, mix_ratio=1.0))
        assert all(r.domain_mix for r in always)

    def test_invalid_arguments(self, taxonomy):
        with pytest.raises(ValueError):
            list(generate_corpus(taxonomy, 0, master_seed=0))
        with pytest.raises(ValueError):
            list(generate_corpus(taxonomy, 5, master_seed=0, mix_ratio=1.5))

    def test_jsonl_round_trip(self, taxonomy, tmp_path):
        records = list(generate_corpus(taxonomy, 25, master_seed=3))
        path = tmp_path / "corpus.jsonl"
        assert write_corpus(records, path) == 25
        loaded = read_corpus(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    def test_jsonl_lines_are_plain_json(self, taxonomy, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(generate_corpus(taxonomy, 3, master_seed=0), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        parsed = json.loads(lines[0])
        assert set(parsed) == {"id", "prefix", "domain_mix", "atoms", "text", "seed", "render"}

    def test_corpus_digest_pinned(self, tmp_path):
        # taken before the atom pools were shared across records; covers mixed and single-domain draws
        path = tmp_path / "corpus.jsonl"
        write_corpus(generate_corpus(load_default_taxonomy(), 2000, master_seed=17), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "fbb48ce4d01a76b0f4bb686cc8f4e1072460fbf793bda873501e8efba808e9e6"

    def test_edited_taxonomy_is_sampled_afresh(self, taxonomy):
        edited = copy.deepcopy(taxonomy)
        before = list(generate_corpus(edited, 2000, master_seed=4))
        part = edited.domains[0].parts[0]
        old_key, new_key = (part.part_name, part.subjects[0]), (part.part_name, "zebu")
        part.subjects[0] = "zebu"
        after = list(generate_corpus(edited, 2000, master_seed=4))
        keys_before = {a.key for r in before for a in r.atoms}
        keys_after = {a.key for r in after for a in r.atoms}
        assert old_key in keys_before and new_key not in keys_before
        assert new_key in keys_after and old_key not in keys_after

    def test_dict_round_trip(self, taxonomy, tmp_path):
        # a record read back from its corpus line equals the generated one, field for field
        record = next(generate_corpus(taxonomy, 1, master_seed=0, mix_ratio=0.5))
        write_corpus([record], tmp_path / "one.jsonl")
        assert read_corpus(tmp_path / "one.jsonl") == [record]

    @pytest.mark.parametrize(
        "field, value",
        [("subject", "Lion"), ("domain", "gadget"), ("part", 7), ("id", "seven"), ("id", 2.7), ("id", True),
         ("seed", "12"), ("seed", True), ("seed", -1), ("seed", 2**64), ("domain_mix", "no"), ("domain_mix", 1),
         ("text", 5), ("prefix", ["x"]), ("resolution", True), ("steps", "50"), ("guidance_scale", True),
         ("guidance_scale", float("nan")), ("scheduler_shift", None), ("scheduler_shift", float("-inf")),
         ("resolution", 1024.5), ("steps", 0.5), ("steps", 0), ("resolution", -512), ("scheduler_shift", 0.0),
         ("scheduler_shift", -3.0), ("guidance_scale", 0)],
        ids=["uppercase-subject", "unknown-domain", "numeric-part", "non-numeric-id", "fractional-id", "bool-id",
             "string-seed", "bool-seed", "negative-seed", "seed-2-to-the-64", "string-domain-mix", "integer-domain-mix",
             "numeric-text", "list-prefix", "bool-resolution", "string-render-steps", "bool-guidance-scale",
             "nan-guidance-scale", "null-scheduler-shift", "infinite-scheduler-shift", "fractional-resolution",
             "fractional-render-steps", "zero-render-steps", "negative-resolution", "zero-scheduler-shift",
             "negative-scheduler-shift", "zero-guidance-scale"],
    )
    def test_read_corpus_names_the_line_of_a_bad_record(self, taxonomy, tmp_path, field, value):
        records = [r.to_dict() for r in generate_corpus(taxonomy, 3, master_seed=0)]
        named = ""  # a record's own field and a render value are named first
        if field in records[1]:
            records[1][field] = value
            named = field
        elif field in records[1]["render"]:
            records[1]["render"][field] = value
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
                named = f"render {field} must be a finite number"
            elif field in ("resolution", "steps"):
                named = rf"render {field} must be a whole number >= 1, got {value!r}"
            else:
                named = rf"render {field} must be > 0, got {value!r}"
        else:
            records[1]["atoms"][0][field] = value
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ParseError, match=rf"corpus\.jsonl:2: bad corpus record: {named}"):
            read_corpus(path)

    @pytest.mark.parametrize("count", [1, 5])
    def test_read_corpus_refuses_an_atom_count_outside_2_to_4(self, taxonomy, tmp_path, count):
        records = [r.to_dict() for r in generate_corpus(taxonomy, 3, master_seed=0)]
        atoms = [a for r in records for a in r["atoms"]]
        records[1]["atoms"] = atoms[:count]
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(ParseError, match=rf"corpus\.jsonl:2: bad corpus record: a record holds 2-4 atoms, got {count}"):
            read_corpus(path)

    def test_read_corpus_names_the_file_offset_of_a_non_utf8_byte(self, taxonomy, tmp_path):
        first = (json.dumps(next(generate_corpus(taxonomy, 1, master_seed=0)).to_dict()) + "\n").encode("utf-8")
        second = '{"text": "caf\u00e9 '.encode("utf-8") + b"\xff" + b'"}\n'
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(first + second)
        offset = len(first) + second.index(b"\xff")
        with pytest.raises(ParseError, match=rf"corpus\.jsonl: not UTF-8 text: byte 0xff at offset {offset}$"):
            read_corpus(path)

    def test_read_corpus_accepts_crlf_lines(self, taxonomy, tmp_path):
        records = list(generate_corpus(taxonomy, 5, master_seed=2))
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"".join(json.dumps(r.to_dict()).encode("utf-8") + b"\r\n" for r in records))
        assert read_corpus(path) == records

    def test_writer_lines_are_json_dumps_of_each_record(self, taxonomy, tmp_path):
        # tokens that JSON escapes: a quote, a backslash and non-ASCII text
        edited = copy.deepcopy(taxonomy)
        edited.domains[0].prefix = 'A "quoted" cr\u00e9ature \\ \u65e5\u672c'
        for domain in edited.domains:
            domain.parts[0].part_name = 'ha"t\\'
            domain.parts[1].subjects[:3] = ["caf\u00e9", "b\\ck", "\u65e5\u672c"]
        records = list(generate_corpus(edited, 300, master_seed=21))
        records[1] = dataclasses.replace(records[1], render=RenderConfig(512, 20, 7.5, 1.0), domain_mix=True)
        records[2] = dataclasses.replace(records[2], text="line\nbreak \x00 \u2028 \U0001f600", seed=2**64 - 1, id=0)
        assert {'ha"t\\', "caf\u00e9", "b\\ck"} <= {t for r in records for a in r.atoms for t in (a.part, a.subject)}
        path = tmp_path / "corpus.jsonl"
        assert write_corpus(records, path) == len(records)
        assert path.read_text(encoding="utf-8") == "".join(json.dumps(r.to_dict()) + "\n" for r in records)
        assert read_corpus(path) == records

    def test_read_corpus_keeps_each_render_value_type(self, taxonomy, tmp_path):
        # equal render dicts whose values differ in type stay apart
        records = [r.to_dict() for r in generate_corpus(taxonomy, 3, master_seed=0)]
        records[1]["render"]["steps"] = 50.0
        records[2]["render"]["guidance_scale"] = 5
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        loaded = read_corpus(path)
        renders = [r.render for r in loaded]
        assert [type(r.steps) for r in renders] == [int, float, int]
        assert [type(r.guidance_scale) for r in renders] == [float, float, int]
        # and the writer writes each as it was read
        write_corpus(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_read_corpus_refuses_trailing_data_on_a_line(self, taxonomy, tmp_path):
        lines = [json.dumps(r.to_dict()) for r in generate_corpus(taxonomy, 2, master_seed=0)]
        path = tmp_path / "corpus.jsonl"
        path.write_text(f"{lines[0]}\n{lines[1]} {{}}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"corpus\.jsonl:2: bad corpus record: Extra data"):
            read_corpus(path)

    def test_read_corpus_builds_each_atom_once(self, taxonomy, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(generate_corpus(taxonomy, 200, master_seed=1), path)
        records = read_corpus(path)
        atoms = [a for r in records for a in r.atoms]
        assert len({id(a) for a in atoms}) == len(set(atoms)) < len(atoms)
