"""Part faithfulness metric: questions, graders, scoring."""

import re
from typing import Sequence

import numpy as np
import pytest

from partgen.errors import MalformedVerdict, MixedScale, ValidationError
from partgen.parteval import (
    EvalQuestion,
    GradeRecord,
    OracleGrader,
    parteval_grade,
    parteval_grade_many,
    parteval_questions,
    parteval_score,
)
from partgen.taxonomy import SemanticAtom, generate_corpus
from partgen.world import compose_target, condition_set, decode_parts


def _atom(part="tail", subject="lion", domain="creature"):
    return SemanticAtom(part=part, subject=subject, domain=domain)


class StubGrader:
    """Answers from a repeating sequence, each value returned as it is."""

    def __init__(self, verdicts: Sequence[object]):
        self._verdicts = list(verdicts)
        self._cursor = 0

    def verdict(self, subject_ref, question: EvalQuestion):
        v = self._verdicts[self._cursor % len(self._verdicts)]
        self._cursor += 1
        return v


class TestExtractAndQuestions:
    def test_question_order_and_templates(self):
        questions = parteval_questions(_atom())
        assert [q.attribute for q in questions] == ["object", "part"]
        assert [q.expected for q in questions] == ["lion", "tail"]
        assert questions[0].text == "Is the tail recognizably that of a lion?"
        assert questions[1].text == "Does the output show a distinct tail?"

    def test_unspecified_attributes_ask_nothing(self):
        for atom in (_atom(), _atom(part="wing", subject="eagle")):
            questions = parteval_questions(atom)
            assert [q.attribute for q in questions] == ["object", "part"]

    def test_unknown_attribute_rejected(self):
        with pytest.raises(ValidationError, match="attribute"):
            EvalQuestion(text="Is the tail red in color?", attribute="color", expected="red")


class TestGradeArithmetic:
    def test_grade_counts_verdicts(self):
        questions = parteval_questions(_atom())
        record = parteval_grade(StubGrader([1, 0]), {"any": "ref"}, questions)
        assert record.verdicts == [1, 0]
        assert record.partial_score == 1 and record.max_score == 2
        assert record.normalized == 0.5

    def test_out_of_range_verdict_is_malformed(self):
        questions = parteval_questions(_atom())
        with pytest.raises(MalformedVerdict):
            parteval_grade(StubGrader([1, 2]), {"any": "ref"}, questions)

    @pytest.mark.parametrize("bad", [0.7, 1.9, "1", None, 1.0, -1, np.float64(1.0)], ids=repr)
    def test_non_integer_verdict_is_malformed(self, bad):
        questions = parteval_questions(_atom())
        with pytest.raises(MalformedVerdict, match=re.escape(repr(bad))):
            parteval_grade(StubGrader([1, bad]), {"any": "ref"}, questions)

    @pytest.mark.parametrize("good", [[0, 1], [False, True], [np.int64(1), np.uint8(0)]], ids=repr)
    def test_integer_verdicts_accepted(self, good):
        record = parteval_grade(StubGrader(good), {"any": "ref"}, parteval_questions(_atom()))
        assert record.verdicts == [int(v) for v in good]
        assert all(type(v) is int for v in record.verdicts)

    def test_partial_cannot_exceed_max(self):
        with pytest.raises(ValidationError):
            GradeRecord(verdicts=[1, 1], partial_score=3, max_score=2)

    def test_score_extremes(self):
        ones = [GradeRecord([1, 1], 2, 2) for _ in range(9)]
        zeros = [GradeRecord([0, 0], 0, 2) for _ in range(9)]
        assert parteval_score(ones) == 1.0
        assert parteval_score(zeros) == 0.0

    def test_seventy_percent_fixture(self):
        records = [GradeRecord([1], 1, 1)] * 7 + [GradeRecord([0], 0, 1)] * 3
        assert parteval_score(records) == pytest.approx(0.7)

    def test_mixed_scale_rejected(self):
        records = [GradeRecord([1], 1, 1), GradeRecord([1, 0], 1, 2)]
        with pytest.raises(MixedScale):
            parteval_score(records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parteval_score([])


def _decoded_exact(taxonomy, world, master_seed):
    """(cond, decoded atoms) of the exact composite of one corpus record."""
    record = next(iter(generate_corpus(taxonomy, 1, master_seed=master_seed)))
    cond = condition_set(record.atoms, world)
    return cond, decode_parts(compose_target(cond, world), cond.k, world)


class TestOracleGrader:
    def test_oracle_composite_passes_all(self, taxonomy, world):
        for record in generate_corpus(taxonomy, 10, master_seed=55):
            cond = condition_set(record.atoms, world)
            decoded = decode_parts(compose_target(cond, world), cond.k, world)
            for slot, atom in enumerate(cond.atoms):
                grade = parteval_grade(OracleGrader(), {"decoded": decoded, "slot": slot}, parteval_questions(atom))
                assert grade.normalized == 1.0

    def test_wrong_expected_object_fails(self, taxonomy, world):
        cond, decoded = _decoded_exact(taxonomy, world, 56)
        atom = cond.atoms[0]
        wrong = parteval_questions(SemanticAtom(part=atom.part, subject="definitelywrongsubject", domain=atom.domain))
        grade = parteval_grade(OracleGrader(), {"decoded": decoded, "slot": 0}, wrong)
        assert grade.verdicts[0] == 0  # object question
        assert grade.verdicts[1] == 1  # part question still matches

    def test_reads_the_atom_at_its_slot(self, taxonomy, world):
        cond, decoded = _decoded_exact(taxonomy, world, 58)
        swapped = [decoded[1], decoded[0], *decoded[2:]]
        for slot, atom in enumerate(cond.atoms[:2]):
            other = swapped[slot]
            grade = parteval_grade(OracleGrader(), {"decoded": swapped, "slot": slot}, parteval_questions(atom))
            assert other.key != atom.key
            assert grade.verdicts == [int(other.subject == atom.subject), int(other.part == atom.part)]

    def test_grading_decodes_nothing(self, taxonomy, world, monkeypatch):
        cond, decoded = _decoded_exact(taxonomy, world, 59)

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle grader decoded")

        monkeypatch.setattr("partgen.parteval.decode_parts", refuse)
        monkeypatch.setattr("partgen.world.decode_parts", refuse)
        jobs = [({"decoded": decoded, "slot": slot}, parteval_questions(atom)) for slot, atom in enumerate(cond.atoms)]
        assert [g.normalized for g in parteval_grade_many(OracleGrader(), jobs)] == [1.0] * cond.k


class TestGradeMany:
    def test_sequential_path_matches_loop(self):
        stub = StubGrader([1, 0, 1])
        questions = parteval_questions(_atom())
        jobs = [({"i": i}, questions) for i in range(3)]
        records = parteval_grade_many(stub, jobs)
        assert [r.verdicts for r in records] == [[1, 0], [1, 1], [0, 1]]
