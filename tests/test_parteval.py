"""Part faithfulness metric: questions, graders, scoring."""

from typing import Sequence

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
from partgen.world import compose_target, condition_set


def _atom(part="tail", subject="lion", domain="creature"):
    return SemanticAtom(part=part, subject=subject, domain=domain)


class StubGrader:
    """Answers from a fixed verdict or a repeating sequence."""

    def __init__(self, verdicts: int | Sequence[int] = 1):
        self._verdicts = [verdicts] if isinstance(verdicts, int) else list(verdicts)
        self._cursor = 0

    def verdict(self, subject_ref, question: EvalQuestion) -> int:
        v = self._verdicts[self._cursor % len(self._verdicts)]
        self._cursor += 1
        return int(v)


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


class TestOracleGrader:
    def test_oracle_composite_passes_all(self, taxonomy, world):
        records = list(generate_corpus(taxonomy, 10, master_seed=55))
        grader = OracleGrader(taxonomy, world)
        for record in records:
            cond = condition_set(record.atoms, world)
            target = compose_target(cond, world)
            for slot, atom in enumerate(cond.atoms):
                questions = parteval_questions(atom)
                ref = {"embedding": target, "k": cond.k, "slot": slot}
                grade = parteval_grade(grader, ref, questions)
                assert grade.normalized == 1.0

    def test_wrong_expected_object_fails(self, taxonomy, world):
        record = next(iter(generate_corpus(taxonomy, 1, master_seed=56)))
        cond = condition_set(record.atoms, world)
        target = compose_target(cond, world)
        grader = OracleGrader(taxonomy, world)
        atom = cond.atoms[0]
        wrong = parteval_questions(SemanticAtom(part=atom.part, subject="definitelywrongsubject", domain=atom.domain))
        grade = parteval_grade(grader, {"embedding": target, "k": cond.k, "slot": 0}, wrong)
        assert grade.verdicts[0] == 0  # object question
        assert grade.verdicts[1] == 1  # part question still matches

    def test_decode_cache_reused(self, taxonomy, world):
        record = next(iter(generate_corpus(taxonomy, 1, master_seed=58)))
        cond = condition_set(record.atoms, world)
        target = compose_target(cond, world)
        grader = OracleGrader(taxonomy, world)
        ref = {"embedding": target, "k": cond.k, "slot": 0}
        question = parteval_questions(cond.atoms[0])[0]
        grader.verdict(ref, question)
        grader.verdict(ref, question)
        assert len(grader._decode_cache) == 1


class TestGradeMany:
    def test_sequential_path_matches_loop(self):
        stub = StubGrader([1, 0, 1])
        questions = parteval_questions(_atom())
        jobs = [({"i": i}, questions) for i in range(3)]
        records = parteval_grade_many(stub, jobs)
        assert [r.verdicts for r in records] == [[1, 0], [1, 1], [0, 1]]
