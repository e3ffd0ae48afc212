"""Part faithfulness metric: ask yes/no questions about each requested
part, grade them, and average the normalized scores.

A prompt specifies ⟨part, subject⟩ atoms, so each atom yields two
questions: is the part that of the subject (object), and is the part there
(part). A grader is any object with ``verdict(subject_ref, question) -> 0
or 1``. The shipped grader is the oracle: it answers both questions by
decoding the generated embedding in the synthetic world.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .errors import MalformedVerdict, MixedScale, ValidationError
from .taxonomy import SemanticAtom, Taxonomy
from .world import WorldSpec, decode_parts

QUESTION_TEMPLATES = {
    "object": "Is the {part} recognizably that of a {expected}?",
    "part": "Does the output show a distinct {part}?",
}


@dataclasses.dataclass
class EvalQuestion:
    text: str
    attribute: str
    expected: str

    def __post_init__(self) -> None:
        if self.attribute not in QUESTION_TEMPLATES:
            raise ValidationError(f"question attribute must be one of {', '.join(QUESTION_TEMPLATES)}, got {self.attribute!r}")


@dataclasses.dataclass
class GradeRecord:
    verdicts: list[int]
    partial_score: int
    max_score: int

    def __post_init__(self) -> None:
        if self.partial_score > self.max_score:
            raise ValidationError("partial_score cannot exceed max_score")

    @property
    def normalized(self) -> float:
        return self.partial_score / self.max_score


def parteval_questions(atom: SemanticAtom) -> list[EvalQuestion]:
    """The atom's object question, then its part question."""
    return [
        EvalQuestion(QUESTION_TEMPLATES[attribute].format(part=atom.part, expected=expected), attribute, expected)
        for attribute, expected in (("object", atom.subject), ("part", atom.part))
    ]


class OracleGrader:
    """Grades against the synthetic world's ground truth.

    subject_ref must be a mapping with "embedding" (the generated vector),
    "k", and "slot"; a question is checked against the decoded atom at that
    slot. Each (embedding, k) is decoded once per grader.
    """

    def __init__(self, taxonomy: Taxonomy, world: WorldSpec):
        self.taxonomy = taxonomy
        self.world = world
        self._decode_cache: dict[tuple[bytes, int], list[SemanticAtom]] = {}

    def verdict(self, subject_ref, question: EvalQuestion) -> int:
        embedding = np.asarray(subject_ref["embedding"], dtype=np.float64)
        key = (embedding.tobytes(), int(subject_ref["k"]))
        if key not in self._decode_cache:
            self._decode_cache[key] = decode_parts(embedding, key[1], self.taxonomy, self.world)
        atom = self._decode_cache[key][int(subject_ref["slot"])]
        return int((atom.subject if question.attribute == "object" else atom.part) == question.expected)


def parteval_grade(grader, subject_ref, questions: Sequence[EvalQuestion]) -> GradeRecord:
    """One 0/1 verdict per question."""
    verdicts = [int(grader.verdict(subject_ref, q)) for q in questions]
    for v in verdicts:
        if v not in (0, 1):
            raise MalformedVerdict(f"verdict must be 0 or 1, got {v!r}")
    return GradeRecord(verdicts=verdicts, partial_score=sum(verdicts), max_score=len(verdicts))


def parteval_grade_many(grader, jobs: Sequence[tuple[object, Sequence[EvalQuestion]]]) -> list[GradeRecord]:
    """Grade many (subject_ref, questions) jobs, in job order."""
    return [parteval_grade(grader, ref, qs) for ref, qs in jobs]


def parteval_score(records: Sequence[GradeRecord]) -> float:
    """Mean normalized score; refuses mixed question counts."""
    if not records:
        raise ValueError("records must be non-empty")
    scales = {r.max_score for r in records}
    if len(scales) != 1:
        raise MixedScale(f"records mix max_score values {sorted(scales)}")
    return float(np.mean([r.normalized for r in records]))
