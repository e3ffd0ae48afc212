"""Three-stage part faithfulness metric: extract structured features,
derive yes/no questions, grade them, and average the normalized scores.

A grader is any object with ``verdict(subject_ref, question) -> 0 or 1``.
The shipped grader is the oracle: it answers object and part questions by
decoding the generated embedding in the synthetic world, and compares the
other attributes with ground-truth metadata.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Mapping, Sequence

import numpy as np

from .errors import MalformedVerdict, MixedScale, ValidationError
from .taxonomy import SemanticAtom, Taxonomy
from .world import WorldSpec, decode_parts

UNSPECIFIED = "unspecified"
ATTRIBUTES = ("object", "part", "color", "texture", "spatial_relation")

QUESTION_TEMPLATES = {
    "object": "Is the {part} recognizably that of a {expected}?",
    "part": "Does the output show a distinct {part}?",
    "color": "Is the {part} {expected} in color?",
    "texture": "Does the {part} have a {expected} texture?",
    "spatial_relation": "Is the {part} positioned {expected}?",
}


@dataclasses.dataclass
class PartFeature:
    object: str
    part: str
    color: str = UNSPECIFIED
    texture: str = UNSPECIFIED
    spatial_relation: str = UNSPECIFIED

    def __post_init__(self) -> None:
        if not self.object or self.object == UNSPECIFIED:
            raise ValidationError("PartFeature requires a specified object")
        if not self.part or self.part == UNSPECIFIED:
            raise ValidationError("PartFeature requires a specified part")


@dataclasses.dataclass
class EvalQuestion:
    text: str
    attribute: str
    expected: str


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


def parteval_extract(atom: SemanticAtom, metadata: Mapping[str, str] | None = None) -> PartFeature:
    """Stage 1: the atom itself fixes object and part; other attributes come
    from ground-truth metadata when available."""
    metadata = metadata or {}
    return PartFeature(
        object=atom.subject,
        part=atom.part,
        color=metadata.get("color", UNSPECIFIED),
        texture=metadata.get("texture", UNSPECIFIED),
        spatial_relation=metadata.get("spatial_relation", UNSPECIFIED),
    )


def parteval_questions(feature: PartFeature) -> list[EvalQuestion]:
    """Stage 2: one templated question per specified attribute, in the fixed
    order object, part, color, texture, spatial_relation."""
    questions = []
    for attribute in ATTRIBUTES:
        expected = getattr(feature, attribute)
        if expected == UNSPECIFIED:
            continue
        text = QUESTION_TEMPLATES[attribute].format(part=feature.part, expected=expected)
        questions.append(EvalQuestion(text=text, attribute=attribute, expected=expected))
    return questions


class OracleGrader:
    """Grades against the synthetic world's ground truth.

    subject_ref must be a mapping with "embedding" (the generated vector),
    "k", and "slot"; object and part questions check the decoded atom at
    that slot. Other attributes compare against subject_ref["metadata"].
    """

    def __init__(self, taxonomy: Taxonomy, world: WorldSpec):
        self.taxonomy = taxonomy
        self.world = world
        self._decode_cache: dict[bytes, list[SemanticAtom]] = {}

    def _decode(self, embedding: np.ndarray, k: int) -> list[SemanticAtom]:
        key = hashlib.sha256(np.asarray(embedding, dtype=np.float64).tobytes() + bytes([k])).digest()
        if key not in self._decode_cache:
            self._decode_cache[key] = decode_parts(embedding, k, self.taxonomy, self.world)
        return self._decode_cache[key]

    def verdict(self, subject_ref, question: EvalQuestion) -> int:
        embedding = np.asarray(subject_ref["embedding"], dtype=np.float64)
        decoded = self._decode(embedding, int(subject_ref["k"]))
        slot = int(subject_ref["slot"])
        atom = decoded[slot]
        if question.attribute == "object":
            return int(atom.subject == question.expected)
        if question.attribute == "part":
            return int(atom.part == question.expected)
        metadata = subject_ref.get("metadata") or {}
        return int(metadata.get(question.attribute) == question.expected)


def parteval_grade(grader, subject_ref, questions: Sequence[EvalQuestion]) -> GradeRecord:
    """Stage 3: one 0/1 verdict per question."""
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
