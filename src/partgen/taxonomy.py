"""Part taxonomy: vocabulary, validation, sampling, and the prompt corpus.

The taxonomy is a data file mapping six object domains to eight part kinds
each, every part carrying a list of donor subjects. A (part, subject) pair
is a semantic atom, the unit everything downstream composes. Prompts are
rendered from 2 to 4 distinct-part atoms with a fixed English template and
get a deterministic 64-bit seed hashed from the prompt text. The corpus is
drawn record by record, each from its own seed, and hashed per block.
"""

from __future__ import annotations

import dataclasses
import importlib.resources
import json
import math
import numbers
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InsufficientAtoms, ParseError, ValidationError, decode_utf8
from .hashing import combine_seeds, derive_seeds, seeded_generators

DOMAIN_NAMES = ("creature", "vehicle", "furniture", "plant", "electronics", "instrument")
MIN_ATOMS_PER_PROMPT = 2
MAX_ATOMS_PER_PROMPT = 4
MIN_SUBJECTS_PER_PART = 6
MAX_SUBJECTS_PER_PART = 19
PARTS_PER_DOMAIN = 8
CORPUS_BLOCK = 1024  # records drawn, hashed and yielded together


@dataclasses.dataclass(frozen=True)
class SemanticAtom:
    """A ⟨part, subject⟩ pair plus the domain it belongs to."""

    part: str
    subject: str
    domain: str

    def __post_init__(self) -> None:
        for field in ("part", "subject"):
            value = getattr(self, field)
            if not value or value != value.strip() or value != value.lower():
                raise ValidationError(f"atom {field} must be a non-empty trimmed lowercase token, got {value!r}")
        if self.domain not in DOMAIN_NAMES:
            raise ValidationError(f"unknown domain {self.domain!r}")

    @property
    def key(self) -> tuple[str, str]:
        return (self.part, self.subject)

    def to_dict(self) -> dict:
        return {"part": self.part, "subject": self.subject, "domain": self.domain}


@dataclasses.dataclass
class PartEntry:
    part_name: str
    subjects: list[str]


@dataclasses.dataclass
class DomainEntry:
    name: str
    prefix: str
    parts: list[PartEntry]


@dataclasses.dataclass
class Taxonomy:
    domains: list[DomainEntry]

    def domain(self, name: str) -> DomainEntry:
        for entry in self.domains:
            if entry.name == name:
                return entry
        raise KeyError(name)


@dataclasses.dataclass(frozen=True)
class RenderConfig:
    """Settings recorded per prompt for the external image backend."""

    resolution: int = 1024
    steps: int = 50
    guidance_scale: float = 5.0
    scheduler_shift: float = 3.0

    def __post_init__(self) -> None:
        for name, value in self.to_dict().items():
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValidationError(f"render {name} must be a finite number, got {value!r}")
        for name in ("resolution", "steps"):  # a float of integral value, such as 50.0, stays
            value = getattr(self, name)
            if value < 1 or value != math.floor(value):
                raise ValidationError(f"render {name} must be a whole number >= 1, got {value!r}")
        for name in ("guidance_scale", "scheduler_shift"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"render {name} must be > 0, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "steps": self.steps,
            "guidance_scale": self.guidance_scale,
            "scheduler_shift": self.scheduler_shift,
        }


@dataclasses.dataclass
class HybridPrompt:
    id: int
    prefix: str
    domain_mix: bool
    atoms: list[SemanticAtom]
    text: str
    seed: int
    render: RenderConfig

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "prefix": self.prefix,
            "domain_mix": self.domain_mix,
            "atoms": [a.to_dict() for a in self.atoms],
            "text": self.text,
            "seed": self.seed,
            "render": self.render.to_dict(),
        }


def default_taxonomy_path() -> Path:
    resource = importlib.resources.files("partgen").joinpath("data/default_taxonomy.txt")
    return Path(str(resource))


def parse_taxonomy(text: str, source: str = "<string>") -> Taxonomy:
    """Parse the documented tree format. Structural errors only; see validate()."""
    domains: list[DomainEntry] = []
    current: DomainEntry | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("domain "):
            current = DomainEntry(name=line[7:].strip(), prefix="", parts=[])
            domains.append(current)
        elif line.startswith("prefix "):
            if current is None:
                raise ParseError(f"{source}:{lineno}: prefix before any domain")
            current.prefix = line[7:].strip()
        elif line.startswith("part "):
            if current is None:
                raise ParseError(f"{source}:{lineno}: part before any domain")
            body = line[5:]
            if ":" not in body:
                raise ParseError(f"{source}:{lineno}: part line needs 'part <name>: <subjects>'")
            name, _, subjects = body.partition(":")
            subject_list = [s.strip() for s in subjects.split(",") if s.strip()]
            current.parts.append(PartEntry(part_name=name.strip(), subjects=subject_list))
        else:
            raise ParseError(f"{source}:{lineno}: unrecognized line {line!r}")
    if not domains:
        raise ParseError(f"{source}: no domain declarations found")
    return Taxonomy(domains=domains)


def validate(taxonomy: Taxonomy) -> None:
    """Raise ValidationError naming the first violated constraint."""
    if len(taxonomy.domains) != 6:
        raise ValidationError(f"expected 6 domains, found {len(taxonomy.domains)}")
    seen_names = set()
    for entry in taxonomy.domains:
        if entry.name not in DOMAIN_NAMES:
            raise ValidationError(f"unknown domain {entry.name!r}")
        if entry.name in seen_names:
            raise ValidationError(f"domain {entry.name!r} appears twice")
        seen_names.add(entry.name)
        if not entry.prefix:
            raise ValidationError(f"domain {entry.name!r} has no prefix")
        if len(entry.parts) != PARTS_PER_DOMAIN:
            raise ValidationError(f"domain {entry.name!r}: expected {PARTS_PER_DOMAIN} parts, found {len(entry.parts)}")
        for part in entry.parts:
            n = len(part.subjects)
            if not (MIN_SUBJECTS_PER_PART <= n <= MAX_SUBJECTS_PER_PART):
                raise ValidationError(
                    f"part {part.part_name!r} in {entry.name!r} has {n} subjects, "
                    f"outside [{MIN_SUBJECTS_PER_PART}, {MAX_SUBJECTS_PER_PART}]"
                )
    seen_pairs: set[tuple[str, str]] = set()
    for atom in enumerate_atoms(taxonomy):
        if atom.key in seen_pairs:
            raise ValidationError(f"duplicate (part, subject) pair {atom.key}")
        seen_pairs.add(atom.key)


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Parse and validate a taxonomy file."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read taxonomy file {path}: {exc}") from exc
    taxonomy = parse_taxonomy(decode_utf8(data, path), source=str(path))
    validate(taxonomy)
    return taxonomy


def load_default_taxonomy() -> Taxonomy:
    return load_taxonomy(default_taxonomy_path())


def enumerate_atoms(taxonomy: Taxonomy) -> list[SemanticAtom]:
    """All atoms in file order. Constructing SemanticAtom enforces token shape."""
    atoms = []
    for entry in taxonomy.domains:
        for part in entry.parts:
            for subject in part.subjects:
                atoms.append(SemanticAtom(part=part.part_name, subject=subject, domain=entry.name))
    return atoms


class AtomPools:
    """The draw pools of one taxonomy: every atom in file order, then each domain's.

    A pool is its atoms in order, a boolean matrix that is true where two
    of them differ in part, and the positions 0..n-1. Built from the
    taxonomy's contents at construction; a taxonomy edited afterwards needs
    new pools.
    """

    def __init__(self, taxonomy: Taxonomy) -> None:
        atoms = enumerate_atoms(taxonomy)
        codes: dict[str, int] = {}
        part_ids = np.array([codes.setdefault(a.part, len(codes)) for a in atoms])
        other_part = part_ids[:, None] != part_ids
        self.pools = [(atoms, other_part, np.arange(len(atoms)))]
        start = 0
        for entry in taxonomy.domains:
            stop = start + sum(len(p.subjects) for p in entry.parts)
            self.pools.append((atoms[start:stop], other_part[start:stop, start:stop], np.arange(stop - start)))
            start = stop

    def sample(self, rng: np.random.Generator, k: int, mix_domains: bool) -> list[SemanticAtom]:
        """Draw k distinct-part atoms, from one uniform domain unless mixing.

        Each draw is one ``rng.integers(n_eligible)`` into the pool's atoms
        of the not-yet-used parts, in pool order, so parts with more
        subjects are proportionally more likely.
        """
        if not (MIN_ATOMS_PER_PROMPT <= k <= MAX_ATOMS_PER_PROMPT):
            raise ValueError(f"k must be in [{MIN_ATOMS_PER_PROMPT}, {MAX_ATOMS_PER_PROMPT}], got {k}")
        pool = 0 if mix_domains else 1 + int(rng.integers(len(self.pools) - 1))
        atoms, other_part, eligible = self.pools[pool]
        chosen: list[SemanticAtom] = []
        while True:
            if eligible.size == 0:
                raise InsufficientAtoms(f"need {k} distinct parts, pool has {len(chosen)}")
            i = eligible[rng.integers(eligible.size)]
            chosen.append(atoms[i])
            if len(chosen) == k:
                return chosen
            eligible = eligible[other_part[i][eligible]]


def render_prompt(prefix: str, atoms: Sequence[SemanticAtom]) -> str:
    """Template: '{Prefix} with {part} of a {subject}, ..., and {part} of a {subject}.'

    The two-atom form joins with a bare 'and'; four atoms extend the serial
    comma. The article is always 'a', matching the template literally.
    """
    if not (MIN_ATOMS_PER_PROMPT <= len(atoms) <= MAX_ATOMS_PER_PROMPT):
        raise ValueError(f"prompt needs {MIN_ATOMS_PER_PROMPT}-{MAX_ATOMS_PER_PROMPT} atoms, got {len(atoms)}")
    phrases = [f"{a.part} of a {a.subject}" for a in atoms]
    if len(phrases) == 2:
        joined = f"{phrases[0]} and {phrases[1]}"
    else:
        joined = ", ".join(phrases[:-1]) + f", and {phrases[-1]}"
    return f"{prefix} with {joined}."


def _draw_record(taxonomy: Taxonomy, pools: AtomPools, rng: np.random.Generator, mix_ratio: float) -> tuple[str, bool, list[SemanticAtom], str]:
    """Prefix, domain-mix flag, atoms and text of a record, from its own
    generator, seeded with ``combine_seed(master_seed, index)``.

    The draw order within the per-item generator is fixed: k, then the
    domain-mix coin, then the domain index of a single-domain record, then
    one index per atom into the atoms of the not-yet-used parts, in pool
    order. Changing it would silently change every corpus, so it is part of
    the format.
    """
    k = int(rng.integers(MIN_ATOMS_PER_PROMPT, MAX_ATOMS_PER_PROMPT + 1))
    mix = bool(rng.random() < mix_ratio)
    atoms = pools.sample(rng, k, mix_domains=mix)
    prefix = taxonomy.domain(atoms[0].domain).prefix
    return prefix, mix, atoms, render_prompt(prefix, atoms)


def generate_corpus(
    taxonomy: Taxonomy,
    n: int,
    master_seed: int,
    mix_ratio: float = 0.5,
) -> Iterator[HybridPrompt]:
    """Yield records 0..n-1, seeded and hashed per block; output depends only on the arguments."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= mix_ratio <= 1.0):
        raise ValueError("mix_ratio must be within [0, 1]")
    pools, render = AtomPools(taxonomy), RenderConfig()
    for start in range(0, n, CORPUS_BLOCK):
        rngs = seeded_generators(combine_seeds(master_seed, range(start, min(start + CORPUS_BLOCK, n))))
        drawn = [_draw_record(taxonomy, pools, rng, mix_ratio) for rng in rngs]
        seeds = derive_seeds([text for *_, text in drawn])
        for i, (prefix, mix, atoms, text), seed in zip(range(start, n), drawn, seeds):
            yield HybridPrompt(id=i, prefix=prefix, domain_mix=mix, atoms=atoms, text=text, seed=seed, render=render)


# a corpus line, json.dumps(record.to_dict()) of a HybridPrompt, with each
# field's JSON in its slot
_CORPUS_LINE = '{{"id": {}, "prefix": {}, "domain_mix": {}, "atoms": [{}], "text": {}, "seed": {}, "render": {}}}\n'


def write_corpus(records: Iterable[HybridPrompt], path: str | Path) -> int:
    """Write JSONL, one record per line; returns the record count. A prefix,
    atom or render config object that records share is dumped once."""
    # id -> (the object, kept alive so its id stays its own; its JSON). Keyed
    # by identity, not equality, since RenderConfig(steps=50) == RenderConfig(steps=50.0).
    fragments: dict[int, tuple[object, str]] = {}

    def dumped(value, as_dict: bool = False) -> str:
        hit = fragments.get(id(value))
        if hit is None:
            hit = fragments[id(value)] = (value, json.dumps(value.to_dict() if as_dict else value))
        return hit[1]

    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_CORPUS_LINE.format(
                record.id, dumped(record.prefix), dumped(record.domain_mix),
                ", ".join([dumped(a, as_dict=True) for a in record.atoms]), json.dumps(record.text), record.seed,
                dumped(record.render, as_dict=True),
            ))
            count += 1
    return count


# a record's scalar fields and the Python type json gives each, exactly
_RECORD_FIELD_TYPES = {"id": int, "prefix": str, "domain_mix": bool, "text": str, "seed": int}


def read_corpus(path: str | Path) -> list[HybridPrompt]:
    """The records of a JSONL corpus. Each distinct atom and render dict is
    built, and so checked, once per call; a bad record is a ParseError
    naming its line."""
    records = []
    atoms: dict[tuple[str, str, str], SemanticAtom] = {}
    renders: dict[tuple, RenderConfig] = {}
    decode = json.JSONDecoder().decode
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"cannot read corpus file {path}: {exc}") from exc
    with fh:
        offset = 0
        for lineno, raw in enumerate(fh, start=1):
            line = decode_utf8(raw, path, offset).strip()
            offset += len(raw)
            if not line:
                continue
            try:
                obj = decode(line)
                keys = [(a["part"], a["subject"], a["domain"]) for a in obj["atoms"]]
                if not MIN_ATOMS_PER_PROMPT <= len(keys) <= MAX_ATOMS_PER_PROMPT:
                    raise ValueError(f"a record holds {MIN_ATOMS_PER_PROMPT}-{MAX_ATOMS_PER_PROMPT} atoms, got {len(keys)}")
                for key in keys:
                    if key not in atoms:
                        atoms[key] = SemanticAtom(*key)
                render = obj["render"]
                # the value types are in the key, so 50 and 50.0 stay apart
                render_key = (*render.items(), *map(type, render.values()))
                if render_key not in renders:
                    renders[render_key] = RenderConfig(**render)
                for field, kind in _RECORD_FIELD_TYPES.items():
                    if type(obj[field]) is not kind:  # exact: 2.7, "12" and true are not ids
                        raise ValueError(f"{field} must be of type {kind.__name__}, got {obj[field]!r}")
                if not 0 <= obj["seed"] < 2**64:
                    raise ValueError(f"seed must be in [0, 2^64), got {obj['seed']}")
                records.append(
                    HybridPrompt(
                        id=obj["id"],
                        prefix=obj["prefix"],
                        domain_mix=obj["domain_mix"],
                        atoms=[atoms[key] for key in keys],
                        text=obj["text"],
                        seed=obj["seed"],
                        render=renders[render_key],
                    )
                )
            except (ValueError, KeyError, TypeError, AttributeError, ValidationError) as exc:
                raise ParseError(f"{path}:{lineno}: bad corpus record: {exc}") from exc
    return records
