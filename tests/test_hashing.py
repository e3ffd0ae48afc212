"""Seed derivation against published FNV-1a reference vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partgen.hashing import FNV_OFFSET_BASIS, combine_seed, derive_seeds, fnv1a_64, fnv1a_64_many, tagged_seed


def test_empty_input_is_offset_basis():
    assert fnv1a_64(b"") == FNV_OFFSET_BASIS == 14695981039346656037


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a", 0xAF63DC4C8601EC8C),
        ("b", 0xAF63DF4C8601F1A5),
        ("foobar", 0x85944171F73967E8),
    ],
)
def test_reference_vectors(text, expected):
    assert fnv1a_64(text) == expected


def test_str_and_utf8_bytes_agree():
    assert fnv1a_64("tail of a lion") == fnv1a_64("tail of a lion".encode("utf-8"))


def test_result_fits_64_bits():
    for text in ("", "x", "a longer prompt with several words"):
        assert 0 <= fnv1a_64(text) < 2**64


def test_derive_seed_rejects_empty_text():
    for texts in ([""], ["a prompt.", ""]):
        with pytest.raises(ValueError):
            derive_seeds(texts)


def test_derive_seed_is_text_hash():
    texts = ["A creature with tail of a lion.", "A vehicle with wheel of a bus and sail of a yacht."]
    assert derive_seeds(texts) == [fnv1a_64(t) for t in texts]


@given(st.lists(st.binary(max_size=40)))
def test_many_matches_scalar_on_bytes(items):
    assert fnv1a_64_many(items) == [fnv1a_64(x) for x in items]


@given(st.lists(st.text(max_size=30)))
def test_many_matches_scalar_on_text(items):
    assert fnv1a_64_many(items) == [fnv1a_64(x) for x in items]


@pytest.mark.parametrize(
    "items",
    [[], [""], ["", b""], ["é", "日本語の部品", "a"], [b"\x00", b"\xff" * 70, b"", "longest of these items by far"]],
)
def test_many_matches_scalar_on_edge_cases(items):
    assert fnv1a_64_many(items) == [fnv1a_64(x) for x in items]


def test_combine_seed_depends_on_both_arguments():
    assert combine_seed(1, 2) != combine_seed(2, 1)
    assert combine_seed(1, 2) != combine_seed(1, 3)
    assert combine_seed(1, 2) == combine_seed(1, 2)


def test_tagged_seed_separates_streams():
    base = 123456789
    assert tagged_seed(base, "atom") != tagged_seed(base, "rotation")
    assert tagged_seed(base, "atom") == tagged_seed(base, "atom")
