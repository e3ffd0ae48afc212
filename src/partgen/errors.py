"""Exception types shared across the package, the length-checked read that
turns a short checkpoint into a ParseError, and the UTF-8 decode that turns
a bad byte in a text file into one."""

import os


class PartgenError(Exception):
    """Base class for all package-specific errors."""


class ParseError(PartgenError):
    """A data file could not be parsed."""


class ValidationError(PartgenError):
    """A structural constraint was violated; the message names it."""


class InsufficientAtoms(PartgenError):
    """A sample request cannot be satisfied under the distinct-part rule."""


class UnknownAtom(PartgenError):
    """A corpus record references an atom missing from the taxonomy."""


class DimensionMismatch(PartgenError):
    """Vector or matrix shapes do not chain."""


class NonFiniteGradient(PartgenError):
    """An optimizer step received a NaN or Inf gradient."""


class NonFiniteLoss(PartgenError):
    """A training loss evaluated to NaN or Inf."""


class TooFewSamples(PartgenError):
    """A statistic was requested on fewer samples than it needs."""


class NonConvergent(PartgenError):
    """A matrix routine failed to produce a usable decomposition."""


class MalformedVerdict(PartgenError):
    """A grader returned something other than a 0/1 verdict."""


class MixedScale(PartgenError):
    """Grade records with differing max_score cannot be averaged."""


class MalformedReport(PartgenError):
    """A report file is missing required fields or conflicts with others."""


def decode_utf8(data: bytes, path, offset: int = 0) -> str:
    """``data``, read from ``path`` starting at byte ``offset``, as UTF-8
    text; a byte that is not UTF-8 is a ParseError naming the path and the
    byte's offset in the file."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {offset + exc.start}") from None


def exact_reader(fh, path):
    """read(n) on a checkpoint file that returns exactly n bytes, or raises
    ParseError naming the file as a truncated checkpoint; a request for more
    bytes than remain is refused before it is read."""
    size = os.fstat(fh.fileno()).st_size

    def read(n: int) -> bytes:
        offset = fh.tell()
        if n > size - offset:
            raise ParseError(f"{path}: truncated checkpoint: wanted {n} bytes at offset {offset}, got {size - offset}")
        return fh.read(n)

    return read
