"""Corpora, test-case files, and pattern plans for the harnesses.

Test-case files hold newline-delimited triples (comment line, text
line, pattern line).  Corpora come from files or from seeded synthetic
generators: word-salad English-like prose, uniform 4-letter DNA, and
uniform 16-bit symbol streams.
"""

import random
from array import array
from dataclasses import dataclass
from pathlib import Path

from .errors import TestFileError

CORPUS_KINDS = ("text", "dna", "words", "random16")

DEFAULT_SIZES = {"text": 160_000, "dna": 600_000, "random16": 100_000,
                 "words": 160_000}


@dataclass(frozen=True)
class TestCase:
    comment: bytes
    text: bytes
    pattern: bytes


def parse_test_cases(data):
    """Parse comment/text/pattern triples from raw file bytes."""
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()  # a trailing newline does not open a new line
    if len(lines) % 3:
        raise TestFileError(
            "Unexpected end of file: test cases are triples of "
            "comment, text, and pattern lines")
    return [TestCase(lines[i], lines[i + 1], lines[i + 2])
            for i in range(0, len(lines), 3)]


def read_test_cases(path):
    return parse_test_cases(Path(path).read_bytes())


_WORDS = (
    "the of and a to in is you that it he was for on are as with his they I "
    "at be this have from or one had by word but not what all were we when "
    "your can said there use an each which she do how their if will up other "
    "about out many then them these so some her would make like him into "
    "time has look two more write go see number no way could people my than "
    "first water been call who oil its now find long down day did get come "
    "made may part over new sound take only little work know place year live "
    "me back give most very after thing our just name good sentence man "
    "think say great where help through much before line right too mean old "
    "any same tell boy follow came want show also around form three small "
    "set put end does another well large must big even such because turn "
    "here why ask went men read need land different home us move try kind "
    "hand picture again change off play spell air away animal house point "
    "page letter mother answer found study still learn should america world"
).split()


def english_like_text(size, seed=0):
    """Synthetic prose: seeded word salad with sentence casing and light
    punctuation.  Adequate for throughput comparisons and
    per-character statistics; not meant to read well."""
    rng = random.Random(seed)
    pieces = []
    total = 0
    while total < size:
        words = rng.choices(_WORDS, k=rng.randint(6, 13))
        words[0] = words[0].capitalize()
        if len(words) > 3 and rng.random() < 0.25:
            cut = rng.randrange(1, len(words) - 1)
            words[cut] += ","
        sentence = " ".join(words) + rng.choice((". ", ". ", ". ", "? ", "! "))
        pieces.append(sentence)
        total += len(sentence)
    return "".join(pieces).encode("ascii")[:size]


def dna_text(size, seed=0):
    """Uniform a/c/g/t bytes."""
    rng = random.Random(seed)
    return bytes(rng.choices(b"acgt", k=size))


def random16_text(size, seed=0):
    """Uniform 16-bit symbols as an array('H')."""
    rng = random.Random(seed)
    data = array("H")
    data.frombytes(rng.randbytes(2 * size))
    return data


def load_corpus(kind, path=None, size=None, seed=0):
    """Element sequence for a corpus kind.

    With a ``path``, text/dna load raw bytes, words loads
    whitespace-separated byte words, and random16 loads little-endian
    16-bit symbols.  Without one, a seeded synthetic corpus of ``size``
    elements (kind-specific default) is generated.
    """
    if kind not in CORPUS_KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}")
    if size is None:
        size = DEFAULT_SIZES[kind]
    if path is not None:
        raw = Path(path).read_bytes()
        if not raw:
            raise ValueError(f"empty corpus file {path}")
        if kind == "words":
            return raw.split()
        if kind == "random16":
            data = array("H")
            data.frombytes(raw[:len(raw) - (len(raw) % 2)])
            return data
        return raw
    if kind == "text":
        return english_like_text(size, seed)
    if kind == "dna":
        return dna_text(size, seed)
    if kind == "words":
        return english_like_text(size, seed).split()
    return random16_text(size, seed)


@dataclass(frozen=True)
class PatternPlan:
    """Deterministic pattern sets: ``patterns`` maps each requested size,
    once and in the order first requested, to its list.

    Text patterns are corpus slices at offsets 0, increment,
    2*increment, ... with increment = (n - m) // tests; dictionary
    words of matching length follow, trimmed by a uniform skip to at
    most ``tests`` entries.
    """

    patterns: dict


def build_pattern_plan(corpus, sizes, tests, dictionary=None):
    """Pattern plan over ``corpus`` for each size in ``sizes``.

    ``dictionary`` is an optional word list (same element family as the
    corpus); sizes longer than the corpus are rejected.
    """
    n = len(corpus)
    if tests < 1:
        raise ValueError("tests must be positive")
    by_size = {}
    for m in sizes:
        if m < 1:
            raise ValueError(f"pattern size {m} must be positive")
        if m > n:
            raise ValueError(f"pattern size {m} exceeds corpus length {n}")
        increment = (n - m) // tests
        chosen = [corpus[t * increment:t * increment + m] for t in range(tests)]
        if dictionary is not None:
            words = [w for w in dictionary if len(w) == m]
            if len(words) > tests:
                skip = len(words) // tests
                words = [words[t * skip] for t in range(tests)]
            chosen.extend(words)
        by_size[m] = chosen
    return PatternPlan(by_size)
