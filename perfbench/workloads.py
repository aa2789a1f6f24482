"""Seeded inputs for the benchmark's four workloads.

Each workload function generates its corpus through ``seqmatch.corpus``
and draws its patterns with ``random.Random(seed)``, so one seed always
gives the same queries.  Expected answers come from ``reference``, which uses the
native ``bytes.find`` and never seqmatch.

A query names the entry point that serves it:

- ``cli``: ``seqmatch.cli.main(["find", ...])`` on the workload's file;
- ``dispatch``: ``dispatch_search(text, pattern)``;
- ``hal``: ``search_hal(text, pattern, scheme)``;
- ``nhal``: ``search_nhal(text, pattern, shared_table)``.

``scheme`` is the scheme whose skip table that entry builds (the
element type's default for ``cli``, ``dispatch`` and ``nhal``).
"""

import random
import time
from array import array
from dataclasses import dataclass, field

from seqmatch import corpus
from seqmatch.schemes import DNA2, DNA3, DNA4, DNA5, default_scheme_for
from seqmatch.search import ReusableSkipTable

TEXT_LONG_SIZE = 1 << 20
TEXT_LONG_SIZES = (4, 10, 18)
TEXT_LONG_PER_SIZE = 360

LINE_COUNT = 4000
LINE_SIZE = 80
LINE_PATTERN_SIZES = (4, 8, 12)
LINE_PATTERNS_PER_SIZE = 4

DNA_SIZE = 1 << 19
DNA_SIZES = (20, 50, 100, 200)
DNA_SCHEMES = (DNA2, DNA3, DNA4, DNA5)
DNA_PER_PAIR = 48

WIDE_SIZE = 400_000
WIDE_SIZES = (4, 10, 18)
WIDE_PER_PAIR = 40

# Digits never occur in the English-like corpus, so one digit makes a
# slice of it absent while the rest keeps the corpus's letters.
_FOREIGN = b"0123456789"


@dataclass(slots=True)
class Query:
    entry: str
    text: object
    pattern: object
    scheme: object
    position: "int | None"

    @property
    def elements(self):
        """Elements a search reads, as ``seqmatch.bench`` counts them:
        match offset + m, or n when the pattern is absent."""
        if self.position is None:
            return len(self.text)
        return self.position + len(self.pattern)


@dataclass
class Workload:
    queries: list
    file_path: str
    file_bytes: bytes
    nhal_table: ReusableSkipTable
    generate_s: float
    probe_patterns: list = field(default_factory=list)


def aligned_find(raw, needle, width):
    """First offset of ``needle`` in ``raw`` that is a multiple of
    ``width``, divided by ``width``; None when there is none."""
    at = raw.find(needle)
    while at != -1 and at % width:
        at = raw.find(needle, at + 1)
    return None if at == -1 else at // width


def reference(text, pattern, raw=None):
    """First match offset by native search, or None.  Arrays of 16-bit
    symbols are searched as bytes, keeping only symbol-aligned hits;
    ``raw`` is the array's ``tobytes()`` when the caller already has it."""
    if isinstance(text, array):
        if raw is None:
            raw = text.tobytes()
        return aligned_find(raw, pattern.tobytes(), text.itemsize)
    return aligned_find(text, pattern, 1)


def _present_offsets(rng, n, m, count):
    """One random offset in each of ``count`` equal strata of the text,
    so the spread of match offsets does not depend on the seed."""
    span = n - m
    return [int((k + rng.random()) * span / count) for k in range(count)]


def _byte_patterns(rng, text, m, count):
    """``count`` patterns of size m: three quarters are slices at random
    offsets, the rest are slices with one foreign byte, hence absent."""
    absent = count // 4
    patterns = [text[o:o + m]
                for o in _present_offsets(rng, len(text), m, count - absent)]
    for _ in range(absent):
        o = rng.randrange(len(text) - m)
        piece = bytearray(text[o:o + m])
        piece[rng.randrange(m)] = rng.choice(_FOREIGN)
        patterns.append(bytes(piece))
    return patterns


def _timed(generate, *args):
    start = time.perf_counter()
    data = generate(*args)
    return data, time.perf_counter() - start


def _finish(name, queries, workdir, file_bytes, generate_s,
            probe_patterns=()):
    # for an array workload, the file holds the array's bytes
    for q in queries:
        q.position = reference(q.text, q.pattern, file_bytes)
    path = workdir / f"{name}.dat"
    path.write_bytes(file_bytes)
    return Workload(queries, str(path), file_bytes,
                    ReusableSkipTable(), generate_s, list(probe_patterns))


def text_long(seed, workdir):
    """``seqmatch find`` on one ~1 MB English-like file."""
    text, generate_s = _timed(corpus.english_like_text, TEXT_LONG_SIZE, seed)
    rng = random.Random(seed)
    scheme = default_scheme_for(text)
    queries = [Query("cli", text, p, scheme, None)
               for m in TEXT_LONG_SIZES
               for p in _byte_patterns(rng, text, m, TEXT_LONG_PER_SIZE)]
    rng.shuffle(queries)
    return _finish("text-long", queries, workdir, text, generate_s)


def lines_short(seed, workdir):
    """``dispatch_search`` on every 80-byte line for a dozen patterns."""
    raw, generate_s = _timed(corpus.english_like_text,
                             LINE_COUNT * LINE_SIZE, seed)
    lines = [raw[i:i + LINE_SIZE] for i in range(0, len(raw), LINE_SIZE)]
    rng = random.Random(seed)
    patterns = []
    for m in LINE_PATTERN_SIZES:
        for k in range(LINE_PATTERNS_PER_SIZE):
            line = lines[rng.randrange(LINE_COUNT)]
            o = rng.randrange(LINE_SIZE - m + 1)
            piece = bytearray(line[o:o + m])
            if k == 0:  # one pattern in four is absent
                piece[rng.randrange(m)] = rng.choice(_FOREIGN)
            patterns.append(bytes(piece))
    scheme = default_scheme_for(raw)
    # grep-style: all lines for one pattern, then the next pattern
    queries = [Query("dispatch", line, p, scheme, None)
               for p in patterns for line in lines]
    return _finish("lines-short", queries, workdir, b"\n".join(lines),
                   generate_s, patterns)


def dna_hashed(seed, workdir):
    """``search_hal`` with DNA2..DNA5 on a uniform a/c/g/t corpus."""
    text, generate_s = _timed(corpus.dna_text, DNA_SIZE, seed)
    rng = random.Random(seed)
    queries = []
    for m in DNA_SIZES:
        for scheme in DNA_SCHEMES:
            absent = DNA_PER_PAIR // 4
            offsets = _present_offsets(rng, len(text), m,
                                       DNA_PER_PAIR - absent)
            for o in offsets:
                queries.append(Query("hal", text, text[o:o + m], scheme, None))
            for _ in range(absent):
                pattern = bytes(rng.choices(b"acgt", k=m))
                queries.append(Query("hal", text, pattern, scheme, None))
    rng.shuffle(queries)
    return _finish("dna-hashed", queries, workdir, text, generate_s,
                   _distinct(queries))


def wide16(seed, workdir):
    """Uniform 16-bit symbols; queries alternate the MOD256 dispatch
    path and ``search_nhal`` with one shared reusable table."""
    text, generate_s = _timed(corpus.random16_text, WIDE_SIZE, seed)
    rng = random.Random(seed)
    scheme = default_scheme_for(text)
    by_entry = []
    for entry in ("dispatch", "nhal"):
        queries = []
        for m in WIDE_SIZES:
            absent = WIDE_PER_PAIR // 4
            offsets = _present_offsets(rng, len(text), m,
                                       WIDE_PER_PAIR - absent)
            for o in offsets:
                queries.append(Query(entry, text, text[o:o + m], scheme, None))
            for _ in range(absent):
                pattern = array("H", rng.randbytes(2 * m))
                queries.append(Query(entry, text, pattern, scheme, None))
        rng.shuffle(queries)
        by_entry.append(queries)
    queries = [q for pair in zip(*by_entry) for q in pair]
    return _finish("wide16", queries, workdir, text.tobytes(), generate_s,
                   [p.tobytes() for p in _distinct(queries)])


def _distinct(queries):
    seen = []
    for q in queries:
        if q.pattern not in seen:
            seen.append(q.pattern)
    return seen


WORKLOADS = {"text-long": text_long, "lines-short": lines_short,
            "dna-hashed": dna_hashed, "wide16": wide16}
