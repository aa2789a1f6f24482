"""Operation counting that leaves the search code untouched.

A counted run wraps the *text* in a proxy sequence whose reads and
element operations feed a shared sink, so the algorithms execute their
normal code paths while every text-element equality test, every
non-comparison use of a text element (hash probes, table indexing), and
every cursor movement is tallied.  Wrapping only the text also makes
``element_comparisons`` exactly the quantity the 2n bound constrains;
pattern-against-pattern comparisons during preprocessing are O(m) and
stay outside the tally.  Loop-index arithmetic runs on native integers,
which offer no transparent seam in Python, so it is not counted.
"""

import operator
from dataclasses import dataclass, fields

from .schemes import _items, _val, default_scheme_for
from .search import resolve_algorithm


@dataclass
class OperationCounts:
    """Tallies for one instrumented run.

    A cursor displacement of more than one position is a big jump; a
    displacement of -1, 0, or +1 is one "other" cursor op, as is each
    single-step advance of a forward scan.
    """

    element_comparisons: int = 0
    element_accesses: int = 0
    cursor_big_jumps: int = 0
    cursor_other_ops: int = 0

    def per_element(self, elements):
        """Counts divided by the number of elements searched."""
        return {name: getattr(self, name) / elements for name in COUNT_FIELDS}


COUNT_FIELDS = tuple(field.name for field in fields(OperationCounts))


class CountingValue:
    """Element wrapper: equality feeds the comparison counter; any
    integer use (hash arithmetic, table indexing) feeds the access
    counter.  Observable behavior matches the wrapped value."""

    __slots__ = ("raw", "_sink")

    def __init__(self, raw, sink):
        self.raw = raw
        self._sink = sink

    def __eq__(self, other):
        self._sink.element_comparisons += 1
        if isinstance(other, CountingValue):
            other = other.raw
        return self.raw == other

    def __index__(self):
        # table indexing: a character has no index, as on a plain text
        self._sink.element_accesses += 1
        return operator.index(self.raw)

    def symbol_value(self):
        """What a hash reads through ``schemes._val``: ord for a char."""
        self._sink.element_accesses += 1
        return _val(self.raw)

    def __getitem__(self, i):
        # word elements: reading a character is an access
        self._sink.element_accesses += 1
        return self.raw[i]

    def __len__(self):
        return len(self.raw)

    def __hash__(self):
        return hash(self.raw)

    def __repr__(self):
        return f"CountingValue({self.raw!r})"


class CountingSequence:
    """Sequence proxy that classifies reads and wraps elements.

    Random-access reads compare the index with the previous read to
    decide between a big jump and an "other" cursor op; forward
    iteration counts one "other" op per advance.
    """

    __slots__ = ("_seq", "_sink", "_last")

    def __init__(self, seq, sink):
        self._seq = _items(seq)
        self._sink = sink
        self._last = None

    def __len__(self):
        return len(self._seq)

    def __getitem__(self, i):
        sink = self._sink
        last = self._last
        if last is not None and not -1 <= i - last <= 1:
            sink.cursor_big_jumps += 1
        else:
            sink.cursor_other_ops += 1
        self._last = i
        return CountingValue(self._seq[i], sink)

    def __iter__(self):
        sink = self._sink
        for raw in self._seq:
            sink.cursor_other_ops += 1
            yield CountingValue(raw, sink)


def _bind(algorithm, text, scheme):
    # the search a name runs on `text`, with the raw text's default
    # scheme bound: a counting proxy hides the element type the registry
    # keys on
    return resolve_algorithm(algorithm, scheme or default_scheme_for(text))


def run_counted(algorithm, text, pattern, scheme=None):
    """Run one search with counting enabled.

    ``algorithm`` is a name from :data:`seqmatch.search.ALGORITHM_NAMES`
    or a ``(text, pattern) -> SearchOutcome`` callable; ``scheme`` only
    applies to "hal".  Returns ``(outcome, counts)``: the search's own
    outcome, whose position always equals the uncounted run's, and the
    tallies.
    """
    fn = algorithm if callable(algorithm) else _bind(algorithm, text, scheme)
    sink = OperationCounts()
    return fn(CountingSequence(text, sink), pattern), sink
