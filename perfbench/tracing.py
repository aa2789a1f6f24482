"""In-memory spans recorded around the benchmark's calls into seqmatch.

A span is ``[span_id, parent_id, pass_no, query_id, name, start_ns,
end_ns, scale]``; ``parent_id`` is -1 for a root, and ``scale`` is the
host-speed factor (see ``hostspeed``) current when the span started.
Each pass's spans are reduced to self times when the pass ends.  The
spans of the first ``keep_passes`` passes stay in memory and are written
once, when the run ends; later ones are dropped after the reduction, so
a long run of short calls cannot exhaust memory.
"""

import json
from time import perf_counter_ns

FIELDS = ("span_id", "parent_id", "pass_no", "query_id", "name",
          "start_ns", "end_ns", "scale")


class Tracer:
    def __init__(self, keep_passes):
        self.keep_passes = keep_passes
        self.kept = []
        self.pass_no = 0
        self.scale = 1.0
        self._spans = []
        self._open = []
        self._next_id = 0

    def start(self, name, query_id):
        parent = self._open[-1][0] if self._open else -1
        span = [self._next_id, parent, self.pass_no, query_id, name, 0, 0,
                self.scale]
        self._next_id += 1
        self._open.append(span)
        self._spans.append(span)
        span[5] = perf_counter_ns()

    def end(self):
        self._open.pop()[6] = perf_counter_ns()

    def end_pass(self):
        """Return ``{(query_id, name): scaled self time in ns}`` for the
        pass that ends, and start the next.

        A span's self time is its duration minus that of its direct
        children; children run one after another in this single thread,
        so their durations never overlap.
        """
        own = {s[0]: s[6] - s[5] for s in self._spans}
        for s in self._spans:
            if s[1] >= 0:
                own[s[1]] -= s[6] - s[5]
        self_ns = {(s[3], s[4]): own[s[0]] * s[7] for s in self._spans}
        if self.pass_no < self.keep_passes:
            self.kept.extend(self._spans)
        self._spans = []
        self.pass_no += 1
        return self_ns

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.kept}, fh)
