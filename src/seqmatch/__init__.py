"""Generic sequence matching with linear worst-case searches.

The searches work over sequences of any element type with a decidable
equality, from bytes and strings to 16-bit symbol arrays and word
lists.  See :mod:`seqmatch.search` for the algorithms,
:mod:`seqmatch.schemes` for the hash schemes that drive the skip loop,
:mod:`seqmatch.counting` for transparent operation counting, and
:mod:`seqmatch.bench` for the timing/counting harnesses behind the
``seqmatch`` command-line tool.
"""

from .bench import BenchReport, BenchRow, run_bench, run_counts
from .corpus import (CORPUS_KINDS, PatternPlan, TestCase, build_pattern_plan,
                     dna_text, english_like_text, load_corpus,
                     parse_test_cases, random16_text, read_test_cases)
from .counting import (CountingSequence, CountingValue, OperationCounts,
                       run_counted)
from .errors import (CorrectnessMismatch, EmptyPattern, SuffixTooLong,
                     TestFileError)
from .schemes import (BYTE, DNA2, DNA3, DNA4, DNA5, MOD256, SCHEMES,
                      WORD_HEAD, ZERO, HashScheme, ShiftSumScheme,
                      WordHeadScheme, default_scheme_for)
from .search import (ALGORITHM_NAMES, ReusableSkipTable, SearchOutcome,
                     dispatch_search, naive_search, resolve_algorithm,
                     search_al, search_hal, search_kmp_basic, search_l,
                     search_nhal, search_sf)
from .tables import SkipTable, compute_next, compute_skip

__version__ = "0.1.0"
