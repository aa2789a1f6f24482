"""Fingerprint of the generated code: did a change alter what runs?

Every hash, window list and skip search is Python source that
``schemes._compiled`` formats and executes.  This script records each
source that function executes, from the import of the package on, while
it runs the searches the benchmark's workloads make:

- ``dispatch_search`` over bytes (the default scheme, BYTE);
- ``search_hal`` over bytes with DNA2..DNA5;
- ``dispatch_search`` and ``search_nhal`` over ``array("H")``.

It prints the number of distinct sources and one sha256 over them,
sorted, so two trees that generate the same code print the same line
whatever order they compile it in.  Run from the repository root:

    python tools/gensrc.py
"""

import builtins
import hashlib
import sys
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main():
    sources = set()
    run = builtins.exec

    def record(source, *args):
        # only the package's one compiler is recorded, not the standard
        # library's generated code (dataclasses, for one)
        if sys._getframe(1).f_globals.get("__name__") == "seqmatch.schemes":
            sources.add(source)
        return run(source, *args)

    builtins.exec = record
    try:
        from seqmatch.schemes import DNA2, DNA3, DNA4, DNA5
        from seqmatch.search import dispatch_search, search_hal, search_nhal
        text = b"acgtacgtaacgtggtcatacgatcgatcgtacgtagctagcatgcatcgatcga"
        pattern = text[-20:]
        assert dispatch_search(text, pattern).found
        for scheme in (DNA2, DNA3, DNA4, DNA5):
            assert search_hal(text, pattern, scheme).found
        wide = array("H", range(0, 60000, 997))
        assert dispatch_search(wide, wide[-6:]).found
        assert search_nhal(wide, wide[-6:]).found
    finally:
        builtins.exec = run
    digest = hashlib.sha256()
    for source in sorted(sources):
        digest.update(source.encode() + b"\0")
    print(f"{len(sources)} sources, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
