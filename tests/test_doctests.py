import doctest
import re
from pathlib import Path

import seqmatch.search
import seqmatch.tables

README = Path(__file__).resolve().parent.parent / "README.md"


def test_module_doctests():
    for mod in (seqmatch.tables, seqmatch.search):
        failed, attempted = doctest.testmod(mod)
        assert attempted > 0
        assert failed == 0, mod.__name__


def test_readme_library_use_example(tmp_path, monkeypatch):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    log = b"boot ok\nall quiet\nkernel panic at 0x1f\nreboot\n"
    (tmp_path / "big.log").write_bytes(log)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block, namespace)
    assert namespace["dispatched"] == 6
    assert namespace["hashed"] == 400
    assert namespace["streamed"].position == log.find(b"panic")
