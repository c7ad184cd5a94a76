"""The examples of README.md run as they are shown."""

import os
import re

from jetschemes import run_script

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme():
    with open(README, encoding="utf-8") as handle:
        return handle.read()


def test_library_example_runs_with_the_stated_counts():
    (code,) = re.findall(r"```python\n(.*?)```", _readme(), re.S)
    scope = {}
    exec(code, scope)
    assert scope["ji"].ring == scope["J"] == scope["g"].ring
    assert str(scope["c1"]) == "y0*x1+x0*y1" and scope["c1"].ring == scope["J"]
    assert len(scope["ji"].generators) == 3
    assert len(scope["rad"].generators) == 10
    assert len(scope["primes"]) == 10


def test_example_session_matches_its_transcript():
    m = re.search(r"\$ jetschemes <<'EOF'\n(.*?)\nEOF\n(.*?)\n\.\.\.\n", _readme(), re.S)
    script, shown = m[1], m[2].splitlines()
    assert run_script(script).splitlines()[:len(shown)] == shown
