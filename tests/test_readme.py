"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    a_hat, n_queries, depth, width = capsys.readouterr().out.split()
    assert 0.0 <= float(a_hat) <= 1.0
    assert (int(n_queries), int(depth), int(width)) > (0, 0, 0)
