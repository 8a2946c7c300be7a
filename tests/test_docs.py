"""The README's library example runs, and every exported name resolves."""

import re
from pathlib import Path

import qotto

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_and_exports_resolve(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md (Library)", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 5
    missing = [name for name in qotto.__all__ if not hasattr(qotto, name)]
    assert missing == []
