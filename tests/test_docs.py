"""The README's library example runs, and every name it cites resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import qotto
from qotto.experiments import CSV_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_and_exports_resolve(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md (Library)", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 5
    missing = [name for name in qotto.__all__ if not hasattr(qotto, name)]
    assert missing == []


def test_readme_snake_case_names_resolve():
    # a backticked snake_case name, bare or after a module (`kernels.log_z_and_mean`),
    # is an attribute of that qotto module or of any, or a CSV column
    modules = {"qotto": qotto} | {
        info.name: importlib.import_module(f"qotto.{info.name}")
        for info in pkgutil.iter_modules(qotto.__path__) if not info.name.startswith("_")}
    cited = re.findall(r"`(?:(\w+)\.)?([a-z][a-z0-9]*(?:_[a-z0-9]+)+)`",
                       README.read_text(encoding="utf-8"))
    assert len(cited) >= 10
    stale = [(module, name) for module, name in cited
             if not (hasattr(modules.get(module), name) if module else name in CSV_COLUMNS
                     or any(hasattr(m, name) for m in modules.values()))]
    assert stale == []
