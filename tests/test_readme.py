"""README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(title: str) -> str:
    """The first ```python block under the README heading ``title``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs(capsys):
    namespace = {}
    exec(compile(section_code("Library quickstart"), str(README), "exec"), namespace)
    assert "ErrorReport(" in capsys.readouterr().out
    assert namespace["report"].partition.n == namespace["pair"].x.shape[1]
