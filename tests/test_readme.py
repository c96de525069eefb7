"""The README's library quick start runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:Library quick start", "exec"), {})
    # one printed metrics report for CorrLog, then one for the ILR baseline
    assert capsys.readouterr().out.count("MetricsReport(") == 2
