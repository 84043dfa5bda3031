"""The README's library example runs as written, on a short horizon."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    _, found, section = README.read_text().partition("## Library use")
    assert found, "README has no 'Library use' section"
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "the 'Library use' section has no python block"
    code = block.group(1)
    # the full 30 s horizon takes minutes; the substitution must hit exactly once
    assert code.count("T=30.0") == 1, "the example no longer runs to T=30.0"
    exec(compile(code.replace("T=30.0", "T=0.05"), str(README), "exec"), {})
    total, dissipated = map(float, capsys.readouterr().out.split())
    assert total > 0.0 and dissipated > 0.0
