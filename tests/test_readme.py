"""The README's library example runs as written, on a short horizon, its
command lines parse with the command-line parser, and the package names it
cites exist."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import bergerdeck
from bergerdeck.cli import _build_parser

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


def test_command_lines_parse():
    _, found, section = README.read_text().partition("## Command line")
    assert found, "README has no 'Command line' section"
    block = re.search(r"```sh\n(.*?)```", section, re.S)
    assert block, "the 'Command line' section has no sh block"
    lines = [shlex.split(line, comments=True)
             for line in block.group(1).splitlines() if line.strip()]
    assert lines and all(argv[0] == "bergerdeck" for argv in lines)
    for argv in lines:
        args = _build_parser().parse_args(argv[1:])  # parses, runs nothing
        assert args.command == argv[1]


def test_cited_package_names_exist():
    # a backticked dotted name whose first part (after an optional
    # ``bergerdeck.``) is a module of the package, such as
    # `operators.modal_band` or `bergerdeck.energy.lambda1_estimate`
    modules = {info.name for info in pkgutil.iter_modules(bergerdeck.__path__)}
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    cited = []
    for span in re.findall(r"`([A-Za-z_][\w.]*\.\w+)`", prose):
        parts = span.split(".")
        if parts[0] == "bergerdeck":
            parts = parts[1:]
        if parts and parts[0] in modules:
            cited.append(span)
            target = importlib.import_module(f"bergerdeck.{parts[0]}")
            for attribute in parts[1:]:
                assert hasattr(target, attribute), f"README cites missing {span}"
                target = getattr(target, attribute)
    assert cited, "README cites no package name"
