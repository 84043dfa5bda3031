"""The benchmark in perfbench/ judges each solve against its own copy of
the residual contract; this test fails when the package's ``RTOL`` and that
copy part.  It only reads perfbench/run.py, as text."""

import ast
from pathlib import Path

from bergerdeck import _direct

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_residual_contract_matches_the_package_rtol():
    tree = ast.parse(RUN.read_text())
    values = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [ast.unparse(target) for target in node.targets]
              == ["RESIDUAL_CONTRACT"]]
    assert len(values) == 1, "perfbench/run.py defines no single RESIDUAL_CONTRACT"
    assert ast.literal_eval(values[0]) == _direct.RTOL
