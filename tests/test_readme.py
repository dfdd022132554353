"""The README's library tour runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_in_order(capsys):
    """The five Python blocks of "Library tour" run in order in one
    namespace, with nothing defined outside them."""
    tour = README.read_text().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", tour, flags=re.S)
    assert len(blocks) == 5
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["est"].runs == 100_000
    assert capsys.readouterr().out.startswith("alarm at step ")
    decisions = namespace["cd"].fast_member_many(
        namespace["spec"], namespace["fits"], namespace["pis"]
    )
    assert decisions.dtype == np.int8 and decisions.shape == (2,)
