"""The README's quick tour runs as written and gives its commented values."""

import math
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs_and_gives_its_commented_values():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    # every commented value is checked below; a new one needs a check
    assert dict(re.findall(r"^(\w+) = .*#\s*(.+)$", code, re.M)) == {
        "ab": "a @ b = [[2, 1], [4, 3]]",
        "sd": "sigma = [1/sqrt2, 1/sqrt2]",
        "s": "ln 2",
        "back": "equals ghz",
        "n_models": "4",
        "n_nodes": "2, the clauses: x2, x3 summed in them",
        "k": "6",
    }
    ns = {}
    exec(code, ns)
    assert ns["ab"].data.tolist() == [[2, 1], [4, 3]]
    np.testing.assert_allclose(ns["sd"].sigma, [1 / math.sqrt(2)] * 2)
    assert math.isclose(ns["s"], math.log(2))
    np.testing.assert_allclose(ns["back"].data, ns["ghz"].data, atol=1e-12)
    assert ns["n_models"] == 4
    assert list(ns["net"].nodes) == [("clause", 0), ("clause", 1)]
    assert ns["k"] == 6
