"""The valuation kernel and everything above it import no array library.

The columnar kernel is pure Python by design: its hot use is Algorithm 1's
small bound-query passes, where converting to and from arrays costs more
than it saves, and importing NumPy alone adds about 14 MB of resident
memory (Linux x86-64, CPython 3.11).  A fresh interpreter imports the
package, the engines and the service, runs one batch explanation, and must
not have loaded ``numpy`` — even on a host where it is installed.
"""

import os
import subprocess
import sys

import repro

SCRIPT = """
import sys
import repro, repro.engine, repro.server
from repro.engine import BatchExplainer
from repro.relational import database_from_dict, parse_query

db = database_from_dict({"R": [("a", "b"), ("c", "b"), ("c", "d")],
                         "S": [("b",), ("d",)]})
explanations = BatchExplainer(parse_query("q(x) :- R(x, y), S(y)"),
                              db).explain_all()
assert sorted(explanations) == [("a",), ("c",)], explanations
print(sorted(name for name in sys.modules
             if name == "numpy" or name.startswith("numpy.")))
"""


def test_explaining_imports_no_numpy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            check=True, capture_output=True, text=True)
    assert result.stdout.strip() == "[]"
