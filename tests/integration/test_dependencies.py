"""``repro`` needs numpy and nothing else at run time.

With networkx made unimportable, the package, its reasoning layer and
the CLI must import, and a disjunctive network must still solve: the
consistency checker solves its order graphs in plain Python.
"""

import subprocess
import sys

SCRIPT = """
import sys
sys.modules["networkx"] = None  # any `import networkx` now fails

import repro
import repro.cardirect.cli
import repro.reasoning
from repro.reasoning import DisjunctiveNetwork

network = DisjunctiveNetwork()
network.constrain("a", "b", "{N, NE}")
network.constrain("b", "c", "{E, SE}")
network.constrain("a", "c", "{N, NE, E}")
report = network.solve()
assert report.solution is not None, report
print("solved")
"""


def test_repro_runs_with_networkx_blocked():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "solved"
