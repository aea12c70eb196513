"""The runtime depends on numpy and the standard library only.

Every serving process imports these packages at start-up, so a third-party
import anywhere under them is paid on each ``runner serve`` start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.harness.runner, repro.wire, repro.persistence
import repro.cluster, repro.service
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - {"repro"})))
"""


def test_runtime_imports_only_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    third_party = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert third_party <= {"numpy"}, sorted(third_party)
