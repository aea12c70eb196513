"""What serving processes import: numpy, the standard library, and only the
``repro`` modules that serving calls.

Every ``runner serve`` child pays for its imports at each start (compiling
them too, where bytecode is not cached), so a third-party import anywhere
on the serving path, or a package ``__init__`` that eagerly loads the
experiment registry, the framework zoo or the HTTP admin endpoints, shows
up in every server's start-up time and memory.  The first probe pins the
third-party set; the second starts a real server under ``-X importtime``
and pins which ``repro`` modules it loads.
"""

import json
import os
import signal
import subprocess
import sys
import threading
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

#: Modules a plain ``serve --listen`` never calls into: the numpy kernels
#: run only NUMERIC-mode convolutions, and the soak driver (with the table
#: renderer it prints through) runs only under ``serve --soak``.
NOT_SERVING = (
    "repro.harness.experiments", "repro.frameworks", "repro.memory",
    "repro.parallel", "repro.observability.report", "repro.wire.admin",
    "http.server", "repro.cudnn.kernels", "repro.service.soak",
    "repro.harness.tables",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def test_runtime_imports_only_numpy():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=_env(), capture_output=True,
        text=True, check=True, timeout=120,
    )
    third_party = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert third_party <= {"numpy"}, sorted(third_party)


def _server_modules(tmp_path: Path, *extra: str) -> set:
    """Modules a ``serve --listen`` child has imported once it is serving."""
    log = tmp_path / "importtime.log"
    with open(log, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro.harness.runner",
             "serve", "--listen", "127.0.0.1:0",
             "--store", str(tmp_path / "plans.json"), *extra],
            stdout=subprocess.PIPE, stderr=err, text=True, env=_env(),
        )
        # A server that hangs before serving is killed, ending the read.
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith("[serving"):
                    break
            else:
                raise AssertionError("server exited before serving")
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
            assert proc.returncode == 0
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    # "import time: <self us> | <cumulative us> | <indented module name>"
    return {
        line.rpartition("|")[2].strip()
        for line in log.read_text().splitlines()
        if line.startswith("import time:") and "|" in line
    }


def _loaded(modules: set, name: str) -> bool:
    return any(m == name or m.startswith(name + ".") for m in modules)


def test_server_loads_only_the_serving_stack(tmp_path):
    modules = _server_modules(tmp_path)
    assert "repro.wire.server" in modules  # the probe saw the serving path
    assert [n for n in NOT_SERVING if _loaded(modules, n)] == []


def test_admin_endpoints_load_on_demand(tmp_path):
    modules = _server_modules(tmp_path, "--admin", "127.0.0.1:0")
    assert "repro.wire.admin" in modules
    assert "http.server" in modules


def test_cluster_server_loads_no_framework(tmp_path):
    """``--shards`` adds the cluster router, whose work stealing calls
    ``repro.parallel.scheduler``; the rest of ``repro.parallel``, and the
    framework its data-parallel model reads, stay unloaded."""
    modules = _server_modules(tmp_path, "--shards", "2")
    assert "repro.cluster.service" in modules
    unexpected = [n for n in NOT_SERVING
                  if n != "repro.parallel" and _loaded(modules, n)]
    unexpected += sorted(m for m in modules if m.startswith("repro.parallel.")
                         and m != "repro.parallel.scheduler")
    assert unexpected == []
