"""What serving processes import: the standard library and only the
``repro`` modules that serving calls.

Every ``runner serve`` child pays for its imports at each start (compiling
them too, where bytecode is not cached), so a third-party import anywhere
on the serving path, or a package ``__init__`` that eagerly loads the
experiment registry, the framework zoo, the HTTP admin endpoints or the
solver stack, shows up in every server's start-up time and memory.  The
first probe pins the third-party set (none: numpy loads with the solver,
on the first solve); the others start real servers under ``-X
importtime`` and pin which modules they load.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Callable

import pytest

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

#: The solver stack: a server loads it (and numpy) on its first solve, so
#: one that has only answered from its store has loaded none of it.
SOLVER_STACK = (
    "numpy", *(f"repro.core.{name}" for name in (
        "benchmarker", "wr", "tensor_solve", "sweep", "wd", "ilp", "mckp",
        "pareto", "optimizer", "handle")),
    "repro.cudnn.perfmodel", "repro.cudnn.api", "repro.cudnn.workspace",
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def test_serving_imports_no_third_party_module():
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=_env(), capture_output=True,
        text=True, check=True, timeout=120,
    )
    third_party = set(json.loads(out.stdout.strip().splitlines()[-1]))
    assert third_party == set(), sorted(third_party)


_LAZY_PROBE = """
import importlib, json, sys
import repro.core, repro.cudnn
out = {"loaded": sorted(m for m in sys.modules
                        if m.startswith(("repro.core.", "repro.cudnn.")))}
for package in (repro.core, repro.cudnn):
    table = package._SUBMODULE
    out[package.__name__] = [sorted(table) == package.__all__, all(
        getattr(package, name) is getattr(importlib.import_module(
            f"{package.__name__}.{table[name]}"), name)
        for name in package.__all__)]
print(json.dumps(out))
"""


def test_package_names_load_their_submodule_on_first_access():
    """``import repro.core`` / ``repro.cudnn`` load no submodule, and every
    name in ``__all__`` resolves, through the one name table, to the
    object its submodule defines."""
    out = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE], env=_env(), capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout) == {
        "loaded": [], "repro.core": [True, True], "repro.cudnn": [True, True]}


def _imported(log: Path) -> set:
    """Modules an ``-X importtime`` log names so far."""
    # "import time: <self us> | <cumulative us> | <indented module name>"
    return {
        line.rpartition("|")[2].strip()
        for line in log.read_text().splitlines()
        if line.startswith("import time:") and "|" in line
    }


def _server_modules(
    tmp_path: Path, *extra: str,
    while_serving: "Callable[[str, int, Path], None] | None" = None,
) -> set:
    """Modules a ``serve --listen`` child has imported by the time it exits.

    ``while_serving(host, port, log)``, when given, runs once the server
    is serving and before it is stopped, with the import log so far.
    """
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
            if while_serving is not None:
                host, port = re.search(r"on ([\d.]+):(\d+);", line).groups()
                while_serving(host, int(port), log)
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60)
            assert proc.returncode == 0
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return _imported(log)


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


def _loaded_solver(modules: set) -> list:
    return [name for name in SOLVER_STACK if _loaded(modules, name)]


@pytest.fixture(scope="module")
def warm_snapshot(tmp_path_factory) -> tuple:
    """A snapshot with stored plans and bench rows, the requests it answers,
    and one request it does not hold, with that request's exact plan."""
    from repro.core.benchmarker import benchmark_kernel
    from repro.core.cache import BenchmarkCache
    from repro.core.wr import optimize_from_benchmark
    from repro.cudnn.descriptors import ConvGeometry
    from repro.cudnn.device import Gpu
    from repro.cudnn.enums import ConvType
    from repro.cudnn.handle import CudnnHandle, ExecMode
    from repro.persistence import save_snapshot, snapshot_service
    from repro.service import PlanRequest, PlanService
    from repro.units import MIB

    def request(n: int, limit_mib: int) -> PlanRequest:
        geometry = ConvGeometry(ConvType.FORWARD, n, 64, 27, 27, 192, 5, 5,
                                2, 2)
        return PlanRequest(kernel=f"conv2-b{n}", geometry=geometry,
                           workspace_limit=limit_mib * MIB)

    stored = [request(32, 8), request(32, 64)]
    miss = request(64, 8)
    with PlanService("p100-sxm2", workers=1) as service:
        for plan in stored:
            service.request(plan)
        document = snapshot_service(service)
    exact = optimize_from_benchmark(benchmark_kernel(
        CudnnHandle(gpu=Gpu.create("p100-sxm2"), mode=ExecMode.TIMING),
        miss.geometry, miss.policy, cache=BenchmarkCache(),
    ), miss.workspace_limit)
    path = tmp_path_factory.mktemp("warm") / "snapshot.json"
    save_snapshot(path, document)
    assert document["bench"]["benchmarks"]  # the server loads bench rows
    return path, stored, miss, exact


def _warm_server(
    tmp_path: Path, warm_snapshot: tuple, *extra: str, solve: bool = True,
) -> dict:
    """Serve the warm snapshot: one hit, ``ping`` and ``stats``, then (with
    ``solve``) one miss.  Returns the modules loaded at each step, the
    answers and the snapshot the server saved on its way out."""
    from repro.wire import PlanClient

    path, stored, miss, _ = warm_snapshot
    store = tmp_path / "plans.json"
    store.write_bytes(path.read_bytes())
    seen: dict = {}

    def exchange(host: str, port: int, log: Path) -> None:
        with PlanClient(host, port, timeout_s=60.0) as client:
            seen["hit"] = client.plan(stored[0])
            client.ping()
            seen["stats"] = client.stats()
            seen["warm"] = _imported(log)
            if solve:
                seen["miss"] = client.plan(miss)
                seen["solved"] = _imported(log)

    seen["exit"] = _server_modules(tmp_path, *extra, while_serving=exchange)
    seen["saved"] = store.read_bytes()
    return seen


def test_warm_server_loads_no_solver_until_a_miss(tmp_path, warm_snapshot):
    """A warm server that has only answered from its store has loaded
    neither numpy nor the solver stack; its first miss loads them and
    returns the exact plan."""
    _, _, _, exact = warm_snapshot
    seen = _warm_server(tmp_path, warm_snapshot)
    assert seen["hit"].source == "cached"
    assert seen["stats"]["delta"] == dict.fromkeys(seen["stats"]["delta"], 0)
    assert _loaded_solver(seen["warm"]) == []
    assert seen["miss"].source == "fresh"
    assert seen["miss"].configuration == exact
    assert {"numpy", "repro.core.wr"} <= seen["solved"]


@pytest.mark.parametrize("shards", [1, 2])
def test_warm_server_saves_without_the_solver(tmp_path, warm_snapshot, shards):
    """Serving only hits, then saving the store on shutdown, loads no part
    of the solver stack, and the server saves the snapshot it loaded (a
    lone server byte for byte) from bench rows it never packed."""
    path = warm_snapshot[0]
    seen = _warm_server(tmp_path, warm_snapshot, "--shards", str(shards),
                        solve=False)
    assert seen["hit"].source == "cached"
    assert _loaded_solver(seen["exit"]) == []
    if shards == 1:
        assert seen["saved"] == path.read_bytes()
    else:  # a cluster also stamps its shard layout into the meta
        assert {**json.loads(seen["saved"]), "meta": {}} == json.loads(
            path.read_bytes())


def test_warm_cluster_server_loads_no_solver_until_a_miss(
        tmp_path, warm_snapshot):
    _, _, _, exact = warm_snapshot
    seen = _warm_server(tmp_path, warm_snapshot, "--shards", "2")
    assert seen["hit"].source == "cached"
    assert _loaded_solver(seen["warm"]) == []
    assert seen["miss"].configuration == exact
    assert {"numpy", "repro.core.wr"} <= seen["solved"]
