"""The repository's benchmark: three seeded workloads over the serving stack.

    python3 perfbench/run.py --workload warm-wire --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` repeats the workload untraced,
traced and under the lock sanitizer on the same seed and prints every
per-layer metric.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; any oracle mismatch or drifting
work count exits 1.  See ``perfbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("warm-wire", "cold-start", "refresh-mix")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import common

    module = __import__(args.workload.replace("-", "_"))
    host = common.host_info()
    work_root = ROOT / ".perfbench-work"
    os.makedirs(work_root, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it
    outcome.info.update(host)
    outcome.info.update({"workload": args.workload, "seed": args.seed,
                         "seconds": args.seconds, "trace": args.trace})
    repeated = common.check_counts_repeat(outcome)
    if args.trace:
        wanted = spec["per_layer"]
        outcome.metrics["host.cpus"] = (host["cpus"], "count")
        outcome.metrics["host.affinity_cpus"] = (len(host["affinity"]), "count")
        outcome.metrics["host.python"] = (
            sys.version_info.major + sys.version_info.minor / 100.0, "version")
        outcome.metrics["counts.repeat_ok"] = (int(repeated), "bool")
        units = {m["name"]: m["unit"] for m in wanted}
        for name in module.BYPASSED:
            outcome.metrics.setdefault(name, (0, units[name]))
    else:
        wanted = spec["end_to_end"]
    return common.emit(outcome, wanted)


if __name__ == "__main__":
    sys.exit(main())
