"""Record the answer digest of every benchmark operation for seeds 0..15.

Usage (from the root of a checkout):

    python3 chainbench/record_reference.py

Every output must first pass the schema and oracle checks.  The digests go
to ``chainbench/reference.json``; a benchmark run with one of these seeds
counts an operation whose answers differ from them as failed.  Record only
at a commit whose answers are trusted, and never in a change that claims a
performance gain.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import answers
import gen
import run

SEEDS = range(16)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    os.chdir(run.ROOT)
    import chainscope.cli as cli

    schema = json.loads(run.SCHEMA_PATH.read_text(encoding="utf-8"))
    work = run.WORK / "reference"
    reference: dict[str, dict[str, dict[str, str]]] = {}
    for name in gen.WORKLOADS:
        for seed in SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            workload = run.Workload(name, gen.generate(name, seed, work), schema, None)
            digests = {}
            for op, argv in workload.ops:
                data, error = run.call_cli(cli, argv)
                if error is not None or not workload.check(op, argv, data):
                    print(f"{name} seed {seed} {op}: {error or workload.problems}",
                          file=sys.stderr)
                    return 1
                digests[op] = answers.digest(argv[0], json.loads(data))
            reference.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {digests}")
    shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
