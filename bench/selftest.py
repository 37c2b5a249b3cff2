"""Self-test of the correctness gate: tampered run artifacts must be caught.

Run from the root of a classim checkout::

    python3 bench/selftest.py

It makes one small mock run with classim, checks that the gate passes it,
then tampers with copies of it in three ways and checks that the gate
fails each one and counts every planned request of the run as failed:

- a flipped ``correct`` field (digest and prediction consistency catch it);
- an edited reply text with the grade left alone (only the digest can);
- a truncated log (the completeness check catches it).

Exits 0 when every tampering is caught.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
from pathlib import Path
from typing import Callable, List

import digests
from workloads import make_corpus


def _flip_correct(lines: List[str]) -> List[str]:
    record = json.loads(lines[0])
    record["correct"] = 1 - record["correct"]
    return [json.dumps(record, ensure_ascii=False) + "\n"] + lines[1:]


def _edit_reply(lines: List[str]) -> List[str]:
    record = json.loads(lines[-1])
    record["raw"] = record["raw"].replace("I", "i", 1)
    return lines[:-1] + [json.dumps(record, ensure_ascii=False) + "\n"]


def _truncate(lines: List[str]) -> List[str]:
    return lines[:-1]


TAMPERINGS: List[Callable[[List[str]], List[str]]] = [_flip_correct, _edit_reply, _truncate]


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "classim" / "__init__.py").is_file():
        print("error: no classim sources at ./src/classim; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import classim

    work = root / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    clean = work / "clean"
    clean.mkdir(parents=True)
    (clean / "corpus.json").write_text(json.dumps(make_corpus(12, random.Random("selftest"))))
    planned = 12 * 20
    runs = (("run", planned),)
    cwd = os.getcwd()
    os.chdir(clean)
    try:
        config = classim.ExperimentConfig(
            corpus_path="corpus.json", n_students=20, mock=True, seed=5
        )
        classim.run_simulate(config, out_dir="run")
        classim.evaluate_run("run")
    finally:
        os.chdir(cwd)

    gate = digests.Gate(runs, None)
    failed, problems = gate.check(clean)
    caught = failed == 0 and not problems
    print(f"clean run passes the gate: {caught}")
    for tamper in TAMPERINGS:
        copy = work / tamper.__name__.strip("_")
        shutil.copytree(clean, copy)
        log = copy / "run" / "responses.jsonl"
        with open(log, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(log, "w", encoding="utf-8") as handle:
            handle.writelines(tamper(lines))
        failed, problems = gate.check(copy)
        ok = failed == planned and bool(problems)
        print(f"{tamper.__name__.strip('_')}: caught={ok} failed={failed}/{planned} "
              f"problems={problems}")
        caught = caught and ok
    shutil.rmtree(work, ignore_errors=True)
    print("selftest passed" if caught else "selftest FAILED")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
