"""Self-check of the benchmark's inputs and answer checking.

    python3 bench/selfcheck.py

Exits 0 when all of these hold, 1 otherwise:
- the same seed gives byte-identical product files, and two seeds give
  different files;
- every generated product passes `solvcohom validate`;
- under both seeds every product answer matches its Künneth reference,
  so both seeds give the same Betti numbers;
- a deliberately wrong reference counts as a failure, for a product
  answer and for an oracle report.
"""
from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from run import PRODUCTS, WORK, prepare, run_pass  # noqa: E402
from solvcohom.cli import main  # noqa: E402


def check(ok: bool, what: str, failures: list[str]):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def inputs(answers) -> dict[str, bytes]:
    return {Path(a.argv[1]).name: Path(a.argv[1]).read_bytes() for a in answers}


def selfcheck(workdir: Path) -> list[str]:
    failures: list[str] = []
    for workload in PRODUCTS:
        one = prepare(workload, 1, workdir / "seed1")
        again = inputs(prepare(workload, 1, workdir / "again"))
        two = prepare(workload, 2, workdir / "seed2")
        check(inputs(one) == again, f"{workload}: seed 1 twice gives identical bytes", failures)
        differ = all(inputs(one)[k] != v for k, v in inputs(two).items())
        check(differ, f"{workload}: seeds 1 and 2 give different files", failures)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            codes = [main(["validate", a.argv[1]]) for a in one + two]
        check(codes == [0] * len(codes), f"{workload}: every product validates", failures)
        for seed, answers in ((1, one), (2, two)):
            _, _, failed = run_pass(answers)
            check(failed == 0, f"{workload}: seed {seed} Betti numbers match the reference", failures)

        wrong = dataclasses.replace(one[0], betti=[one[0].betti[0] + 1] + one[0].betti[1:])
        _, _, failed = run_pass([wrong])
        check(failed == 1, f"{workload}: a wrong Betti reference counts as failed", failures)

    oracle = [a for a in prepare("oracle-shipped", 1, workdir / "oracle")
              if "heisenberg3" in a.argv[1]]
    _, _, failed = run_pass(oracle)
    check(failed == 0, "oracle-shipped: heisenberg3 report matches byte for byte", failures)
    wrong = dataclasses.replace(oracle[0], report=oracle[0].report.replace(b"true", b"false", 1))
    _, _, failed = run_pass([wrong])
    check(failed == 1, "oracle-shipped: a wrong report counts as failed", failures)
    return failures


if __name__ == "__main__":
    workdir = WORK / f"selfcheck-{os.getpid()}"
    try:
        failures = selfcheck(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
