"""Benchmark of the exact pipeline, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each answer is one CLI command run
in-process through `solvcohom.cli.main(... --json OUT)`; answers run one
after another (a closed loop with one client) in a single thread, and
every answer is checked against its reference. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it are the same metrics as a table. The exit
code is 1 if any answer failed and 2 if the checkout lacks the package.

--trace 0 reports the end-to-end metrics. --trace 1 reports per-layer
metrics: one untimed pass that counts work, then plain and traced passes
in turn (see spans.py). Times are wall times scaled to a reference
CPU speed (see SpeedScale). See README.md for the metric table.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INSTANCES = ROOT / "instances"
EXPECTED = INSTANCES / "expected"
WORK = BENCH / ".work"
SETUP_REPEATS = 9
# Seconds the speed kernel takes at the reference speed, and the period of
# the speed samples taken while an answer runs (see SpeedScale).
K_REF = 0.002
SAMPLE_PERIOD = 0.1

SHIPPED = [
    "example-7-1-generic", "example-7-1-pi", "example-7-2-generic",
    "example-7-2-pi", "heisenberg3", "torus-complex-n3",
]

# Künneth products per workload; a factor is "name" (its own module) or
# "name:trivial" (trivial coefficients). Why these: see README.md.
PRODUCTS = {
    "pipeline-generic": [
        ("example-7-1-generic:trivial",) * 2,
        ("example-7-2-generic",) * 4,
        ("example-7-1-generic", "heisenberg3"),
    ],
    "pipeline-pi": [
        ("example-7-1-pi", "heisenberg3"),
        ("example-7-2-pi",) * 3,
        ("heisenberg3",) * 3,
    ],
}
WORKLOADS = ["pipeline-generic", "pipeline-pi", "oracle-shipped"]


@dataclass
class Answer:
    """One CLI command and the reference its JSON report must match."""

    argv: list[str]
    out: Path
    betti: list[int] | None = None  # products: the Künneth convolution
    report: bytes | None = None  # oracle-shipped: the frozen report

    def check(self) -> bool:
        try:
            got = self.out.read_bytes()
            if self.report is not None:
                return got == self.report
            return json.loads(got)["betti"] == self.betti
        except (OSError, ValueError, KeyError, TypeError):
            return False


def factor_betti(spec: str) -> list[int]:
    """Reference Betti numbers of one factor.

    Shipped modules use the frozen report in instances/expected/; a
    trivial-coefficient variant of a non-trivial module uses refs.json,
    frozen by freeze_refs.py after oracle agreement.
    """
    name, _, coefficients = spec.partition(":")
    data = json.loads((INSTANCES / f"{name}.json").read_text())
    if coefficients and data.get("representation") != {"trivial": True}:
        return json.loads((BENCH / "refs.json").read_text())[spec]["betti"]
    return json.loads((EXPECTED / f"{name}.{data['kind']}.json").read_text())["betti"]


def product_name(factors) -> str:
    names = [f.replace(":", "-") for f in factors]
    if len(set(names)) == 1:
        return f"{names[0]}^{len(names)}"
    return "(x)".join(names)


def prepare(workload: str, seed: int, workdir: Path) -> list[Answer]:
    """Write the workload's inputs and load every reference."""
    from products import convolve, dumps, load_factor, product_instance

    workdir.mkdir(parents=True, exist_ok=True)
    answers = []
    if workload == "oracle-shipped":
        for name in SHIPPED:
            out = workdir / f"{name}.oracle.json"
            answers.append(Answer(
                ["oracle", str(INSTANCES / f"{name}.json"), "--json", str(out)],
                out, report=(EXPECTED / f"{name}.oracle.json").read_bytes(),
            ))
    else:
        for factors in PRODUCTS[workload]:
            name = product_name(factors)
            raw = [load_factor(INSTANCES, f) for f in factors]
            instance = product_instance(raw, seed, name)
            path = workdir / f"{name}.json"
            path.write_text(dumps(instance))
            out = workdir / f"{name}.out.json"
            answers.append(Answer(
                [instance["kind"], str(path), "--json", str(out)], out,
                betti=convolve(*(factor_betti(f) for f in factors)),
            ))
    random.Random(seed).shuffle(answers)
    return answers


@functools.cache
def _scan_chunks() -> list[tuple]:
    """64 chunks of 16384 references to one zero: 8 MiB of pointers."""
    return [(Fraction(0),) * 16384 for _ in range(64)]


class SpeedScale:
    """Scales wall times to a reference CPU speed.

    Other tenants change this VM's CPU speed by up to 2x for tens of
    seconds at a time, far more than any change worth detecting. So a
    small fixed kernel is timed five times before and after every measured
    interval, and every SAMPLE_PERIOD seconds inside it from a SIGALRM
    handler. The interval's wall time, less the time spent in those
    samples, is multiplied by K_REF over the median kernel time
    (README.md, Noise).
    """

    def __init__(self):
        self._calls = 0
        self._edge = [self._kernel_seconds() for _ in range(5)]

    def _kernel_seconds(self) -> float:
        """Time of fixed work of the program's kind.

        Fraction arithmetic and dict stores, then zero tests over the next
        chunk of a tuple too large for the inner caches, like the dense
        scans of large matrix rows.
        """
        chunks = _scan_chunks()
        self._calls += 1
        t = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 300):
            acc += Fraction(i % 7 + 1, i % 97 + 1)
            seen[i % 101] = acc
        for x in chunks[self._calls % len(chunks)]:
            if x:
                break
        return time.perf_counter() - t

    @contextlib.contextmanager
    def measure(self):
        """Times the body; the yielded list receives [raw, scaled] seconds."""
        samples, spent, result = list(self._edge), [0.0], []

        def sample(signum, frame):
            samples.append(self._kernel_seconds())
            spent[0] += samples[-1]

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        start = time.perf_counter()
        try:
            yield result
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._edge = [self._kernel_seconds() for _ in range(5)]
            raw = elapsed - spent[0]
            result += [raw, raw * K_REF / statistics.median(samples + self._edge)]


def run_pass(answers: list[Answer]) -> tuple[list[float], list[float], int]:
    """One closed-loop pass: (raw and scaled seconds per answer, failures)."""
    import solvcohom.cli

    raw, scaled, failed = [], [], 0
    scale = SpeedScale()
    with open(os.devnull, "w") as sink:
        for answer in answers:
            answer.out.unlink(missing_ok=True)
            code = None
            with scale.measure() as seconds:
                try:
                    with contextlib.redirect_stdout(sink):
                        # Looked up per call so traced wrappers apply.
                        code = solvcohom.cli.main(answer.argv)
                except Exception:
                    traceback.print_exc()
            raw.append(seconds[0])
            scaled.append(seconds[1])
            ok = code == 0 and answer.check()
            if not ok:
                print(f"FAILED: solvcohom {' '.join(answer.argv)}", file=sys.stderr)
            failed += not ok
    return raw, scaled, failed


def timed_passes(answers, seconds: float):
    """Passes until `seconds` have elapsed, at least one."""
    passes, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        raw, scaled, bad = run_pass(answers)
        passes.append((raw, scaled))
        attempted += len(answers)
        failed += bad
    return passes, attempted, failed


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times (raw, scaled): interpreter, imports, inputs."""
    raw, scaled = [], []
    scale = SpeedScale()
    for _ in range(SETUP_REPEATS):
        with scale.measure() as seconds:
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                 "--workload", workload, "--seed", str(seed)],
                check=True, cwd=ROOT,
            )
        raw.append(seconds[0])
        scaled.append(seconds[1])
    return raw, scaled


def end_to_end(answers, workload, seed, seconds):
    raw_setups, setups = setup_seconds(workload, seed)
    passes, attempted, failed = timed_passes(answers, seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    med = statistics.median
    metrics = {
        "wall_s": (med(sum(scaled) for _, scaled in passes), "s"),
        # The slowest answer by its median across passes: steadier than the
        # median of each pass's maximum, which picks up each pass's noisiest
        # answer.
        "slowest_answer_s": (max(map(med, zip(*(scaled for _, scaled in passes)))), "s"),
        "setup_s": (med(setups), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    notes = {
        "failed_frac": (failed / attempted, "frac"),
        "passes": (len(passes), "count"),
        "raw_wall_s": (med(sum(raw) for raw, _ in passes), "s"),
        "raw_slowest_answer_s": (max(map(med, zip(*(raw for raw, _ in passes)))), "s"),
        "raw_setup_s": (med(raw_setups), "s"),
    }
    return metrics, notes, attempted, failed


def per_layer(answers, workload, seed, seconds):
    from spans import SpanTracer, WorkCounter

    tracer, counter = SpanTracer(), WorkCounter()
    # The counting pass goes first, so the process's lazy caches are warm
    # before either side of the tracing overhead is timed.
    with counter:
        _, _, failed = run_pass(answers)
    untraced, traced, factors, attempted = [], [], [], len(answers)
    start = time.perf_counter()
    # Untraced and traced passes alternate, so a drift in the machine's
    # speed falls on both sides of the tracing overhead.
    while not traced or time.perf_counter() - start < seconds:
        _, scaled, bad = run_pass(answers)
        untraced.append(sum(scaled))
        failed += bad
        tracer.pass_id = len(traced)
        with tracer:
            raw, scaled, bad = run_pass(answers)
        traced.append(sum(scaled))
        # Answer k of the traced passes is the k-th root span.
        factors += [s / r for r, s in zip(raw, scaled)]
        failed += bad
        attempted += 2 * len(answers)

    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK / f"spans-{workload}-seed{seed}.jsonl")
    per_pass = [tracer.layer_times(p, factors) for p in range(len(traced))]

    def med(layer, field):
        return statistics.median(t.get(layer, {}).get(field, 0.0) for t in per_pass)

    c = counter.counts
    metrics = {
        "instances.load_s": (med("instances.load", "total"), "s"),
        "instances.validate_s": (med("instances.validate", "total"), "s"),
        "instances.representation_s": (med("instances.representation", "total"), "s"),
        "weights.infer_s": (med("weights.infer", "total"), "s"),
        "weights.build_s": (med("weights.build", "total"), "s"),
        "lattice.select_s": (med("lattice.select", "self"), "s"),
        "cecomplex.restrict_s": (med("cecomplex.restrict", "total"), "s"),
        "cecomplex.cohomology_self_s": (med("cecomplex.cohomology", "self"), "s"),
        "linalg.rank_kernel_s": (med("linalg.rank_kernel", "total"), "s"),
        "linalg.rank_kernel_calls": (med("linalg.rank_kernel", "count"), "count"),
        "linalg.input_entries": (c["linalg.input_entries"], "count"),
        "linalg.input_nnz": (c["linalg.input_nnz"], "count"),
        "linalg.density": (c["linalg.input_nnz"] / max(c["linalg.input_entries"], 1), "frac"),
        "oracle.sector_build_s": (med("oracle.sector", "self"), "s"),
        "oracle.verify_self_s": (med("oracle.verify", "self"), "s"),
        "oracle.sectors": (med("oracle.sector", "count"), "count"),
        "cli.self_s": (med("cli.main", "self"), "s"),
        "ic.cochains": (c["ic.cochains"], "count"),
        "ic.nnz": (c["ic.nnz"], "count"),
        "ic.tags": (c["ic.tags"], "count"),
        "select.kept_frac": (c["select.kept"] / max(c["select.invariant"], 1), "frac"),
        "scalars.zero_tests": (c["scalars.zero_tests"], "count"),
        "scalars.mults": (c["scalars.mults"], "count"),
        "scalars.adds": (c["scalars.adds"], "count"),
        "scalars.inverses": (c["scalars.inverses"], "count"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    }
    timed = {k: v for k, (v, unit) in metrics.items() if unit == "s" and k != "trace.overhead_s"}
    largest = max(timed, key=timed.get)
    notes = {
        "failed_frac": (failed / attempted, "frac"),
        "untraced_wall_s": (statistics.median(untraced), "s"),
        "traced_wall_s": (statistics.median(traced), "s"),
        "select.invariant_base": (c["select.invariant"], "count"),
        f"largest layer: {largest}": (timed[largest], "s"),
    }
    return metrics, notes, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "solvcohom" / "__init__.py").is_file() or not EXPECTED.is_dir():
        print(f"error: {ROOT} has no src/solvcohom or instances/expected", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    workdir = WORK / f"run-{os.getpid()}"
    try:
        import solvcohom.cli  # noqa: F401  (the first answer needs it)

        answers = prepare(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        run = per_layer if args.trace else end_to_end
        metrics, notes, attempted, failed = run(answers, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"{name:32} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
