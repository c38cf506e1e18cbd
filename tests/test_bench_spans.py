"""The benchmark's recorders still fit the pipeline they rebind.

bench/spans.py wraps pipeline functions by module attribute (see its
docstring), so renaming or bypassing one of them breaks
`bench/run.py --trace 1` without failing any other test. This runs both
recorders around in-process CLI answers, as the harness does.
"""
from conftest import INSTANCE_DIR, load_bench

import solvcohom.cli

ANSWERS = [
    ["derham", str(INSTANCE_DIR / "example-7-1-generic.json")],
    ["oracle", str(INSTANCE_DIR / "heisenberg3.json")],
]


def _answer_codes():
    # Looked up per call, so the recorders' wrapper of cli.main applies.
    return [solvcohom.cli.main(argv) for argv in ANSWERS]


def test_span_tracer_and_work_counter_wrap_derham_and_oracle(capsys):
    spans = load_bench("spans")
    originals = [getattr(owner, attr) for owner, attr, _ in spans.SPAN_POINTS]

    tracer = spans.SpanTracer()
    with tracer:
        assert _answer_codes() == [0, 0]
    layers = {span[0] for span in tracer.spans}
    assert {
        "cli.main",
        "weights.build",
        "lattice.select",
        "cecomplex.restrict",
        "cecomplex.cohomology",
        "oracle.verify",
        "oracle.sector",
    } <= layers

    counter = spans.WorkCounter()
    with counter:
        assert _answer_codes() == [0, 0]
    counts = counter.counts
    assert counts["ic.cochains"] > 0
    assert counts["ic.tags"] > 0
    assert counts["select.kept"] > 0
    capsys.readouterr()

    assert [getattr(owner, attr) for owner, attr, _ in spans.SPAN_POINTS] == originals


def test_oracle_on_example_7_1_generic_runs_every_sector_through_the_span_points(capsys):
    # 21 tags in 5 orbits: every sector built, one per orbit, is an
    # oracle.sector span, and those 5 sectors plus one complex of all 21
    # blocks, restricted once, are eliminated.
    spans = load_bench("spans")
    tracer = spans.SpanTracer()
    with tracer:
        assert solvcohom.cli.main(["oracle", str(INSTANCE_DIR / "example-7-1-generic.json")]) == 0
    layers = [span[0] for span in tracer.spans]
    assert layers.count("oracle.sector") == 5
    assert layers.count("cecomplex.cohomology") == 6
    assert layers.count("cecomplex.restrict") == 1
    capsys.readouterr()
