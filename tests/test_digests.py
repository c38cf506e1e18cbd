"""Byte-identity of CLI output at n=9-12, against tests/digests.json.

The digests were frozen by tests/freeze_digests.py; see there for the
answers and for when to regenerate them.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import freeze_digests

from solvcohom.instances import parse_instance, validate_instance

# Small answers that still reach representatives, the oracle, the
# skewed basis and the issue lists, rerun with assertions stripped.
UNDER_O = [
    "validate example-7-1-generic-trivial^2-jacobi",
    "validate example-7-1-generic(x)heisenberg3-homomorphism",
    "derham --representatives heisenberg3-skewed-adjoint",
    "oracle heisenberg3-skewed-adjoint",
    "dolbeault --representatives example-7-2-pi^3",
    "oracle example-7-1-generic-trivial(x)heisenberg3-trivial",
]


def frozen() -> dict:
    return json.loads(freeze_digests.DIGESTS.read_text())


def test_every_answer_matches_its_frozen_digest():
    assert freeze_digests.digests() == frozen()


def test_the_invalid_products_fail_jacobi_and_the_homomorphism_law_on_several_witnesses():
    # Their validate digests are the only ones that cover an issue list.
    answers = freeze_digests.answers()
    codes = {
        suffix: [i.code for i in validate_instance(parse_instance(answers[answer][0]))]
        for answer in answers
        for _, suffix, _ in freeze_digests.INVALID
        if answer.startswith("validate ") and answer.endswith(suffix)
    }
    assert codes == {
        "-jacobi": ["jacobi"] * 3 + ["conjugation-brackets"],
        "-homomorphism": ["rep-homomorphism"] * 4,
    }


def test_answers_under_python_O_match_their_frozen_digests():
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    done = subprocess.run(
        [sys.executable, "-O", str(tests / "freeze_digests.py"), "--print", *UNDER_O],
        capture_output=True, text=True, env=env, check=True,
    )
    want = frozen()
    assert json.loads(done.stdout) == {answer: want[answer] for answer in UNDER_O}
