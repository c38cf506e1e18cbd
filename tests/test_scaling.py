"""Scaling guards: three products, each run in a process of its own.

example-7-2-pi^5 is the five-fold Künneth product of a shipped
Dolbeault instance, built by bench/products.py (loaded by path and only
read, as test_bench_spans.py loads bench/spans.py). Its selected complex
has kernels of up to 32,767 vectors over 6,435 columns in one degree, so
dense kernel vectors would take over a GiB; sparse ones take a few MiB.
The same process then chooses a representative for each of its classes.

example-7-2-generic^7 (n = 21) keeps 0.8% of its 2^21 cochains. The
builder keeps tags per subset of the 14 weighted directions and
enumerates only the kept cochains, so it forms no list over every
cochain and no table of every subset: degree_masks is filled for
degrees 0 and 1 only, the oracle's mask_position never, and the peak
stays within a bound of its own.

example-7-1-generic:trivial (x) heisenberg3:trivial^3 runs the oracle on
all 2^15 subsets. Its once-per-instance skeleton holds only the bracket
terms, a few per subset, not one action term per (subset, member).

Each process reads its peak RSS from VmHWM, not ru_maxrss: on Linux a
child's ru_maxrss starts from the high-water mark of the parent it was
forked from, here pytest's.
"""
import json
import subprocess
import sys
import textwrap

from conftest import EXPECTED_DIR, INSTANCE_DIR, load_bench

PEAK_RSS_LIMIT_MIB = 200
N21_PEAK_RSS_LIMIT_MIB = 64
ORACLE_PEAK_RSS_LIMIT_MIB = 50
PEAK = """
with open("/proc/self/status") as status:
    peak = re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1)
"""


def test_dolbeault_on_example_7_2_pi_to_the_fifth(tmp_path):
    products = load_bench("products")
    factor = products.load_factor(INSTANCE_DIR, "example-7-2-pi")
    instance = products.product_instance([factor] * 5, 1, "example-7-2-pi^5")
    path = tmp_path / "product.json"
    path.write_text(products.dumps(instance))
    out = tmp_path / "out.json"
    reps_out = tmp_path / "reps.json"
    factor_betti = json.loads(
        (EXPECTED_DIR / "example-7-2-pi.dolbeault.json").read_text()
    )["betti"]

    # A process of its own, so its peak RSS is these commands' alone. The
    # second command also names a representative for every class.
    script = textwrap.dedent(
        f"""
        import contextlib, io, re
        from solvcohom import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["dolbeault", {str(path)!r}, "--json", {str(out)!r}])
            reps_code = cli.main(
                ["dolbeault", {str(path)!r}, "--representatives", "--json", {str(reps_out)!r}]
            )
        """
    ) + PEAK + "print(code, reps_code, peak)"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, reps_code, peak_kib = map(int, proc.stdout.split())

    assert code == 0 and reps_code == 0
    betti = products.convolve(*[factor_betti] * 5)
    assert json.loads(out.read_text())["betti"] == betti
    reps = json.loads(reps_out.read_text())
    assert reps["betti"] == betti
    assert [len(classes) for classes in reps["representatives"]] == betti
    assert peak_kib < PEAK_RSS_LIMIT_MIB * 1024, f"peak RSS {peak_kib // 1024} MiB"


def test_dolbeault_on_example_7_2_generic_to_the_seventh(tmp_path):
    products = load_bench("products")
    factor = products.load_factor(INSTANCE_DIR, "example-7-2-generic")
    instance = products.product_instance([factor] * 7, 1, "example-7-2-generic^7")
    path = tmp_path / "product.json"
    path.write_text(products.dumps(instance))
    out = tmp_path / "out.json"
    factor_betti = json.loads(
        (EXPECTED_DIR / "example-7-2-generic.dolbeault.json").read_text()
    )["betti"]
    script = textwrap.dedent(
        f"""
        import contextlib, io, re
        from solvcohom import cli, oracle
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["dolbeault", {str(path)!r}, "--json", {str(out)!r}])
        positions = oracle.mask_position.cache_info().currsize
        """
    ) + PEAK + textwrap.dedent(
        """
        # With degrees 0 to 2 now cached, any other entry is a degree above 2.
        from solvcohom.cecomplex import degree_masks
        for p in range(3):
            degree_masks(21, p)
        print(code, positions, degree_masks.cache_info().currsize, peak)
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, positions, masks, peak_kib = map(int, proc.stdout.split())
    assert (code, positions, masks) == (0, 0, 3)
    assert json.loads(out.read_text())["betti"] == products.convolve(*[factor_betti] * 7)
    assert peak_kib < N21_PEAK_RSS_LIMIT_MIB * 1024, f"peak RSS {peak_kib // 1024} MiB"


def test_oracle_on_example_7_1_generic_times_heisenberg3_cubed(tmp_path):
    products = load_bench("products")
    factors = ["example-7-1-generic:trivial"] + ["heisenberg3:trivial"] * 3
    raw = [products.load_factor(INSTANCE_DIR, f) for f in factors]
    path = tmp_path / "product.json"
    path.write_text(products.dumps(products.product_instance(raw, 1, "oracle-n15")))
    script = textwrap.dedent(
        f"""
        import contextlib, io, re
        from solvcohom import cli
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["oracle", {str(path)!r}])
        """
    ) + PEAK + "print(code, peak, stdout.getvalue().splitlines()[-1])"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, peak_kib, last = proc.stdout.strip().split(" ", 2)
    assert (int(code), last) == (0, "result: agree")
    assert int(peak_kib) < ORACLE_PEAK_RSS_LIMIT_MIB * 1024, f"peak RSS {int(peak_kib) // 1024} MiB"
