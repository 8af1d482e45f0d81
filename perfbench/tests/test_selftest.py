"""Self-test of the benchmark harness on a tiny pass.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, run=RUN):
    argv = [sys.executable, "-S", str(run), "--workload", "selftest", "--seed", "3", "--seconds", "1"]
    proc = subprocess.run(argv + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(proc, declared):
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {
        line.split()[1]: line.split()[3]
        for line in proc.stdout.splitlines()
        if line.startswith("selftest ") and "(n=" in line
    }
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    return result


def test_end_to_end_run_prints_every_metric_with_its_unit():
    proc = bench("--trace", "0")
    result = assert_metrics(proc, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert "selftest fail_ratio 0.0 ratio" in proc.stdout
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_with_its_unit():
    proc = bench("--trace", "1")
    result = assert_metrics(proc, BENCHMARK["per_layer"])
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # verify oracle --kmax 2 --n 3: powers of 1 and 6 irreps, 13 adjoint weights each.
    assert metrics["lie.irreps"] == 7
    assert metrics["lie.tensor_step.candidates"] == (1 + 1) * 13
    assert metrics["lie.tensor_step.k2.s"] > 0 and metrics["lie.tensor_step.k3.s"] == 0
    assert metrics["cli.stdout_bytes"] == 133 + 65


def copy_of_benchmark(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path / "perfbench" / "run.py"


def test_wrong_digest_raises_fail_ratio(tmp_path):
    run = copy_of_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    digests_file = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(digests_file.read_text())
    digests["commands"]["table euler --max 5 --format csv"]["sha256"] = "0" * 64
    digests_file.write_text(json.dumps(digests))
    for trace in ("0", "1"):
        proc = bench("--trace", trace, cwd=tmp_path, run=run)
        result = result_of(proc)
        assert not result["correct"] and result["failed"] > 0
        ratio = next(
            float(line.split()[2])
            for line in proc.stdout.splitlines()
            if line.startswith("selftest fail_ratio ")
        )
        assert ratio == result["failed"] / result["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench("--trace", "0", cwd=tmp_path, run=copy_of_benchmark(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
