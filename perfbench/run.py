"""Benchmark of the adjoint-powers CLI: end-to-end runs and a traced per-layer run.

Usage, from the root of a checkout:

    python3 -S perfbench/run.py --workload oracle --seed 1 --seconds 60 --trace 0
    python3 -S perfbench/run.py --workload all --seed 1 --seconds 60 --trace 1

With ``--trace 0`` every command of the workload runs as a fresh
``python -m adjoint_powers ...`` child, one at a time (a closed loop with
one client), and the run reports the end-to-end metrics.  With
``--trace 1`` the same commands run in process through ``cli.run`` with
the public functions of each layer wrapped in spans, and the run reports
the per-layer metrics.  Every command's exit code and stdout sha256 are
compared against ``digests.json``, captured at the seed commit; a
mismatch counts as a failed command.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``-S`` keeps this process's own memory below that of any
child it measures.  See NOTES.md for the workloads, metrics and known
defects.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import select
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

# The builtin sha256, not hashlib's OpenSSL one: loading OpenSSL lifts this
# process's resident high-water mark above that of the smallest child, and
# on Linux a child spawned with vfork/exec inherits that mark in ru_maxrss.
try:
    from _sha2 import sha256
except ImportError:
    from _sha256 import sha256

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

#: A trivial command: interpreter start, package import and argparse.
SETUP_COMMAND = "coeffs --k 1 --format csv"
SETUP_PER_PASS = 3
IMPORT_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: Every run ends well inside the 180 s the caller allows.
RUN_LIMIT_S = 170.0
#: Oracle reports are small; a larger one is itself a failure.
REPORT_LIMIT = 1 << 20

WORKLOADS = {
    "oracle": [
        # The ROADMAP headline: many irreps (3,583 at k = 10) at a small rank.
        "verify oracle --kmax 10 --n 19",
        # Few irreps (62 in total) but 10,101 adjoint weights per irrep.
        "verify oracle --kmax 4 --n 100 --format json",
    ],
    # No lie code: combinatorics, coefficients, and rendering (three print 12-24 MB).
    "tables": [
        "coeffs --k 200 --format csv",
        "coeffs --upto 300 --format json",
        "table higher --max 400 --format csv",
        "table euler --max 300 --format json",
        "series --k 8 --order 200",
        "verify combinatorics --max 30",
    ],
    # A tiny pass for the benchmark's own self-test; not in BENCHMARK.json.
    "selftest": ["verify oracle --kmax 2 --n 3", "table euler --max 5 --format csv"],
}
MEASURED_WORKLOADS = [name for name in WORKLOADS if name != "selftest"]

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: (module, attribute) wrapped in the traced run -> the metric group it feeds.
#: An attribute bound by ``from ... import`` is wrapped in the module that
#: binds it, so e.g. ``lie.derangement`` counts only the oracle's checks.
TRACED = {
    ("lie", "tensor_with_adjoint"): "lie.tensor_step",
    ("lie", "dynkin_to_stable"): "lie.to_stable",
    ("lie", "extract_stable_blocks"): "lie.extract",
    ("lie", "weyl_dimension"): "lie.checks",
    ("lie", "derangement"): "lie.checks",
    ("lie", "verify_stable_decomposition"): "lie.verify",
    ("coefficients", "coefficient_row"): "coefficients.closed_form",
    ("coefficients", "coefficient"): "coefficients.closed_form",
    ("coefficients", "decomposition_table"): "coefficients.recurrence",
    ("coefficients", "coefficient_by_contraction"): "coefficients.contraction",
    ("combinatorics", "euler_table"): "combinatorics.euler_table",
    ("combinatorics", "higher_derangement_table"): "combinatorics.higher_table",
    ("combinatorics", "higher_derangement"): "combinatorics.higher_table",
    ("combinatorics", "egf_coefficients"): "combinatorics.series",
    ("combinatorics", "derangement_enumeration_oracle"): "combinatorics.enumeration",
    ("cli", "canonical_json"): "serialize.canonical_json",
    ("coefficients", "canonical_json"): "serialize.canonical_json",
    ("cli", "run"): "cli.run",
}
COMPUTE_LAYERS = ("lie.", "coefficients.", "combinatorics.")
MAX_POWER = 10
SPAN_GROUPS = sorted(set(TRACED.values()))

PER_LAYER = {
    **{f"{group}.s": "s" for group in SPAN_GROUPS},
    **{f"lie.tensor_step.k{k}.s": "s" for k in range(1, MAX_POWER + 1)},
    "lie.irreps": "count",
    "lie.tensor_step.candidates": "count",
    "lie.tensor_step.yield": "ratio",
    "cli.render.s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.import.s": "s",
    "trace.overhead_s": "s",
}


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def is_oracle(command: str) -> bool:
    return command.startswith("verify oracle")


def child_env() -> dict:
    """The caller's environment without PYTHON* settings, with the checkout's sources.

    Children then run as a user would (bytecode cached, stdout buffered)
    whatever PYTHONDONTWRITEBYTECODE or PYTHONUNBUFFERED the caller set.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return env


def self_hwm_mb() -> float:
    """This process's own resident high-water mark (VmHWM), in MB.

    Unlike ru_maxrss it excludes what exec inherited from our own parent,
    and it is exactly what a child spawned now would inherit from us.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def spawn(argv: list[str], on_chunk, deadline: float):
    """Run one child with stdout streamed to ``on_chunk``.

    Returns (exit code, wall seconds, child peak RSS in MB); the exit code
    is None if the child overran the deadline and was killed.
    """
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    read_fd, write_fd = os.pipe()
    actions = [
        (os.POSIX_SPAWN_DUP2, write_fd, 1),
        (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
    ]
    started = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    os.close(write_fd)
    killed = False
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                os.kill(pid, signal.SIGKILL)
                killed = True
                break
            size = os.readv(read_fd, [buffer])
            if not size:
                break
            on_chunk(view[:size])
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - started
    code = None if killed else os.waitstatus_to_exitcode(status)
    return code, seconds, usage.ru_maxrss / 1024


class OutputCheck:
    """Streams one command's stdout into sha256 and judges it against the seed digest."""

    def __init__(self, command: str):
        self.command = command
        self.digest = sha256()
        self.bytes = 0
        self.report = bytearray() if is_oracle(command) else None

    def write_bytes(self, chunk: bytes) -> None:
        self.digest.update(chunk)
        self.bytes += len(chunk)
        if self.report is not None and len(self.report) <= REPORT_LIMIT:
            self.report += chunk

    def failure(self, code, expected: dict) -> str:
        """Why the command failed, or '' if it passed."""
        if code is None:
            return "killed at the run deadline"
        if code != expected["exit"]:
            return f"exit {code}, expected {expected['exit']}"
        if self.digest.hexdigest() != expected["sha256"]:
            return "stdout sha256 differs from the seed digest"
        if self.report is not None:
            text = self.report.decode()
            if "--format json" in self.command:
                try:
                    passed = json.loads(text)["passed"] is True
                except (ValueError, KeyError, TypeError):
                    passed = False
            else:
                passed = "result: PASS" in text.splitlines()
            if not passed:
                return "oracle report does not pass"
        return ""


class TextSink(io.TextIOBase):
    """A text stream that keeps what is printed, to be checked after the timed call."""

    def __init__(self):
        self.parts: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, workload: str, digests: dict) -> dict:
    return {
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "irreps_per_power": {
            command: digests["irreps_per_power"][command]
            for command in WORKLOADS[workload]
            if is_oracle(command)
        },
    }


class Tally:
    """Commands and checks attempted and failed in one run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, command: str, reason: str) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{command}: {reason}")


def run_child_command(command, digests, tally, deadline) -> tuple[float, float]:
    """Run one checked command as a child; returns (wall seconds, peak RSS in MB)."""
    check = OutputCheck(command)
    argv = [sys.executable, "-m", "adjoint_powers", *command.split()]
    code, seconds, rss = spawn(argv, check.write_bytes, deadline)
    tally.record(command, check.failure(code, digests["commands"][command]))
    return seconds, rss


def measure_end_to_end(workload, seed, seconds, digests, tally, deadline):
    """Whole passes over the workload, each after a few set-up samples, until the time is spent."""
    rss_seen = []
    run_child_command(SETUP_COMMAND, digests, tally, deadline)  # warm caches, untimed
    order = random.Random(seed)
    commands = list(WORKLOADS[workload])
    setup, passes, pass_rss = [], [], []
    started = time.perf_counter()
    while time.perf_counter() < deadline:
        # Set-up samples are spread over the run: the machine's speed drifts
        # over seconds, and samples taken together would share one drift.
        for _ in range(SETUP_PER_PASS):
            wall, rss = run_child_command(SETUP_COMMAND, digests, tally, deadline)
            setup.append(wall)
            rss_seen.append(rss)
        order.shuffle(commands)
        pass_started = time.perf_counter()
        peak = 0.0
        for command in commands:
            _, rss = run_child_command(command, digests, tally, deadline)
            peak = max(peak, rss)
            rss_seen.append(rss)
        passes.append(time.perf_counter() - pass_started)
        pass_rss.append(peak)
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + median(passes) > seconds:
            break
    # A child's ru_maxrss is at least this process's high-water mark, so a
    # reported peak is the child's own only if it lies above that mark.
    harness_mb = self_hwm_mb()
    if harness_mb >= min(pass_rss):
        tally.record(
            "peak_rss_mb",
            f"harness high-water {harness_mb:.1f} MB is not below the smallest reported "
            f"child peak {min(pass_rss):.1f} MB",
        )
    metrics = {
        "wall_s": (median(passes), len(passes)),
        "setup_s": (median(setup), len(setup)),
        "peak_rss_mb": (median(pass_rss), len(pass_rss)),
    }
    extra = {
        "pass_wall_s": passes,
        "setup_wall_s": setup,
        "pass_peak_rss_mb": pass_rss,
        "harness_hwm_mb": harness_mb,
        "smallest_child_rss_mb": min(rss_seen),
        "smallest_reported_rss_mb": min(pass_rss),
    }
    return metrics, extra


class Tracer:
    """Spans (name, start, end, parent) kept in memory around wrapped layer calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self.stack[-1] if self.stack else None}
            self.spans.append(span)
            self.stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if name == "lie.tensor_with_adjoint":
                span["irreps_in"] = len(args[0])
                span["irreps_out"] = len(result)
                span["rank"] = args[1]
            return result

        return traced


def import_package():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import adjoint_powers
    from adjoint_powers import cli, coefficients, combinatorics, lie

    expected = os.path.join(SRC, "adjoint_powers")
    if os.path.dirname(os.path.abspath(adjoint_powers.__file__)) != expected:
        raise SystemExit(f"imported adjoint_powers from {adjoint_powers.__file__}, not {expected}")
    return {"cli": cli, "coefficients": coefficients, "combinatorics": combinatorics, "lie": lie}


def install(modules, tracer):
    originals = {}
    for module, attr in TRACED:
        original = getattr(modules[module], attr)
        originals[module, attr] = original
        setattr(modules[module], attr, tracer.wrap(f"{module}.{attr}", original))
    return originals


def restore(modules, originals):
    for (module, attr), original in originals.items():
        setattr(modules[module], attr, original)


def group_of(span) -> str:
    module, attr = span["name"].split(".", 1)
    return TRACED[module, attr]


def outermost(spans, index, groups) -> bool:
    """True if no ancestor of spans[index] belongs to one of ``groups``."""
    parent = spans[index]["parent"]
    while parent is not None:
        if any(group_of(spans[parent]).startswith(g) for g in groups):
            return False
        parent = spans[parent]["parent"]
    return True


def duration(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans, first: int, stdout_bytes: int) -> dict:
    """Per-layer values from spans[first:], the spans of one traced pass."""
    values = {f"{group}.s": 0.0 for group in SPAN_GROUPS}
    values.update({f"lie.tensor_step.k{k}.s": 0.0 for k in range(1, MAX_POWER + 1)})
    irreps = candidates = 0
    render = 0.0
    power_of_root: dict[int, int] = {}
    for index in range(first, len(spans)):
        span = spans[index]
        group = group_of(span)
        if outermost(spans, index, (group,)):
            values[f"{group}.s"] += duration(span)
        if group == "cli.run":
            render += duration(span)
        elif group.startswith(COMPUTE_LAYERS) and outermost(spans, index, COMPUTE_LAYERS):
            render -= duration(span)
        if group == "lie.tensor_step":
            root = index
            while spans[root]["parent"] is not None:
                root = spans[root]["parent"]
            power = power_of_root[root] = power_of_root.get(root, 0) + 1
            if power <= MAX_POWER:
                values[f"lie.tensor_step.k{power}.s"] += duration(span)
            rank = span["rank"]
            irreps += span["irreps_out"]
            candidates += span["irreps_in"] * ((rank + 1) * rank + 1)
    values["lie.irreps"] = irreps
    values["lie.tensor_step.candidates"] = candidates
    values["lie.tensor_step.yield"] = irreps / candidates if candidates else 0.0
    values["cli.render.s"] = render
    values["cli.stdout_bytes"] = stdout_bytes
    return values


def irreps_per_power(spans, first: int) -> list[int]:
    return [s["irreps_out"] for s in spans[first:] if s["name"] == "lie.tensor_with_adjoint"]


def in_process_pass(modules, commands, digests, tally) -> tuple[float, int]:
    """Run every command through cli.run; returns (seconds in cli.run, stdout bytes).

    Output is hashed and checked after each call, outside the timed region.
    """
    seconds = 0.0
    total = 0
    for command in commands:
        out = TextSink()
        with redirect_stdout(out), redirect_stderr(TextSink()):
            started = time.perf_counter()
            code = modules["cli"].run(command.split())
            seconds += time.perf_counter() - started
        check = OutputCheck(command)
        for part in out.parts:
            check.write_bytes(part.encode())
        tally.record(command, check.failure(code, digests["commands"][command]))
        total += check.bytes
    return seconds, total


def measure_import(deadline) -> list[float]:
    """Seconds to import adjoint_powers.cli in a fresh interpreter, timed by the child."""
    code = (
        "import time; t = time.perf_counter(); import adjoint_powers.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = bytearray()
        status, _, _ = spawn([sys.executable, "-c", code], out.extend, deadline)
        if status != 0:
            raise SystemExit("importing adjoint_powers.cli failed")
        samples.append(float(out.decode()))
    return samples


def oracle_args(command: str) -> tuple[int, int]:
    words = command.split()
    return int(words[words.index("--kmax") + 1]), int(words[words.index("--n") + 1])


def traced_extraction(modules, tracer, command, digests, tally) -> float:
    """Derived extraction time for one oracle command's (k, n), with tracing installed.

    The duration of ``extract_stable_blocks(kmax, n)`` minus the tensor-step
    and conversion spans inside it.
    """
    k_max, rank = oracle_args(command)
    first = len(tracer.spans)
    modules["lie"].extract_stable_blocks(k_max, rank)
    nested = sum(
        duration(s)
        for s in tracer.spans[first + 1 :]
        if s["name"] in ("lie.tensor_with_adjoint", "lie.dynkin_to_stable")
    )
    counts = irreps_per_power(tracer.spans, first)
    if counts == digests["irreps_per_power"][command]:
        tally.record(command, "")
    else:
        tally.record(command, f"irreps per power {counts} differ from the seed counts")
    return duration(tracer.spans[first]) - nested


def measure_layers(workload, seed, seconds, digests, tally, deadline):
    """Alternate untraced and traced in-process passes; per-layer values from the traced ones."""
    started = time.perf_counter()
    import_samples = measure_import(deadline)
    modules = import_package()
    tracer = Tracer()
    order = random.Random(seed)
    commands = list(WORKLOADS[workload])
    oracles = [command for command in commands if is_oracle(command)]
    plain, traced, per_pass = [], [], []
    while True:
        order.shuffle(commands)
        wall, _ = in_process_pass(modules, commands, digests, tally)
        plain.append(wall)
        pass_started = time.perf_counter()
        originals = install(modules, tracer)
        try:
            first = len(tracer.spans)
            wall, stdout_bytes = in_process_pass(modules, commands, digests, tally)
            values = layer_metrics(tracer.spans, first, stdout_bytes)
            # Each oracle command's extraction, on the same (k, n), once per traced pass.
            values["lie.extract.s"] = sum(
                (traced_extraction(modules, tracer, c, digests, tally) for c in oracles), 0.0
            )
        finally:
            restore(modules, originals)
        traced.append(wall)
        per_pass.append(values)
        elapsed = time.perf_counter() - started
        upcoming = median(plain) + time.perf_counter() - pass_started
        if len(per_pass) >= MIN_TRACED_PASSES and elapsed + upcoming > seconds:
            break
        if time.perf_counter() > deadline:
            break
    values = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
    values["cli.import.s"] = median(import_samples)
    # Paired differences: each traced pass runs right after its untraced twin,
    # so a drift in machine speed mostly cancels.
    values["trace.overhead_s"] = median([t - p for t, p in zip(traced, plain)])
    extra = {
        "plain_pass_wall_s": plain,
        "traced_pass_wall_s": traced,
        "import_s": import_samples,
        "derived": ["lie.extract.s", "cli.render.s", "trace.overhead_s"],
    }
    metrics = {name: (value, len(per_pass)) for name, value in values.items()}
    metrics["cli.import.s"] = (values["cli.import.s"], len(import_samples))
    return metrics, extra, tracer.spans


def write_json(name: str, payload) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


def run_workload(workload, seed, seconds, trace, digests, deadline) -> tuple[Tally, dict]:
    tally = Tally()
    stem = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        metrics, extra, spans = measure_layers(workload, seed, seconds, digests, tally, deadline)
        units = PER_LAYER
        write_json(f"{stem}-spans.json", spans)
    else:
        metrics, extra = measure_end_to_end(workload, seed, seconds, digests, tally, deadline)
        units = END_TO_END
    record = {
        "environment": environment(seed, workload, digests),
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": samples}
            for name, (value, samples) in metrics.items()
        },
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "fail_ratio": len(tally.failures) / tally.attempted,
        "failures": tally.failures,
        **extra,
    }
    write_json(f"{stem}.json", record)
    print(f"# {workload}: {json.dumps(record['environment'], sort_keys=True)}")
    for name in sorted(record["metrics"]):
        metric = record["metrics"][name]
        print(f"{workload} {name} {metric['value']!r} {metric['unit']} (n={metric['samples']})")
    print(f"{workload} fail_ratio {record['fail_ratio']!r} ratio (n={tally.attempted})")
    for failure in tally.failures:
        print(f"{workload} FAILED {failure}")
    return tally, {name: (m["value"], m["unit"]) for name, m in record["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "adjoint_powers", "__main__.py")):
        print(f"error: no adjoint_powers sources under {SRC}", file=sys.stderr)
        return 2
    with open(DIGESTS) as handle:
        digests = json.load(handle)
    workloads = MEASURED_WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        deadline = time.perf_counter() + RUN_LIMIT_S
        tally, values = run_workload(
            workload, args.seed, args.seconds, args.trace, digests, deadline
        )
        attempted += tally.attempted
        failed += len(tally.failures)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
