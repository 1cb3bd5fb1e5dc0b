"""Benchmark of the prymcert CLI: end-to-end passes and a traced per-layer pass.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 60 --trace 0

A closed loop with one client: each `python -m prymcert.certcli ...`
subprocess starts only after the previous one has exited.  A pass runs every
invocation of the workload once, in an order shuffled by `--seed`; the
inputs themselves are fixed grids and the program's own `--seed` keeps its
default.  Passes repeat until `--seconds` are used up; each time is the sum,
over the invocations, of each invocation's median over the passes.

`--trace 0` reports the end-to-end metrics (tracing off, subprocesses).
`--trace 1` runs one subprocess pass as the reference, then alternates
untraced and traced in-process passes of the same invocations and reports
the per-layer metrics of `spans.py`.  `--workload all` runs every workload
in turn and prefixes each metric with the workload's name.

Every invocation is checked: exit code, verdict kind, `consistent` for the
sampling run, and byte-identical stdout across the repeats of the run (and
between the traced pass and the subprocesses).  A miss counts as a failure
and makes the command exit 1.  The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; details,
provenance and the spans go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_FIRST = 3  # `--version` runs before the first pass ...
SETUP_PER_PASS = 2  # ... and before every pass, so that set-up samples span the run
MIN_PASSES = 3
CPU_LIMIT_S = 120  # per invocation; a runaway child is killed, not waited for


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    exit_code: int
    verdict: str | None  # expected verdict.kind, or None for a sampling report

    @property
    def label(self):
        return " ".join(self.argv)


def _inv(text, exit_code, verdict):
    return Invocation(tuple(text.split()), exit_code, verdict)


DET, PROB = "Deterministic", "Probabilistic"

# Fixed grids; see BENCHMARK.json and perfbench/METRICS.md for why each one.
WORKLOADS = {
    "verify-grid": [
        _inv(f"verify --p {p} --r {r}", 0, DET) for p, r in ((5, 2), (3, 4), (7, 2), (11, 2), (3, 8))
    ],
    "ddf-mix": [
        _inv("verify --p 3 --r 2", 2, PROB),
        _inv("galois --m 7 --mode sample --samples 2000", 2, None),
        *(_inv(f"galois --m {m}", 0, DET) for m in (29, 45, 61)),
    ],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(1)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_output(inv, code, out):
    """Reasons the invocation's result is wrong (empty when it is right)."""
    problems = []
    if code != inv.exit_code:
        problems.append(f"exit {code}, expected {inv.exit_code}")
    try:
        doc = json.loads(out)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if not isinstance(doc, dict):
        return problems + ["stdout is not a JSON object"]
    if inv.verdict is not None:
        kind = doc.get("verdict", {}).get("kind")
        if kind != inv.verdict:
            problems.append(f"verdict {kind!r}, expected {inv.verdict!r}")
    elif doc.get("report", {}).get("consistent") is not True:
        problems.append("sampling report is not consistent")
    return problems


class Gate:
    """Correctness bookkeeping over every checked invocation of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.outputs = {}  # label -> stdout bytes of its first run

    def record(self, inv, code, out, source):
        self.attempted += 1
        problems = check_output(inv, code, out)
        first = self.outputs.setdefault(inv.label, out)
        if out != first:
            problems.append(f"{source} stdout differs from the first run")
        if problems:
            self.failures.append({"invocation": inv.label, "source": source, "problems": problems})

    def sha256(self):
        return {label: hashlib.sha256(out).hexdigest() for label, out in self.outputs.items()}


# ---------------------------------------------------------------------------
# subprocesses
# ---------------------------------------------------------------------------


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(args, cwd):
    """Run the CLI once; returns (exit code, stdout bytes, wall s, cpu s, max rss MB)."""
    env = child_env()
    stdout_path = cwd / "stdout"
    with open(stdout_path, "wb") as out_fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "prymcert.certcli", *args],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out_fh,
            stderr=subprocess.DEVNULL, preexec_fn=_limit_cpu,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, stdout_path.read_bytes(), wall, cpu, usage.ru_maxrss / 1024


def probe(cwd):
    """Where `prymcert` resolves for the children, with interpreter versions."""
    code = (
        "import json, sys, numpy, prymcert.certcli as c; "
        "print(json.dumps({'module': c.__file__, 'python': sys.version.split()[0], "
        "'numpy': numpy.__version__}))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=child_env(), capture_output=True, timeout=120
    )
    if res.returncode != 0:
        fail(f"cannot import prymcert from {SRC}: {res.stderr.decode(errors='replace').strip()}")
    info = json.loads(res.stdout)
    if not Path(info["module"]).resolve().is_relative_to(SRC.resolve()):
        fail(f"prymcert resolves to {info['module']}, outside {SRC}")
    return info


def measure_setup(cwd, repeats):
    """Walls of `--version`: interpreter start plus `import prymcert.certcli`."""
    walls = []
    for _ in range(repeats):
        code, out, wall, _, _ = run_cli(["--version"], cwd)
        if code != 0 or not out.startswith(b"prymcert "):
            fail(f"--version exited {code} with {out[:80]!r}")
        walls.append(wall)
    return walls


def subprocess_passes(invocations, rng, seconds, gate, cwd, min_passes=MIN_PASSES, setup_walls=None):
    """Closed-loop passes until `seconds` are used.

    Returns {invocation label: [(wall s, cpu s, max rss MB) per pass]}.  With
    a `setup_walls` list, set-up samples are taken before each pass into it.
    """
    samples = {inv.label: [] for inv in invocations}
    pass_walls = []
    start = time.perf_counter()
    while len(pass_walls) < min_passes or (
        time.perf_counter() - start + statistics.mean(pass_walls) <= seconds
    ):
        if setup_walls is not None:
            setup_walls += measure_setup(cwd, SETUP_PER_PASS)
        pass_start = time.perf_counter()
        for inv in rng.sample(invocations, len(invocations)):
            code, out, wall, cpu, rss = run_cli(list(inv.argv), cwd)
            gate.record(inv, code, out, "subprocess")
            samples[inv.label].append((wall, cpu, rss))
        pass_walls.append(time.perf_counter() - pass_start)
    return samples


def end_to_end(samples):
    """A median pass: per-invocation medians, summed (wall, cpu) or maxed (rss)."""
    medians = [[statistics.median(col) for col in zip(*runs)] for runs in samples.values()]
    return {
        "wall_s": sum(m[0] for m in medians),
        "cpu_s": sum(m[1] for m in medians),
        "peak_rss_mb": max(m[2] for m in medians),
    }


# ---------------------------------------------------------------------------
# in-process passes
# ---------------------------------------------------------------------------


def import_program():
    sys.path.insert(0, str(SRC))
    import prymcert.certcli  # noqa: F401  (loads every prymcert module)

    if not Path(prymcert.certcli.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"prymcert resolves to {prymcert.certcli.__file__}, outside {SRC}")
    return prymcert.certcli


def inprocess_pass(certcli, order, gate, tracer=None):
    """One pass through `certcli.main`; returns its wall seconds."""
    start = time.perf_counter()
    for index, inv in enumerate(order):
        if tracer is not None:
            tracer.start_invocation(index)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = certcli.main(list(inv.argv))
        except Exception as exc:  # a crash is a failed invocation, not a dead benchmark
            code = f"exception {exc!r}"
        gate.record(inv, code, buf.getvalue().encode(), "traced" if tracer else "in-process")
    return time.perf_counter() - start


def traced_pass(certcli, order, gate):
    tracer = spans.Tracer()
    missing = tracer.install()
    try:
        wall = inprocess_pass(certcli, order, gate, tracer)
    finally:
        tracer.uninstall()
    return wall, tracer.spans, missing


def traced_run(name, invocations, rng, seconds, gate, cwd):
    """Untraced and traced in-process passes in pairs, alternating which goes first."""
    start = time.perf_counter()
    subprocess_passes(invocations, rng, 0, gate, cwd, min_passes=1)  # reference bytes
    certcli = import_program()
    untraced, traced, all_spans = [], [], []
    while not traced or time.perf_counter() - start + untraced[-1] + traced[-1] <= seconds:
        order = rng.sample(invocations, len(invocations))
        if len(traced) % 2:
            wall, pass_spans, missing = traced_pass(certcli, order, gate)
            untraced.append(inprocess_pass(certcli, order, gate))
        else:
            untraced.append(inprocess_pass(certcli, order, gate))
            wall, pass_spans, missing = traced_pass(certcli, order, gate)
        traced.append(wall)
        all_spans.append(pass_spans)
    metrics = spans.median_metrics([spans.pass_metrics(s) for s in all_spans])
    metrics["inproc.untraced_s"] = statistics.median(untraced)
    metrics["inproc.traced_s"] = statistics.median(traced)
    metrics["trace.overhead_ratio"] = metrics["inproc.traced_s"] / metrics["inproc.untraced_s"]
    write_json(OUT / f"spans-{name}.json", {
        "fields": ["name", "start", "end", "parent", "invocation", "attrs"],
        "passes": all_spans,
    })
    return metrics, missing


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def provenance(info):
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=60)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True, timeout=60)
        if head.returncode == 0 and status.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": src_hash.hexdigest(),
        "python": info["python"],
        "numpy": info["numpy"],
        "module": info["module"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def write_json(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def unit_of(metric):
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prymcert" / "certcli.py").is_file():
        fail(f"no prymcert sources under {SRC}")
    cwd = OUT / "cwd"
    cwd.mkdir(parents=True, exist_ok=True)
    load_before = loadavg()
    prov = provenance(probe(cwd))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng = random.Random(args.seed)
    gate = Gate()
    metrics, details = {}, {}

    setup_walls = None if args.trace else measure_setup(cwd, SETUP_FIRST)
    for name in names:
        prefix = f"{name}." if args.workload == "all" else ""
        before = (gate.attempted, len(gate.failures))
        if args.trace:
            layer, details[f"{name}.untraced_functions"] = traced_run(
                name, WORKLOADS[name], rng, args.seconds, gate, cwd
            )
            metrics.update({prefix + k: v for k, v in layer.items()})
        else:
            samples = subprocess_passes(
                WORKLOADS[name], rng, args.seconds, gate, cwd, setup_walls=setup_walls
            )
            details[f"{name}.samples"] = samples
            metrics.update({prefix + k: v for k, v in end_to_end(samples).items()})
        attempted = gate.attempted - before[0]
        details[f"{name}.fail_ratio"] = len(gate.failures[before[1]:]) / attempted
    if setup_walls is not None:
        metrics = {"setup_s": statistics.median(setup_walls), **metrics}
        details["setup_walls_s"] = setup_walls

    failed = len(gate.failures)
    result = {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    write_json(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        "args": vars(args),
        "provenance": prov,
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "output_sha256": gate.sha256(),
        "failures": gate.failures,
        "details": details,
        "result": result,
    })
    for key, value in details.items():
        if key.endswith("fail_ratio"):
            print(f"{key:60s} {value:.6g} ratio")
    for key, entry in result["metrics"].items():
        print(f"{key:60s} {entry['value']:.6g} {entry['unit']}")
    for f in gate.failures:
        print(f"FAILED {f['source']}: {f['invocation']}: {'; '.join(f['problems'])}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
