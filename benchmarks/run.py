"""Benchmark of the ``mzv`` command line.

Each workload is a fixed list of ``mzv`` commands from the paper's results.
They run one after another, each in a fresh process, as a user runs them:
every run pays the interpreter start, ``import mzv`` and cold caches.  Every
command's exit code and text stdout is compared byte for byte with the output
written in ``expected.py``.

    python3 benchmarks/run.py --workload rank_table --seed 1 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all --seconds 60    # every workload, one table
    python3 benchmarks/run.py --self-check                    # the benchmark's own test

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the commands once untraced and then under ``tracer.py``
and reports the per-layer metrics (the spans go to ``.bench_traces/``).
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The inputs are the paper's fixed enumerations,
so the seed only orders the commands within each pass.  See ``README.md``
for why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

import expected
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACES = ROOT / ".bench_traces"

# A whole run, trace mode included, must end within 180 s.
DEADLINE_S = 170.0
# setup_s probes, half before and half after the passes, so that one run's
# median spans the machine's state over the whole run.
SETUP_PROBES = 12


class Command:
    def __init__(self, args, want):
        self.args = list(args)
        self.want = want  # (exit code, stdout)

    def __repr__(self):
        return "mzv " + " ".join(self.args)


SETUP = Command(["dual", "(4,1,1)"], expected.dual_411())

WORKLOADS = {
    "rank_table": [Command(["rank-table", "--k-max", "10"], expected.rank_table(10))],
    # membership (duality, ohno), numeric and identities (identities, theorem310)
    "verify": [
        Command(["verify", "duality", "--weight", "7"], expected.duality(7)),
        Command(["verify", "ohno", "--weight", "8"], expected.ohno(8)),
        Command(["verify", "numeric", "--pairs-up-to", "5", "--truncation", "1000000"],
                expected.numeric(5)),
        Command(["verify", "identities", "--weight", "8"], expected.identities(8)),
        Command(["verify", "theorem310", "--weight", "6"], expected.theorem310(6)),
    ],
}

# Small versions of every workload's commands, for --self-check.
SMALL = [
    Command(["rank-table", "--k-max", "6", "--exact-up-to", "5"], expected.rank_table(6, 5)),
    Command(["verify", "duality", "--weight", "4"], expected.duality(4)),
    Command(["verify", "ohno", "--weight", "5"], expected.ohno(5)),
    Command(["verify", "numeric", "--pairs-up-to", "3", "--truncation", "10000"],
            expected.numeric(3)),
    Command(["verify", "identities", "--weight", "4"], expected.identities(4)),
    Command(["verify", "theorem310", "--weight", "3"], expected.theorem310(3)),
]

# Per-layer metrics.  Times are the spans' total, counting a span nested in a
# span of the same name once; calls count spans.
SPAN_TIMES = {
    "relations.kawashima_basis_s": ["relations.kawashima_basis"],
    "relations.ohno_relations_s": ["relations.ohno_relations"],
    "indices.refine_s": ["indices.refine"],
    "indices.coarsen_s": ["indices.coarsen"],
    "indices.coarsen_inv_s": ["indices.coarsen_inv"],
    "indices.refine_inv_s": ["indices.refine_inv"],
    "indices.dual_s": ["indices.dual"],
    "products.stuffle_s": ["products.stuffle"],
    "products.stuffle_via_matrices_s": ["products.stuffle_via_matrices"],
    "qlinalg.build_s": ["qlinalg.build"],
    "qlinalg.rank_s": ["qlinalg.rank"],
    "qlinalg.modular_rank_s": ["qlinalg.modular_rank"],
    "qlinalg.echelon_s": ["qlinalg.echelon"],
    "qlinalg.member_s": ["qlinalg.member"],
    "ohno.ohno_u_s": ["ohno.ohno_u"],
    "ohno.verify_shift_s": ["ohno.verify_shift_factorization", "ohno.verify_alternating_shift_sum"],
    "harmonic.seq_s_s": ["harmonic.seq_s"],
    "harmonic.seq_s2_s": ["harmonic.seq_s2"],
    "numeric.zeta_strict_s": ["numeric.zeta_strict"],
}
SPAN_CALLS = {
    "indices.refine_calls": ["indices.refine"],
    "qlinalg.member_calls": ["qlinalg.echelon", "qlinalg.member"],
    "numeric.zeta_calls": ["numeric.zeta_strict"],
}
# Counts the tracer read from returned objects.
OBJECT_COUNTS = [
    "relations.rows", "relations.nnz", "qlinalg.nrows", "qlinalg.ncols", "qlinalg.nnz",
    "numeric.kernel_elems",
]
CACHE_COUNTS = {
    "products.stuffle_cache_hits": ("stuffle", "hits"),
    "products.stuffle_cache_misses": ("stuffle", "misses"),
    "ohno.pair_cache_hits": ("ohno_pair", "hits"),
    "harmonic.chain_cache_hits": ("chain", "hits"),
    "harmonic.chain_cache_misses": ("chain", "misses"),
    "numeric.partials_cache_misses": ("partials", "misses"),
}


class Tally:
    """Commands attempted and commands whose exit code or stdout was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def matches(cmd: Command, code, stdout: str) -> bool:
    return (code, stdout) == cmd.want


class Process:
    """One finished child: exit code (None on timeout), output and usage."""

    def __init__(self, argv, env, timeout):
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        chunks = {child.stdout: [], child.stderr: []}
        timed_out = False
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - time.perf_counter()
                if left <= 0:
                    child.kill()
                    timed_out = True
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        # wait4 gives this child's own max RSS, unlike RUSAGE_CHILDREN
        _, status, usage = os.wait4(child.pid, 0)
        self.wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        child.stdout.close()
        child.stderr.close()
        self.code = None if timed_out else child.returncode
        self.stdout = b"".join(chunks[child.stdout]).decode("utf-8", "replace")
        self.stderr = b"".join(chunks[child.stderr]).decode("utf-8", "replace")
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


class Runner:
    """Launches checked ``mzv`` commands against one deadline."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.t0 = time.perf_counter()
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("MZV_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t0)

    def run(self, cmd: Command, traced: bool = False):
        """Returns (Process, trace payload or None); records the verdict."""
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py")] + cmd.args
        else:
            argv = [sys.executable, "-m", "mzv.cli"] + cmd.args
        proc = Process(argv, self.env, max(self.left(), 1.0))
        code, stdout, payload = proc.code, proc.stdout, None
        if traced and proc.code == 0:
            payload = json.loads(proc.stdout)
            code, stdout = payload["exit"], payload["stdout"]
        why = "%r%s: exit %s%s" % (cmd, " (traced)" if traced else "", code,
                                   "\n" + proc.stderr.strip() if proc.stderr.strip() else "")
        self.tally.record(proc.code is not None and matches(cmd, code, stdout), why)
        return proc, payload

    def iteration(self, commands, traced=False):
        """All commands once; wall from the first launch to the last exit."""
        t = time.perf_counter()
        procs, payloads = [], []
        for cmd in commands:
            proc, payload = self.run(cmd, traced)
            procs.append(proc)
            payloads.append(payload)
            if proc.code is None:
                break
        wall = time.perf_counter() - t
        return {
            "wall": wall,
            "cpu": sum(p.cpu for p in procs),
            "rss_mb": max(p.rss_mb for p in procs),
            "timed_out": any(p.code is None for p in procs),
            "payloads": payloads,
            "argv": [c.args for c in commands],
        }


def iterate(runner: Runner, commands, rng, seconds, traced=False, elapsed_from=None):
    """Passes over the commands (order from ``rng``) for about ``seconds``."""
    start = time.perf_counter() if elapsed_from is None else elapsed_from
    passes = []
    while True:
        order = list(commands)
        rng.shuffle(order)
        one = runner.iteration(order, traced)
        passes.append(one)
        elapsed = time.perf_counter() - start
        if one["timed_out"] or elapsed + one["wall"] > seconds or one["wall"] * 1.2 > runner.left():
            return passes


def span_summary(payload) -> tuple[dict, Counter, dict, dict]:
    """Per-name outermost time and calls, per-layer self and outermost time."""
    names, spans = payload["names"], payload["spans"]
    children = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    outer, calls = defaultdict(float), Counter()
    self_time, layer_outer = defaultdict(float), defaultdict(float)
    for i, (n, start, end, parent) in enumerate(spans):
        name = names[n]
        layer = name.split(".")[0]
        calls[name] += 1
        self_time[layer] += end - start - children[i]
        same_name = same_layer = False
        q = parent
        while q >= 0:
            other = names[spans[q][0]]
            same_name |= other == name
            same_layer |= other.split(".")[0] == layer
            q = spans[q][3]
        if not same_name:
            outer[name] += end - start
        if not same_layer:
            layer_outer[layer] += end - start
    return outer, calls, self_time, layer_outer


def layer_metrics(payloads) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    m = defaultdict(float)
    self_by_layer = defaultdict(float)
    for payload in payloads:
        outer, calls, self_time, layer_outer = span_summary(payload)
        for metric, names in SPAN_TIMES.items():
            m[metric] += sum(outer.get(n, 0.0) for n in names)
        for metric, names in SPAN_CALLS.items():
            m[metric] += sum(calls.get(n, 0) for n in names)
        for metric in OBJECT_COUNTS:
            m[metric] += payload["counts"].get(metric, 0)
        for metric, (cache, field) in CACHE_COUNTS.items():
            m[metric] += payload["caches"][cache][field]
        m["lyndon.s"] += layer_outer.get("lyndon", 0.0)
        m["cli.self_s"] += self_time.get("cli", 0.0)
        for layer, t in self_time.items():
            self_by_layer[layer] += t
    for metric in list(SPAN_CALLS) + OBJECT_COUNTS + list(CACHE_COUNTS):
        m[metric] = int(m[metric])
    return dict(m), dict(self_by_layer)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, values, unit) -> str:
    q1, q3 = quartiles(values)
    return "%-16s mean %.4f %s  median %.4f  q1 %.4f  q3 %.4f  n=%d" % (
        name, statistics.fmean(values), unit, statistics.median(values), q1, q3, len(values))


def run_record(seed) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def run_plain(name, seed, seconds):
    """End-to-end metrics of one workload, tracing off."""
    tally = Tally()
    runner = Runner(tally)
    rng = random.Random(seed)
    runner.run(SETUP)  # writes bytecode caches; not timed
    setup = [runner.run(SETUP)[0].wall for _ in range(SETUP_PROBES // 2)]
    passes = iterate(runner, WORKLOADS[name], rng, seconds)
    setup += [runner.run(SETUP)[0].wall for _ in range(SETUP_PROBES - len(setup))]
    walls = [p["wall"] for p in passes]
    cpus = [p["cpu"] for p in passes]
    lines = [
        describe("wall_s", walls, "s"),
        describe("cpu_s", cpus, "s"),
        describe("setup_s", setup, "s"),
        "%-16s %.1f MB over %d processes" % ("peak_rss_mb", max(p["rss_mb"] for p in passes),
                                          sum(len(p["argv"]) for p in passes)),
        "%-16s %d of %d commands" % ("failed_ratio", tally.failed, tally.attempted),
    ]
    # The mean pass, not the median: this host's speed switches between a fast
    # and a slow state every few seconds, so a median of a few passes lands on
    # either state, while the mean weighs each by the time spent in it.
    values = {
        "wall_s": statistics.fmean(walls),
        "cpu_s": statistics.fmean(cpus),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
        "ok_ratio": 1.0 - tally.failed_ratio,
    }
    return tally, values, lines, [], None


def run_traced(name, seed, seconds):
    """Per-layer metrics of one workload: one untraced pass, then traced passes."""
    tally = Tally()
    runner = Runner(tally)
    rng = random.Random(seed)
    runner.run(SETUP)
    start = time.perf_counter()
    plain = iterate(runner, WORKLOADS[name], rng, 0)[0]
    passes = iterate(runner, WORKLOADS[name], rng, seconds, traced=True, elapsed_from=start)
    measured = [layer_metrics(p["payloads"]) for p in passes
                if all(x is not None for x in p["payloads"]) and not p["timed_out"]]
    lines, problems = [], []
    if not measured:
        return tally, {}, lines, ["no traced pass completed"], None
    counts = [k for k, v in measured[0][0].items() if isinstance(v, int)]
    for metrics, _ in measured[1:]:
        differ = [k for k in counts if metrics[k] != measured[0][0][k]]
        if differ:
            problems.append("counts differ between traced passes: %s" % ", ".join(differ))
    values = {}
    for key in measured[0][0]:
        series = [m[key] for m, _ in measured]
        values[key] = series[0] if key in counts else statistics.median(series)
    traced_walls = [p["wall"] for p in passes]
    values["trace_overhead_s"] = statistics.median(traced_walls) - plain["wall"]
    lines.append("untraced pass %.3f s; traced passes %s s" % (
        plain["wall"], ", ".join("%.3f" % w for w in traced_walls)))
    self_line = ", ".join("%s %.3f" % kv for kv in sorted(
        measured[0][1].items(), key=lambda kv: -kv[1]))
    lines.append("self time by layer (first traced pass, s): " + self_line)
    for args, payload in zip(passes[0]["argv"], passes[0]["payloads"]):
        if payload is not None and len(passes[0]["argv"]) > 1:
            self_time = span_summary(payload)[2]
            lines.append("  mzv %s: %s" % (" ".join(args), ", ".join("%s %.3f" % kv for kv in sorted(
                self_time.items(), key=lambda kv: -kv[1])[:3])))
    missing = sorted({m for p in passes for x in p["payloads"] if x for m in x["missing"]})
    if missing:
        lines.append("hooks not found in this version: " + "; ".join(missing))
    trace = {"workload": name, "passes": [
        {"argv": p["argv"], "wall": p["wall"], "commands": p["payloads"]} for p in passes]}
    return tally, values, lines, problems, trace


def run_workload(name, seed, seconds, trace, spec):
    record = run_record(seed)
    print("run record: " + json.dumps(record, sort_keys=True))
    run = run_traced if trace else run_plain
    tally, values, lines, problems, spans = run(name, seed, seconds)
    if spans is not None:
        TRACES.mkdir(exist_ok=True)
        path = TRACES / ("%s-seed%d.json" % (name, seed))
        path.write_text(json.dumps(dict(spans, record=record)))
        lines.append("spans written to %s" % path.relative_to(ROOT))
    for line in lines + problems:
        print("%s: %s" % (name, line))
    for err in tally.errors:
        print("%s: FAILED %s" % (name, err))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    lost = [m["name"] for m in wanted if m["name"] not in values]
    if lost:
        problems.append("metrics not measured: " + ", ".join(lost))
        print("%s: %s" % (name, problems[-1]))
    correct = tally.failed == 0 and not problems
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def self_check(spec) -> int:
    """Comparator and tracer on small inputs; exit 0 when every check holds."""
    problems = []
    tally = Tally()
    runner = Runner(tally)
    cmd = SMALL[0]
    proc, _ = runner.run(cmd)
    if tally.failed:
        problems.append("rank-table --k-max 6 did not match: %s" % tally.errors)
    row = "%3d %8d %8d %8d" % (6, 29, 23, 23)
    wrong = proc.stdout.replace(row, "%3d %8d %8d %8d" % (6, 29, 23, 24))
    if wrong == proc.stdout:
        problems.append("could not plant a wrong rank line")
    tally.record(matches(cmd, proc.code, wrong), "planted wrong rank line")
    if (tally.attempted, tally.failed, tally.failed_ratio) != (2, 1, 0.5):
        problems.append("a wrong rank line was not counted: %d of %d failed" % (
            tally.failed, tally.attempted))
    if matches(cmd, 1, proc.stdout):
        problems.append("a wrong exit code was not counted")

    runs = []
    for _ in range(2):
        tally = Tally()
        runner = Runner(tally)
        p = runner.iteration(SMALL, traced=True)
        if tally.failed:
            problems.append("traced small commands failed: %s" % tally.errors)
            break
        runs.append((layer_metrics(p["payloads"])[0], p["payloads"]))
    if len(runs) == 2:
        (first, payloads), (second, _) = runs
        counts = [k for k, v in first.items() if isinstance(v, int)]
        differ = [k for k in counts if first[k] != second[k]]
        if differ:
            problems.append("counts differ between two traced runs: %s" % differ)
        names = {m["name"] for m in spec["per_layer"]} - {"trace_overhead_s"}
        if names != set(first):
            problems.append("per-layer metrics and BENCHMARK.json disagree: %s" % sorted(
                names.symmetric_difference(first)))
        missing = sorted({m for x in payloads for m in x["missing"]})
        if missing:
            problems.append("tracer hooks not found: %s" % missing)
        seen = {name for x in payloads for name in x["names"]}
        hooks = {n for n, _ in tracer.FUNCTIONS} | {n for n, _ in tracer.METHODS}
        hooks |= {"qlinalg.echelon", "cli.main"}
        if hooks - seen:
            problems.append("hooks that never fired: %s" % sorted(hooks - seen))
        print("self-check counts: " + json.dumps({k: first[k] for k in sorted(counts)}))
    for p in problems:
        print("self-check FAILED: %s" % p)
    if not problems:
        print("self-check ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mzv" / "cli.py").is_file() or not spec_path.is_file():
        print("run.py: no mzv source tree (src/mzv) or BENCHMARK.json under %s" % ROOT,
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.self_check:
        return self_check(spec)
    if args.workload is None:
        p.error("--workload is required")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, args.trace, spec)
        print(json.dumps(result, sort_keys=True))
        return 0
    results = {w: run_workload(w, args.seed, seconds, args.trace, spec) for w in WORKLOADS}
    for w, r in results.items():
        for metric, v in r["metrics"].items():
            print("%-12s %-32s %12.6g %s" % (w, metric, v["value"], v["unit"]))
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
