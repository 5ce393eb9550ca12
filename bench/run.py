"""superharm benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load comes from one client in a closed loop: each library call (or, for
``cli-cold``, each fresh CLI process) starts when the previous one has
returned and been checked.  Nothing runs concurrently.

A run first sets up (imports, warm-up on inputs drawn apart from the timed
ones, the first timed round), then starts PROBES fresh processes that repeat
the set-up to measure ``setup_s``, then measures whole rounds for at most
``--seconds`` (but at least enough ops for the workload's tail percentile).
Every task's result is checked by an independent route outside the timed
call.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
measures half the time untraced and half traced, and prints the per-layer
metrics plus the tracing overhead.  The last stdout line is the result
object; a full record (versions, task mix, self-time table, failures) goes
to ``.bench_out/results/`` and the spans to ``.bench_out/traces/``.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import corpus  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBES = 3
# Tail percentile per workload: the highest of p99.9, p99, p95, p90, p75 and
# p50 with ten samples above it in a run of --seconds 45 here (20 for the
# two workloads BENCHMARK.json leaves out).  It is fixed per workload, not
# taken from each run's sample count, because the task kinds above a
# percentile change with it, so a run that fits one more round would
# otherwise report a different kind of op.  Every run measures enough ops
# to keep ten above it.
TAIL = {"exact-small": 99.0, "exact-large": 75.0, "numeric": 90.0, "cli-cold": 75.0}

ROUNDS = {
    "exact-small": workloads.exact_small_round,
    "exact-large": workloads.exact_large_round,
    "numeric": workloads.numeric_round,
}
WORKLOADS = sorted(ROUNDS) + ["cli-cold"]


def why(workload: str):
    """The reason the workload was chosen, as BENCHMARK.json states it."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == workload), None)


# -- workload set-up ------------------------------------------------------------


class CliCold:
    """Tasks that each start one CLI process; traced runs go through cli_child."""

    def __init__(self):
        self.golden = corpus.load_golden(HERE / "golden" / "cli_corpus.json")
        self.traced = False
        self.children = []        # per traced call: stats from cli_child
        self.stats_path = OUT / f"cli-stats-{os.getpid()}.json"

    def task(self, entry: corpus.Entry) -> workloads.Task:
        sig = "R^{%s|%d}" % (entry.argv[2], 2 * int(entry.argv[4])) if "--m" in entry.argv else "-"
        return workloads.Task(entry.argv[0], sig, lambda e=entry: self.call(e),
                              lambda out, e=entry: self.check(e, out),
                              {"entry": entry.name, "known_defect": entry in corpus.KNOWN_DEFECTS})

    def round(self, rng: random.Random):
        return [self.task(e) for e in corpus.cli_round(rng)]

    def call(self, entry):
        if not self.traced:
            return corpus.invoke(ROOT, entry.argv)
        prefix = ["-X", "importtime", str(HERE / "cli_child.py"), str(self.stats_path)]
        out = corpus.invoke(ROOT, entry.argv, prefix=prefix)
        with open(self.stats_path) as fh:
            stats = json.load(fh)
        os.unlink(self.stats_path)
        # each child numbers its spans from 0: renumber them run-wide, and
        # give them the call's index as task id
        base, call = sum(len(c["trace"]["spans"]) for c in self.children), len(self.children)
        stats["trace"]["spans"] = [
            (sid + base, name, t0, t1, None if parent is None else parent + base, call)
            for sid, name, t0, t1, parent, _ in stats["trace"]["spans"]]
        stats["wall_s"] = out[3]
        stats["import_scipy_s"] = import_costs(out[2])[1]
        self.children.append(stats)
        return out

    def check(self, entry, out):
        ok, why = corpus.judge(entry, out[0], out[1], self.golden.get(entry.name))
        return ok, ({"why": why} if why else {})


def prepare(name: str, seed: int):
    """Everything before the first timed op: import, warm-up, first round."""
    warm = random.Random(f"{seed}:warm-up")
    if name == "cli-cold":
        wl = CliCold()
        make = wl.round
        wl.call(warm.choice(corpus.CORPUS))
    else:
        sys.path.insert(0, str(SRC))
        wl = workloads.Library()
        if not Path(wl.package.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported superharm from {wl.package.__file__}, not {SRC}")
        make_round = ROUNDS[name]

        def make(rng, small=False):
            return make_round(wl, rng, small)
        for task in make(warm, small=True):
            task.run()
    rng = random.Random(f"{seed}:timed")
    return wl, make, rng, make(rng)


def probe(args, gate, importtime: bool) -> tuple:
    """Wall time of a fresh process from start to the end of its set-up."""
    gate.wait()
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--probe"]
    errpath = OUT / f"probe-{os.getpid()}.err"
    with open(errpath, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True)
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        proc.wait()
        err.seek(0)
        text = err.read()
    errpath.unlink()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{text[-2000:]}")
    return wall, text


def import_costs(stderr: str) -> tuple:
    """(superharm s, scipy s) from ``python -X importtime`` output.

    Lines come in post-order with two spaces of indent per nesting level;
    scipy time is the cumulative time of the outermost scipy imports.
    """
    nodes = []        # (depth, top-level package, cumulative s, scipy root times)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        children = []
        while nodes and nodes[-1][0] > depth:
            children.append(nodes.pop())
        top = name.strip().split(".")[0]
        cum_s = int(cum) / 1e6
        roots = [cum_s] if top == "scipy" else [x for c in children for x in c[3]]
        nodes.append((depth, top, cum_s, roots))
    package = sum(n[2] for n in nodes if n[1] == "superharm")
    return package, sum(x for n in nodes for x in n[3])


# -- measurement ------------------------------------------------------------------


class Gate:
    """Holds the next op back while the machine runs in its slow state.

    On the shared host this was built on, the CPU alternates between its
    normal speed and phases of 1-6 s, making up a third of the time or more,
    in which code runs about 1.6x slower on median (work elsewhere on the
    same cores; CPU time inflates as much as wall time).  Within a slow
    phase single short spins still often run at full speed, so before an op
    (at most every EVERY seconds) the gate times five 1 ms spins and takes
    their median; while that is over SLOW x the lowest median seen, it
    sleeps and tries again, for at most ``budget`` seconds per run in all.
    Time spent waiting is in no metric; the record reports it.
    """

    SLOW = 1.3
    EVERY = 0.1
    SPIN = 35000

    def __init__(self, budget: float):
        self.budget = budget
        self.best = math.inf
        self.waited = 0.0
        self.held = 0
        self.last = -math.inf

    def spin(self) -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(self.SPIN):
            x += i
        return time.perf_counter() - t0

    def wait(self) -> None:
        if time.perf_counter() - self.last < self.EVERY:
            return
        start = time.perf_counter()
        held = False
        while True:
            t = statistics.median(self.spin() for _ in range(5))
            self.best = min(self.best, t)
            if t <= self.SLOW * self.best or self.waited + time.perf_counter() - start >= self.budget:
                break
            held = True
            time.sleep(0.1)
        if held:
            self.held += 1
            self.waited += time.perf_counter() - start
        self.last = time.perf_counter()


def measure(make, rng, seconds, gate, first=None, tr=None, min_ops=1):
    """Run whole rounds until the next one would pass ``seconds``, and at
    least until ``min_ops`` ops have run."""
    records = []
    start = time.perf_counter()
    tasks = first
    while True:
        r0 = time.perf_counter()
        for task in tasks if tasks is not None else make(rng):
            gate.wait()
            if tr is not None:
                tr.task[0] = len(records)
                tr.active[0] = True
            t0 = time.perf_counter()
            try:
                value, error = task.run(), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                value, error = None, exc
            dt = time.perf_counter() - t0
            if tr is not None:
                tr.active[0] = False
            if error is not None:
                ok, info = False, {"why": f"raised {error!r}"}
            else:
                try:
                    ok, info = task.check(value)
                except Exception as exc:  # a check that cannot read the result fails it
                    ok, info = False, {"why": f"check raised {exc!r}"}
            records.append({"kind": task.kind, "sig": task.sig, "s": dt, "ok": bool(ok),
                            **task.info, **info})
        tasks = None
        now = time.perf_counter()
        if len(records) >= min_ops and (now - start) + (now - r0) > seconds:
            return records


def ops_for_tail(p: float) -> int:
    """Fewest samples that leave ten above the p-th percentile."""
    n = 11
    while n - 1 - math.floor(p / 100 * (n - 1)) < 10:
        n += 1
    return n


def tail(latencies, p: float) -> tuple:
    """The p-th percentile, interpolated between order statistics (p50 is
    the median), and the number of samples above it."""
    ordered = sorted(latencies)
    pos = p / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, len(ordered) - 1 - lo


def end_to_end(records, probes, rss_mb, p) -> tuple:
    lat = [r["s"] for r in records]
    value, beyond = tail(lat, p)
    failed = sum(not r["ok"] for r in records)
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "ok_frac": ((len(lat) - failed) / len(lat), "frac"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"percentile": p, "samples": len(lat), "beyond": beyond}


def case_medians(records) -> dict:
    """Median latency per task kind, signature and size (or CLI entry)."""
    cases = {}
    for r in records:
        size = " ".join(f"{k}={r[k]}" for k in ("k", "degree", "entry") if k in r)
        cases.setdefault(" ".join(filter(None, (r["kind"], r["sig"], size))), []).append(r["s"])
    return {case: statistics.median(v) * 1e3 for case, v in sorted(cases.items())}


def unit_of(key: str) -> str:
    if key.endswith("_ms"):
        return "ms"
    if key.endswith("_s"):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("_frac"):
        return "frac"
    if key == "scalar.coeff_bits_max":
        return "bits"
    if key in ("zonal.mehler_residual_max", "schrodinger.level_dev_max"):
        return "abs"
    return "count"


def per_layer(name, wl, tr, untraced, traced, probe_logs) -> tuple:
    if name == "cli-cold":
        snap = tracing.merge(c["trace"] for c in wl.children)
        imports = [c["import_s"] for c in wl.children]
        scipy = [c["import_scipy_s"] for c in wl.children]
        compute = [c["compute_s"] for c in wl.children]
    else:
        snap = tr.snapshot()
        costs = [import_costs(text) for text in probe_logs]
        imports = [c[0] for c in costs]
        scipy = [c[1] for c in costs]
        compute = []
    out = tracing.layer_metrics(snap)
    residuals = [r["residual"] for r in traced if r["kind"].startswith("mehler") and "residual" in r]
    devs = [r["level_dev"] for r in traced if "level_dev" in r]
    out["zonal.mehler_residual_max"] = max(residuals, default=0.0)
    out["schrodinger.level_dev_max"] = max(devs, default=0.0)
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    out["cli.import_scipy_s"] = statistics.median(scipy) if scipy else 0.0
    out["cli.compute_s"] = statistics.fmean(compute) if compute else 0.0
    speed = [len(rs) / sum(r["s"] for r in rs) for rs in (untraced, traced)]
    out["trace.overhead_frac"] = speed[0] / speed[1] - 1.0
    table = tracing.fold(snap)
    if name == "cli-cold":
        startup = sum(c["wall_s"] - c["compute_s"] for c in wl.children)
        table["startup+import"] = {"calls": len(wl.children), "self_s": startup}
    metrics = {key: (value, unit_of(key)) for key, value in out.items()}
    return metrics, table, snap["spans"]


# -- environment record -----------------------------------------------------------


def blas_threads():
    """Threads of the loaded OpenBLAS, read from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "versions": versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "machine": platform.machine(),
    }


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="superharm benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "superharm" / "cli.py").is_file():
        print(f"bench: no superharm sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl, make, rng, first = prepare(args.workload, args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0
    own_setup = time.perf_counter() - _START
    stamp_ns = time.time_ns()

    cli = args.workload == "cli-cold"
    gate = Gate(budget=0.15 * args.seconds)
    probe_runs = [] if (args.trace and cli) else [probe(args, gate, importtime=bool(args.trace))
                                                  for _ in range(PROBES)]
    probes = [p[0] for p in probe_runs]
    spans = []
    if args.trace:
        untraced = measure(make, rng, args.seconds / 2, gate, first)
        tr = None
        if cli:
            wl.traced = True
        else:
            tr = tracing.Tracer()
            tr.install(wl.package)
            tr.start()
        records = measure(make, rng, args.seconds / 2, gate, tr=tr)
        metrics, table, spans = per_layer(args.workload, wl, tr, untraced, records,
                                          [p[1] for p in probe_runs])
        records = untraced + records
        tail_info = None
    else:
        p = TAIL[args.workload]
        records = measure(make, rng, args.seconds, gate, first, min_ops=ops_for_tail(p))
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        metrics, tail_info = end_to_end(records, probes, rss_mb, p)
        table = None

    failures = [r for r in records if not r["ok"]]
    unexpected = [r for r in failures if not r.get("known_defect")]
    record = {
        "stamp": stamp_ns,
        "workload": args.workload,
        "why": why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(),
        "tasks": {"by_kind": dict(Counter(r["kind"] for r in records)),
                  "by_signature": dict(Counter(r["sig"] for r in records)),
                  "median_ms_by_case": case_medians(records)},
        "attempted": len(records),
        "failed": len(failures),
        "known_defect_failures": len(failures) - len(unexpected),
        "failures": failures[:50],
        "tail": tail_info,
        "setup": {"probes_s": probes, "own_s": own_setup},
        "gate": {"waited_s": gate.waited, "held": gate.held, "best_spin_s": gate.best},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "self_time": table,
        "largest_self": max(table, key=lambda k: table[k]["self_s"]) if table else None,
    }
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp_ns}"
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{stamp}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        (OUT / "traces").mkdir(exist_ok=True)
        with open(OUT / "traces" / f"{stamp}.jsonl", "w") as fh:
            for sid, name, start, end, parent, task in spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")

    for r in unexpected[:10]:
        print(f"bench: FAILED {r['kind']} {r['sig']}: {r.get('why', '')}", file=sys.stderr)
    if table:
        for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"bench: self {layer:16s} {row['self_s']:9.4f} s {row['calls']:10d} calls",
                  file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
