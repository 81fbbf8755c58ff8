"""Repository benchmark: one command, three workloads, checked answers.

Usage (from the repository root)::

    python3 janusbench/run.py --workload {cold-table2,warm-api,http-mixed} \
        --seed N --seconds S --trace {0,1}

Each invocation runs the checker's hand-worked self-test, builds the
native solver core (``make native``; not part of any timing), and then
runs ``TRIALS`` trials of the workload, each in a fresh process
(:mod:`workload`) with a fresh cache, ``JANUS_NATIVE=1`` and a fixed
``PYTHONHASHSEED``, measuring ``S / TRIALS`` seconds apiece.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones (from traced trials; one untraced
trial in the same invocation gives ``trace.overhead_pct`` and
``proc.cpu_ms_per_op``).  The line before it carries run details: the
solver ``cores`` tally, host reference-task times and the first few
failure messages.  See ``janusbench/README.md`` for what each metric
means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("cold-table2", "warm-api", "http-mixed")
TRIALS = 3
TRIAL_TIMEOUT_S = 55.0
# End-to-end times are reported for a nominal host on which the
# reference task (refloop.py) takes this long; see README.
NOMINAL_REF_MS = 15.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "miss_p50_ms": "ms",
    "switches_total": "count",
    "peak_rss_mb": "MiB",
}
# per-layer metric -> the span layer it reads: self time per op (ms)
SPAN_MS = {
    "api.parse_ms": "api.parse",
    "api.to_spec_ms": "api.to_spec",
    "api.session_ms": "api.session",
    "api.serialize_ms": "api.serialize",
    "boolf.minimize_ms": "boolf.minimize",
    "engine.fingerprint_ms": "engine.fingerprint",
    "engine.suite_decode_ms": "engine.suite_decode",
    "engine.disk_get_ms": "engine.disk_get",
    "engine.disk_put_ms": "engine.disk_put",
    "core.bounds_ms": "core.bounds",
    "core.ds_ms": "core.ds",
    "core.encode_ms": "core.encode",
    "sat.load_ms": "sat.load",
    "sat.solve_ms": "sat.solve",
    "lattice.verify_ms": "lattice.verify",
    "server.handle_ms": "server.handle",
}
# ... or calls per run
SPAN_CALLS = {
    "boolf.minimize_calls": "boolf.minimize",
    "engine.disk_reads": "engine.disk_get",
    "engine.disk_writes": "engine.disk_put",
    "core.encode_calls": "core.encode",
    "sat.clauses_loaded": "sat.load",
}
# ... or the program's own EngineStats counter, summed per run
ENGINE = {
    "engine.memory_hits": "memory_hits",
    "engine.suite_hits": "suite_hits",
    "core.probes": "solver_calls",
    "sat.propagations": "propagations",
    "sat.conflicts": "conflicts",
}


def per_layer_units() -> dict:
    units = {name: "ms" for name in SPAN_MS}
    units.update({name: "count" for name in SPAN_CALLS})
    units.update({name: "count" for name in ENGINE})
    units.update({
        "engine.suite_hit_ratio": "ratio",
        "server.transport_ms": "ms",
        "proc.cpu_ms_per_op": "ms",
        "host.ref_ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: an observed value."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def build_native() -> None:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "Makefile").is_file():
        raise SystemExit(
            "janusbench: no program here (need src/repro and Makefile at "
            f"{ROOT})"
        )
    build = subprocess.run(
        ["make", "native", f"PYTHON={sys.executable}"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode("utf-8", "replace"))
        raise SystemExit("janusbench: `make native` failed")


def run_trial(args, trial: int, traced: bool, seconds: float, workdir: Path) -> dict:
    out = workdir / f"trial-{trial}.json"
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "JANUS_NATIVE": "1",
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(workdir),
    })
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trial", str(trial), "--seconds", repr(seconds),
        "--trace", "1" if traced else "0",
        "--workdir", str(workdir), "--out", str(out),
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [*cmd, "--spawned-at", repr(spawned)],
        cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"janusbench: trial {trial} ran past {TRIAL_TIMEOUT_S}s")
    finally:
        # The trial stops its own server; this only reaps leftovers of a
        # trial that died.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise SystemExit(f"janusbench: trial {trial} exited with {code}")
    return json.loads(out.read_text())


def host_factor(trial: dict) -> float:
    """Nominal-host seconds per measured second in this trial: the
    nominal reference-task time over the trial's median during its
    measured phase."""
    phase = [m for t, m in trial["ref"] if trial["begin"] <= t <= trial["end"]]
    return NOMINAL_REF_MS / statistics.median(phase)


def trial_metrics(workload: str, trial: dict, scaled: bool) -> dict:
    """One trial's end-to-end values; ``scaled`` converts its times
    (and rates) to the nominal host."""
    f = host_factor(trial) if scaled else 1.0
    op_ms = [ms * f for _, ms in trial["op_ms"]]
    return {
        "setup_s": trial["setup_s"] * f,
        "ops_per_s": trial["ops"] / (trial["wall_s"] * f),
        "p50_ms": statistics.median(op_ms),
        "p99_ms": percentile(op_ms, 99),
        "switches_total": trial["switches_total"],
        "peak_rss_mb": trial["peak_rss_mb"],
    }


def end_to_end(workload: str, trials: list, scaled: bool) -> dict:
    """Each end-to-end metric is the median over the trials, so a host
    hiccup that lands on one trial does not move the run's figure.
    Misses are few per trial (32 on warm-api), so their median is taken
    over all trials' misses together."""
    per_trial = [trial_metrics(workload, t, scaled) for t in trials]
    values = {k: statistics.median(m[k] for m in per_trial) for k in per_trial[0]}
    key = "op_ms" if workload == "cold-table2" else "miss_ms"  # cold: all miss
    values["miss_p50_ms"] = statistics.median(
        ms * (host_factor(t) if scaled else 1.0) for t in trials for _, ms in t[key]
    )
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}


def per_layer(traced: list, plain: list, ref_ms: list) -> dict:
    ops = sum(t["ops"] for t in traced)
    spans: dict = {}
    engine: dict = {}
    for t in traced:
        for layer, row in t["spans"].items():
            acc = spans.setdefault(layer, [0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for k, v in t["engine"].items():
            engine[k] = engine.get(k, 0) + v
    values = {name: spans[layer][0] * 1000.0 / ops for name, layer in SPAN_MS.items()}
    values.update({name: spans[layer][2] for name, layer in SPAN_CALLS.items()})
    values.update({name: engine[key] for name, key in ENGINE.items()})
    lookups = engine["suite_hits"] + engine["suite_misses"]
    values["engine.suite_hit_ratio"] = engine["suite_hits"] / lookups if lookups else 0.0
    client_ms = sum(t.get("client_ms", 0.0) for t in traced)
    values["server.transport_ms"] = (
        (client_ms - spans["server.handle"][1] * 1000.0) / ops
        if any("client_ms" in t for t in traced) else 0.0
    )
    values["proc.cpu_ms_per_op"] = (
        sum(t["cpu_s"] for t in plain) * 1000.0 / sum(t["ops"] for t in plain)
    )
    values["host.ref_ms"] = statistics.median(ref_ms)
    def rate(trials: list) -> float:  # host-scaled, like ops_per_s
        return sum(t["ops"] for t in trials) / sum(
            t["wall_s"] * host_factor(t) for t in trials
        )

    values["trace.overhead_pct"] = (rate(plain) / rate(traced) - 1.0) * 100.0
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import checker_selftest

    broken = checker_selftest.run()
    if broken:
        raise SystemExit(f"janusbench: checker self-test failed: {broken}")
    build_native()

    plan = [True, False, True] if args.trace else [False] * TRIALS
    workdir = ROOT / ".janusbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        trials = []
        for i, traced in enumerate(plan):
            (workdir / str(i)).mkdir()
            trials.append(
                run_trial(args, i, traced, args.seconds / TRIALS, workdir / str(i))
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    cores: dict = {}
    for t in trials:
        for name, count in t["cores"].items():
            cores[name] = cores.get(name, 0) + count
    problems = [t["phase_failure"] for t in trials if "phase_failure" in t]
    if len({t["switches_total"] for t in trials}) != 1:
        problems.append(
            f"switches_total differs between trials: "
            f"{[t['switches_total'] for t in trials]}"
        )
    if set(cores) - {"native"}:
        problems.append(f"probes ran on a non-native core: {cores}")
    ref_ms = [m for t in trials for at, m in t["ref"] if t["begin"] <= at <= t["end"]]
    traced = [t for t in trials if t["traced"]]
    plain = [t for t in trials if not t["traced"]]
    if args.trace:
        metrics = per_layer(traced, plain, ref_ms)
    else:
        metrics = end_to_end(args.workload, trials, scaled=True)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "cores": cores,
        "host.ref_ms": statistics.median(ref_ms),
        "trials": [
            {k: t[k] for k in ("traced", "ops", "failed", "wall_s", "setup_s")}
            for t in trials
        ],
        "raw": None if args.trace else {
            k: v["value"]
            for k, v in end_to_end(args.workload, trials, scaled=False).items()
        },
        "problems": problems,
        "failures": [m for t in trials for m in t["failures"]][:10],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(t["checked"] for t in trials),
        "failed": sum(t["failed"] for t in trials),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
