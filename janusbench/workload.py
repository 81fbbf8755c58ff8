"""One trial of one workload, in a fresh process.

``run.py`` starts this once per trial and reads the JSON it writes to
``--out``.  A trial sets up (imports, inputs, cache pre-warm, server
start), runs an untimed warm-up, measures whole rounds of operations
until ``--seconds`` have passed, and then checks every answer with the
independent :mod:`checker`.  Answers are kept in memory during the
measured phase and checked after it, so checking costs the program no
time.

Workloads (all closed-loop):

``cold-table2``
    Reconstructed Table II instances, each synthesized from an empty
    cache through ``Session(jobs=1)`` with default options; a round is
    the whole list in a seeded order.
``warm-api``
    One in-process caller: ``SynthesisRequest.from_json`` ->
    ``Session.synthesize`` -> ``SynthesisResponse.to_json`` over a hot
    working set synthesized cold during set-up; a round is 64 seeded
    draws.
``http-mixed``
    ``janus serve`` in its own process over a cache filled during
    set-up, driven by one keep-alive ``ServiceClient``; a round is 20
    requests, 19 drawn from the working set and one fresh function (a
    miss) at a seeded position.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import json
import os
import queue
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from checker import Checker  # noqa: E402

# cold-table2's instance list: every instance closes to a provable
# minimum with SAT probes well inside the default conflict budget, and
# one round takes a few seconds on the native core.
COLD_TABLE2 = (
    "misex1_04", "misex1_06", "misex1_07", "mp2d_06",
    "b12_00", "clpl_00", "dc1_03",
)
WARM_ROUND = 64
# warm-api's measured phase has no misses; after it, this many fresh
# functions (variants of the http-mixed miss base) are synthesized cold
# in the same session and timed, as the workload's miss sample.
WARM_MISSES = 32
HTTP_ROUND = 20
# One client thread.  With two, hits queue behind the other connection's
# miss for the server's GIL, and that queueing grew 2-3x with the host's
# idle-CPU wake-up latency (a busy loop on the other CPU cut the p99 from
# 44 to 15 ms); medians of two ten-run sets moved 37% apart.  One client
# moved 1.25-1.4x under the same test.
HTTP_CLIENTS = 1
# Fresh functions prepared per client thread; a thread that used them
# all stops early (a trial uses about 80).
HTTP_MISSES_PER_CLIENT = 200
REF_EVERY_S = 0.5
ENGINE_COUNTERS = (
    "solver_calls", "bound_calls", "propagations", "conflicts",
    "memory_hits", "suite_hits", "suite_misses",
)


class RefClock:
    """Host-speed samples ``[time.monotonic(), ms]`` from the reference
    task (:mod:`refloop`, in its own process), at most one per
    ``REF_EVERY_S`` unless forced.  ``spent`` is the wall time this
    trial has lost to the task, its start included; the trial takes it
    out of its set-up and measured times."""

    def __init__(self) -> None:
        start = time.monotonic()
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "refloop.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference task did not start")
        self.samples: list[list[float]] = []
        self.spent = time.monotonic() - start
        self._next = 0.0

    def tick(self, force: bool = False) -> None:
        now = time.monotonic()
        if force or now >= self._next:
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            self.samples.append([now, float(self._proc.stdout.readline())])
            done = time.monotonic()
            self.spent += done - now
            self._next = done + REF_EVERY_S

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def engine_counts(stats) -> dict:
    raw = stats if isinstance(stats, dict) else dataclasses.asdict(stats)
    return {k: raw.get(k, 0) for k in ENGINE_COUNTERS}


def counts_diff(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in ENGINE_COUNTERS}


def counts_add(total: dict, more: dict) -> dict:
    return {k: total.get(k, 0) + more[k] for k in ENGINE_COUNTERS}


def require_native_core() -> str:
    from repro.sat.solver import resolve_core_class

    return resolve_core_class().core_name


class Trial:
    """Shared bookkeeping of one trial; the workloads fill it in."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workdir = Path(args.workdir)
        self.rng = inputs.seeded_rng(args.seed, args.trial, args.workload)
        self.ref = RefClock()
        self.checker = Checker(deep_compare=args.workload == "cold-table2")
        self.tracer = None
        if args.trace and args.workload != "http-mixed":  # else: the server
            import tracer as tracing

            self.tracer = tracing.Tracer()
            tracing.install(self.tracer)
        self.result: dict = {
            "workload": args.workload,
            "traced": bool(args.trace),
            "ops": 0,  # measured operations (the throughput numerator)
            "checked": 0,  # answers checked: set-up, measured and misses
            "failed": 0,
            "failures": [],
            # [end time, latency ms] pairs, flattened: flat float
            # arrays add nothing to the collector's work, so recording
            # does not lengthen the program's own GC pauses
            "op_ms": array.array("d"),
            "miss_ms": array.array("d"),
            "engine": {k: 0 for k in ENGINE_COUNTERS},
            "cores": {},
            "ref": self.ref.samples,
        }
        self._span_start = None

    # ------------------------------------------------------------ phases
    def start_measuring(self) -> float:
        """Mark the first measured op; returns the measured-phase start."""
        now = time.monotonic()
        self.result["setup_s"] = now - self.args.spawned_at - self.ref.spent
        self.result["begin"] = now
        self._ref_spent0 = self.ref.spent
        self.ref.tick(force=True)
        self._cpu0 = cpu_seconds()
        if self.tracer is not None:
            self._span_start = self.tracer.snapshot()
        return now

    def stop_measuring(self, start: float) -> None:
        end = time.monotonic()
        self.result["wall_s"] = end - start - (self.ref.spent - self._ref_spent0)
        self.result["end"] = end
        self.ref.tick(force=True)
        self.result["cpu_s"] = cpu_seconds() - self._cpu0
        if self._span_start is not None:
            import tracer as tracing

            self.result["spans"] = tracing.diff(
                self.tracer.snapshot(), self._span_start
            )

    def fail(self, message: str) -> None:
        self.result["failed"] += 1
        if len(self.result["failures"]) < 20:
            self.result["failures"].append(message)

    def check(self, request: str, response: str, extra: list[str] = ()) -> None:
        self.result["checked"] += 1
        problems = list(extra) + self.checker.check(request, response)
        if problems:
            self.fail("; ".join(problems))

    def add_cores(self, cores: dict) -> None:
        for name, count in (cores or {}).items():
            self.result["cores"][name] = self.result["cores"].get(name, 0) + count


def stats_problems(response: str, hit: bool) -> list[str]:
    """Per-request work accounting: a hit ran no solver and no bounds
    and was served by the suite cache; a miss was not."""
    try:
        stats = json.loads(response).get("stats") or {}
    except ValueError:
        return ["response is not JSON"]
    if hit:
        bad = {k: stats.get(k) for k in ("solver_calls", "bound_calls")
               if stats.get(k) != 0}
        if stats.get("suite_hits") != 1:
            bad["suite_hits"] = stats.get("suite_hits")
        return [f"warm request did work: {bad}"] if bad else []
    if stats.get("suite_hits") != 0:
        return [f"fresh function served from cache: {stats}"]
    return []


# ---------------------------------------------------------------- workloads
def run_cold_table2(trial: Trial) -> None:
    from repro.api import Session, SynthesisRequest
    from repro.bench.instances import build_instance

    args = trial.args
    texts = {
        name: SynthesisRequest.from_target(build_instance(name)).to_json()
        for name in COLD_TABLE2
    }

    def synthesize(name: str):
        cache = tempfile.mkdtemp(prefix="cold-", dir=trial.workdir)
        try:
            start = time.perf_counter()
            with Session(jobs=1, cache=cache) as session:
                response = session.synthesize(
                    SynthesisRequest.from_json(texts[name])
                ).to_json()
                stats = session.stats
            took = time.perf_counter() - start
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return response, took, stats

    synthesize("dc1_03")  # warm-up: lazy imports and code paths
    begin = trial.start_measuring()
    answers = []
    while time.monotonic() - begin < args.seconds:
        order = list(COLD_TABLE2)
        trial.rng.shuffle(order)
        for name in order:
            response, took, stats = synthesize(name)
            trial.result["op_ms"].extend((time.monotonic(), took * 1000.0))
            trial.ref.tick()
            answers.append((name, response))
            trial.result["engine"] = counts_add(
                trial.result["engine"], engine_counts(stats)
            )
            trial.add_cores(stats.cores)
    trial.stop_measuring(begin)
    trial.result["peak_rss_mb"] = self_peak_rss_mb()
    trial.result["ops"] = len(answers)
    for name, response in answers:
        trial.check(texts[name], response, stats_problems(response, hit=False))
    trial.result["switches_total"] = trial.checker.switches_total()


def _working_set(trial: Trial) -> tuple[list[str], inputs.VariantSource]:
    """The working set's requests, and the variant source that will
    supply every later function of the trial without repeating one."""
    source = inputs.VariantSource(inputs.function_rng(trial.args.trial))
    funcs = [source.variant(b) for b in inputs.bases(inputs.WORKING_SET, "ws")]
    return [f.request(f"w{i:02d}") for i, f in enumerate(funcs)], source


def run_warm_api(trial: Trial) -> None:
    from repro.api import Session, SynthesisRequest

    args = trial.args
    texts, source = _working_set(trial)
    miss_texts = _misses(source, WARM_MISSES, "m")
    cache = tempfile.mkdtemp(prefix="warm-", dir=trial.workdir)
    session = Session(jobs=1, cache=cache)

    def call(text: str) -> str:
        return session.synthesize(SynthesisRequest.from_json(text)).to_json()

    try:
        for text in texts:  # set-up: the cold fill
            response = call(text)
            trial.check(text, response, stats_problems(response, hit=False))
        trial.add_cores(session.stats.cores)
        for i in range(len(texts) + 4 * WARM_ROUND):  # untimed warm-up
            call(texts[i % len(texts)])
        before = engine_counts(session.stats)
        begin = trial.start_measuring()
        answers = []
        clock = time.perf_counter
        while time.monotonic() - begin < args.seconds:
            for _ in range(WARM_ROUND):
                text = texts[trial.rng.randrange(len(texts))]
                start = clock()
                response = session.synthesize(
                    SynthesisRequest.from_json(text)
                ).to_json()
                end = clock()
                trial.result["op_ms"].extend((time.monotonic(), (end - start) * 1000.0))
                answers.append((text, response))
            trial.ref.tick()
        trial.stop_measuring(begin)
        trial.result["engine"] = counts_diff(engine_counts(session.stats), before)
        for text in miss_texts:
            start = time.perf_counter()
            response = call(text)
            trial.result["miss_ms"].extend(
                (time.monotonic(), (time.perf_counter() - start) * 1000.0)
            )
            trial.check(text, response, stats_problems(response, hit=False))
    finally:
        session.close()
        shutil.rmtree(cache, ignore_errors=True)
    trial.result["peak_rss_mb"] = self_peak_rss_mb()
    trial.result["ops"] = len(answers)
    trial.result["switches_total"] = trial.checker.switches_total(
        [trial.checker.key(t) for t in texts]
    )
    work = trial.result["engine"]
    if work["solver_calls"] or work["bound_calls"]:
        trial.result["phase_failure"] = (
            f"measured warm phase ran {work['solver_calls']} solver and "
            f"{work['bound_calls']} bound calls"
        )
    for text, response in answers:
        trial.check(text, response, stats_problems(response, hit=True))


def _misses(source: inputs.VariantSource, count: int, prefix: str) -> list[str]:
    """Requests for ``count`` fresh variants of the miss base."""
    base = inputs.bases(inputs.MISS_BASES, "miss")[inputs.MISS_BASE_INDEX]
    return [source.variant(base).request(f"{prefix}{i:03d}") for i in range(count)]


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for the server process")


def _start_server(trial: Trial, cache: str, spans_file: Path):
    """``janus serve --port 0`` in its own process; returns
    ``(process, host, port)`` once it has printed its address."""
    serve = ["serve", "--port", "0", "--cache", cache]
    if trial.args.trace:
        cmd = [sys.executable, "-u", str(HERE / "serve_traced.py"),
               str(spans_file), *serve]
    else:
        cmd = [sys.executable, "-u", "-m", "repro", *serve]
    with open(trial.workdir / "server.log", "wb") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log)
    lines: "queue.Queue[bytes]" = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(b"")

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + 60.0
    while True:
        try:
            line = lines.get(timeout=max(0.1, deadline - time.monotonic()))
        except queue.Empty:
            line = b""
        text = line.decode("utf-8", "replace")
        if "listening on http://" in text:
            host, port = text.rsplit("http://", 1)[1].strip().rsplit(":", 1)
            return proc, host, int(port)
        if not line or time.monotonic() > deadline:
            _stop_server(proc)
            raise RuntimeError("janus serve did not report its address")


def _stop_server(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_http_mixed(trial: Trial) -> None:
    from repro.api import Session, SynthesisRequest
    from repro.client import ServiceClient

    args = trial.args
    texts, source = _working_set(trial)
    warm_texts = [
        source.variant(b).request(f"u{i}")
        for i, b in enumerate(inputs.bases(inputs.WARMUP_BASES, "warm-up"))
    ]
    miss_texts = [
        _misses(source, HTTP_MISSES_PER_CLIENT, f"m{t}_")
        for t in range(HTTP_CLIENTS)
    ]
    cache = tempfile.mkdtemp(prefix="http-", dir=trial.workdir)
    with Session(jobs=1, cache=cache) as session:  # set-up: fill the cache
        for text in texts + warm_texts:
            response = session.synthesize(SynthesisRequest.from_json(text)).to_json()
            trial.check(text, response, stats_problems(response, hit=False))
        trial.add_cores(session.stats.cores)
    spans_file = trial.workdir / "server-spans.json"
    proc, host, port = _start_server(trial, cache, spans_file)
    records: list[list] = [[] for _ in range(HTTP_CLIENTS)]
    try:
        clients = [ServiceClient(host, port) for _ in range(HTTP_CLIENTS)]

        def warm_up(client) -> None:
            client.health()
            for text in warm_texts * 3:
                client.request_raw("POST", "/v1/synthesize", text)
            # Each working-set function twice in a row: the pool hands a
            # lone client's requests to its two sessions in turn, so both
            # memory LRUs hold the whole set.  First-touch disk reads in
            # the measured phase made p99 swing from 5.8 to 11.7 ms.
            for text in texts:
                for _ in range(2):
                    client.request_raw("POST", "/v1/synthesize", text)

        pre = [threading.Thread(target=warm_up, args=(c,)) for c in clients]
        for t in pre:
            t.start()
        for t in pre:
            t.join()
        before = engine_counts(clients[0].cache_stats()["engine"])
        cpu0 = _proc_cpu_seconds(proc.pid)
        if args.trace:
            proc.send_signal(signal.SIGUSR1)
        begin = trial.start_measuring()
        deadline = begin + args.seconds

        def drive(t: int) -> None:
            client, out = clients[t], records[t]
            rng = inputs.seeded_rng(args.seed, args.trial, f"http-client-{t}")
            misses = iter(miss_texts[t])
            clock = time.perf_counter
            while time.monotonic() < deadline:
                miss_at = rng.randrange(HTTP_ROUND)
                for j in range(HTTP_ROUND):
                    if j == miss_at:
                        text = next(misses, None)
                        if text is None:
                            return
                    else:
                        text = texts[rng.randrange(len(texts))]
                    start = clock()
                    try:
                        status, raw = client.request_raw(
                            "POST", "/v1/synthesize", text
                        )
                    except OSError as exc:
                        status, raw = None, repr(exc).encode()
                    end = clock()
                    out.append((j == miss_at, text, status, raw,
                                (end - start) * 1000.0, time.monotonic()))
                if t == 0:
                    trial.ref.tick()

        threads = [threading.Thread(target=drive, args=(t,))
                   for t in range(HTTP_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if args.trace:
            proc.send_signal(signal.SIGUSR2)
        trial.stop_measuring(begin)
        trial.result["cpu_s"] = _proc_cpu_seconds(proc.pid) - cpu0
        served = clients[0].cache_stats()
        trial.result["engine"] = counts_diff(engine_counts(served["engine"]), before)
        trial.add_cores(served["engine"].get("cores"))
        trial.result["peak_rss_mb"] = _proc_peak_rss_mb(proc.pid)
        for c in clients:
            c.close()
    finally:
        _stop_server(proc)
        shutil.rmtree(cache, ignore_errors=True)
    if args.trace:
        marks = json.loads(spans_file.read_text())
        import tracer as tracing

        trial.result["spans"] = tracing.diff(marks["end"], marks["start"])
    ops = [r for per_client in records for r in per_client]
    trial.result["ops"] = len(ops)
    trial.result["client_ms"] = sum(r[4] for r in ops)
    trial.result["switches_total"] = trial.checker.switches_total(
        [trial.checker.key(t) for t in texts]
    )
    for is_miss, text, status, raw, took, at in ops:
        (trial.result["miss_ms"] if is_miss else trial.result["op_ms"]).extend(
            (at, took)
        )
        if status != 200:
            trial.result["checked"] += 1
            trial.fail(f"HTTP {status}: {raw[:200]!r}")
            continue
        response = raw.decode("utf-8")
        trial.check(text, response, stats_problems(response, hit=not is_miss))


WORKLOADS = {
    "cold-table2": run_cold_table2,
    "warm-api": run_warm_api,
    "http-mixed": run_http_mixed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trial", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    trial = Trial(args)
    try:
        core = require_native_core()
        if core != "native":
            print(f"solver core is {core!r}, not the native kernel", file=sys.stderr)
            return 2
        WORKLOADS[args.workload](trial)
    finally:
        trial.ref.close()
    for key in ("op_ms", "miss_ms"):
        flat = trial.result[key]
        trial.result[key] = [flat[i:i + 2].tolist() for i in range(0, len(flat), 2)]
    Path(args.out).write_text(json.dumps(trial.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
