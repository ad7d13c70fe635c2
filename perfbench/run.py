#!/usr/bin/env python3
"""End-to-end benchmark of the live pipeline: ts_sessionize --connect --serve.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds ts_sessionize and the benchmark's own
programs (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR or .bench_build,
then drives the shipped tool as a separate process over loopback TCP from
one generator process (pb_gen). Prints a human-readable report on stderr and,
as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are the per-layer metrics, from an untraced run (close
reaction, query, thread and generator figures) plus pb_trace, the traced
in-process driver.
See perfbench/README.md for the workloads and the metric definitions.
"""
import argparse
import contextlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("paper_replay", "paced_close", "tiered_reads")
# Rates, sizes and the tool's flags are fixed in perfbench/common.h; pb_gen
# reports the flags in its "ready" line.
SETUP_SAMPLES = 31    # ts_sessionize start-ups timed per run.
# Latency figures of the untraced run. They are reported with --trace 1 (and
# on stderr always), not bounded: see perfbench/README.md. Each workload
# names those it measures; the others read 0.
LATENCY = ("close_reaction_p50_ms", "close_reaction_p99_ms",
           "query_p50_ms", "query_p99_ms", "queries_per_s")
MEASURES = {
    "paper_replay": (),
    "paced_close": LATENCY[:2],
    "tiered_reads": LATENCY,
}
# A paced run whose generator fell behind its own schedule is a generator
# failure, not a measurement.
MAX_LATENESS_P99_MS = 20.0
MIN_ACHIEVED_OVER_GOAL = 0.98
CLK_TCK = os.sysconf("SC_CLK_TCK")
# With four or more CPUs the generator (and this script) get the last one
# and the tool the rest, so neither's threads land on the other's CPUs from
# run to run. pb_trace, one process, gets them all.
ALL_CPUS = sorted(os.sched_getaffinity(0))
GEN_CPUS = {ALL_CPUS[-1]} if len(ALL_CPUS) >= 4 else set(ALL_CPUS)
SUT_CPUS = set(ALL_CPUS[:-1]) if len(ALL_CPUS) >= 4 else set(ALL_CPUS)


@contextlib.contextmanager
def on_cpus(cpus):
    """Processes started inside inherit the calling thread's CPU affinity."""
    old = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, old)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --- build --------------------------------------------------------------------

def build(build_dir):
    if not os.path.isfile("perfbench/CMakeLists.txt") or not os.path.isdir("src"):
        raise BenchError("run from the root of a checkout that holds src/ and perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4", "--target",
                    "ts_sessionize", "pb_gen", "pb_trace"],
                   check=True, stdout=sys.stderr)
    return {
        "sut": os.path.join(build_dir, "tools", "ts_sessionize"),
        "gen": os.path.join(build_dir, "pb_gen"),
        "trace": os.path.join(build_dir, "pb_trace"),
    }


# --- processes ------------------------------------------------------------------

def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def cpu_times():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def thread_cpu_s(pid):
    out = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            out[tid] = proc_cpu_s(f"{pid}/task/{tid}")
        except OSError:
            pass
    return out


class ThreadSampler:
    """CPU seconds each SUT thread used while sampling ran. Samples every
    50 ms: shard workers exit (and leave /proc) before the window closes."""

    def __init__(self, pid):
        self.pid = pid
        self.first = thread_cpu_s(pid)
        self.last = dict(self.first)
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        while not self.done.wait(0.05):
            try:
                self.last.update(thread_cpu_s(self.pid))
            except OSError:
                return

    def stop(self):
        self.done.set()
        self.thread.join()
        return {t: cpu - self.first.get(t, 0.0) for t, cpu in self.last.items()}


class Gen:
    """pb_gen: one JSON reply per command."""

    def __init__(self, binary, workload, seed, seconds, out_dir):
        with on_cpus(GEN_CPUS):
            self.p = subprocess.Popen([binary, f"--workload={workload}", f"--seed={seed}",
                                       f"--seconds={seconds}", f"--dir={out_dir}"],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ready = self._read()
        self.port = int(self.ready["port"])
        log(f"   pb_gen built the inputs in {self.ready['input_s']:.2f} s")

    def _read(self):
        line = self.p.stdout.readline()
        if not line:
            raise BenchError("pb_gen exited")
        return json.loads(line)

    def cmd(self, line):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()
        reply = self._read()
        if reply.get("ok", 1) in (0, False):
            raise BenchError(f"pb_gen '{line}' failed: {reply}")
        return reply

    def close(self):
        if self.p.poll() is None:
            try:
                self.p.stdin.write("quit\n")
                self.p.stdin.flush()
            except OSError:
                pass
            try:
                self.p.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()


class Sut:
    """One ts_sessionize --connect --serve instance; stderr lines timestamped."""

    def __init__(self, binary, gen_port, args, out_path):
        self.out_path = out_path
        self.lines = []
        self.cv = threading.Condition()
        args = [binary, f"--connect=127.0.0.1:{gen_port}"] + args
        with open(out_path, "w") as out, on_cpus(SUT_CPUS):
            self.t_spawn = time.monotonic_ns()
            self.p = subprocess.Popen(args, stdout=out, stderr=subprocess.PIPE, text=True)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.p.stderr:
            now = time.monotonic_ns()
            with self.cv:
                self.lines.append((now, line.rstrip("\n")))
                self.cv.notify_all()
        with self.cv:
            self.lines.append((time.monotonic_ns(), None))
            self.cv.notify_all()

    def wait_for(self, pattern, timeout=120):
        rx = re.compile(pattern)
        deadline = time.monotonic() + timeout
        with self.cv:
            while True:
                for t, line in self.lines:
                    if line is None:
                        raise BenchError(f"ts_sessionize exited (code {self.p.poll()}) "
                                         f"before '{pattern}': {self.stderr_tail()}")
                    m = rx.search(line)
                    if m:
                        return t, m
                left = deadline - time.monotonic()
                if left <= 0:
                    raise BenchError(f"timed out waiting for '{pattern}'")
                self.cv.wait(left)

    def stderr_tail(self):
        return " | ".join(l for _, l in self.lines[-5:] if l)

    def query_port(self):
        return int(self.wait_for(r"query server listening on [\d.]+:(\d+)")[1].group(1))

    def peak_rss_mb(self):
        with open(f"/proc/{self.p.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def stop(self, sig=signal.SIGTERM):
        if self.p.poll() is None:
            self.p.send_signal(sig)
            try:
                self.p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        self.reader.join(timeout=10)

    def report(self):
        with open(self.out_path) as f:
            return f.read()


# --- checks ---------------------------------------------------------------------

class Outcome:
    """Attempted/failed operations and correctness of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check(self, ok, what):
        if not ok:
            self.correct = False
            log("FAILED CHECK: " + what)

    def fail(self, n, what):
        if n:
            self.failed += int(n)
            log(f"{int(n)} failed: {what}")


def reconcile(out, st, lines, restored_open=0):
    """The STATS identities, exact. Returns the unreconciled record count."""
    parsed = st["live_records"]
    got = parsed + st["live_parse_failures"] + st["live_blank_lines"] + st["live_shed_lines"]
    out.check(got == lines, f"received {lines} == parsed + failures + blanks + shed_lines ({got})")
    emitted = st["live_records_emitted"] + st["live_open_records"] + st["live_shed_records"]
    out.check(parsed + restored_open == emitted,
              f"parsed {parsed} (+{restored_open} restored open) == emitted + open + shed ({emitted})")
    return abs(lines - got) + abs(parsed + restored_open - emitted)


def account_subscription(out, fin, fed):
    """A close lost to #DROPPED is also an armed close never observed; each
    lost close counts once."""
    dropped = int(fin["sub_dropped"])
    missing = int(fed["missing"])
    out.attempted += int(fed["armed"])
    out.fail(max(dropped, missing),
             f"closes lost ({dropped} subscriber #DROPPED, {missing} armed closes never observed)")
    out.check(not fin["sub_failed"], "subscription stayed attached")


def account_mix(out, mix):
    out.attempted += int(mix["queries"])
    out.fail(mix["query_errors"], "query errors or timeouts")
    out.check(mix["mismatches"] == 0,
              f"GET/FRAGMENTS byte-equal to SUBSCRIBE ({int(mix['mismatches'])} of "
              f"{int(mix['compared'])} compared differ)")


def check_generator(out, fed):
    late = fed["lateness_ms"]["p99"]
    achieved = fed["achieved_over_goal"]
    log(f"   generator: lateness p99 {late} ms, achieved/goal {achieved:.4f}")
    ok = late is not None and late <= MAX_LATENESS_P99_MS and achieved >= MIN_ACHIEVED_OVER_GOAL
    if not ok:
        out.fail(1, "generator fell behind its schedule")


# --- workloads ------------------------------------------------------------------

class Run:
    def __init__(self, bins, workload, seed, seconds, out_dir):
        self.bins = bins
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.outcome = Outcome()
        self.setup = []
        self.samples = {}  # Per-instance figures, medians taken at the end.
        self.threads = {}  # Per-thread busy share over one measured window.
        self.gen_cpu_share = 0.0
        self.steal_share = 0.0
        self.fed = None
        self.fin = None
        self.mix = None
        self.sut_args = []
        self.n = 0

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def spawn(self, gen, offset=0):
        self.n += 1
        sut = Sut(self.bins["sut"], gen.port, self.sut_args,
                  os.path.join(self.out_dir, f"sut-{self.n}.out"))
        try:
            a = gen.cmd(f"attach {sut.query_port()} {offset}")
        except BaseException:
            sut.stop(signal.SIGKILL)
            raise
        self.setup.append((a["t_ans"] - sut.t_spawn) / 1e9)
        return sut

    def setup_only(self, gen, offset=0, sig=signal.SIGTERM):
        sut = self.spawn(gen, offset)
        try:
            if sig == signal.SIGTERM:
                gen.cmd("eos")
                sut.wait_for(r"^serving ")
        finally:
            sut.stop(sig)
            gen.cmd("detach")

    def measure(self, gen, sut, start_cmd, restored_open=0):
        """Feeds one instance, waits until every session is in the store."""
        gen_cpu0 = proc_cpu_s(gen.p.pid)
        steal0, total0 = cpu_times()
        sampler = ThreadSampler(sut.p.pid)
        t0 = time.monotonic_ns()
        fed = gen.cmd(start_cmd)
        self.outcome.fail(0 if fed["quiesced"] else 1, "instance did not settle before #EOS")
        t_banner, _ = sut.wait_for(r"^serving ")
        wall = (time.monotonic_ns() - t0) / 1e9
        self.threads = {t: cpu / wall for t, cpu in sampler.stop().items()}
        self.gen_cpu_share = (proc_cpu_s(gen.p.pid) - gen_cpu0) / wall
        steal1, total1 = cpu_times()
        # CPU time the hypervisor gave to other guests: noise, not the SUT.
        self.steal_share = (steal1 - steal0) / max(1, total1 - total0)
        fin = gen.cmd("finish")
        st = fin["stats"]
        lines = int(fed["lines"])
        self.outcome.attempted += lines
        self.outcome.fail(reconcile(self.outcome, st, lines, restored_open),
                          "records not reconciled by STATS")
        self.add("records_per_s", lines / ((t_banner - fed["t_first"]) / 1e9))
        self.add("cpu_us_per_record", proc_cpu_s(sut.p.pid) * 1e6 / max(1, st["live_records"]))
        self.add("peak_rss_mb", sut.peak_rss_mb())
        self.fed, self.fin = fed, fin
        return fed, fin

    def paper_replay(self, gen):
        """A fixed number of timed replays for the run length, each checked
        against the in-process reference report."""
        reference = open(os.path.join(self.out_dir, "reference.txt")).read()
        for _ in range(max(3, math.ceil(self.seconds / 2))):
            sut = self.spawn(gen)
            try:
                self.measure(gen, sut, "replay")
                self.outcome.check(sut.report() == reference,
                                   "tool's end-of-run report equals the in-process reference")
            finally:
                sut.stop()
                gen.cmd("detach")
        while len(self.setup) < SETUP_SAMPLES:
            self.setup_only(gen)

    def paced_close(self, gen):
        sut = self.spawn(gen)
        try:
            fed, fin = self.measure(gen, sut, "paced")
        finally:
            sut.stop()
            gen.cmd("detach")
        check_generator(self.outcome, fed)
        account_subscription(self.outcome, fin, fed)
        while len(self.setup) < SETUP_SAMPLES:
            self.setup_only(gen)

    def tiered_reads(self, gen):
        state = os.path.join(self.out_dir, "state")
        self.sut_args += [f"--cold-dir={state}/cold", f"--checkpoint-dir={state}/ckpt"]
        os.makedirs(f"{state}/cold")
        os.makedirs(f"{state}/ckpt")
        sut = self.spawn(gen)
        try:
            pre = gen.cmd("preload")
            self.outcome.fail(0 if pre["quiesced"] else 1, "preload did not settle before #EOS")
            sut.wait_for(r"^serving ")
            pre_fin = gen.cmd("finish")
        finally:
            sut.stop()
            gen.cmd("detach")
        self.outcome.attempted += int(pre["lines"])
        self.outcome.fail(reconcile(self.outcome, pre_fin["stats"], int(pre["lines"])),
                          "preload records not reconciled by STATS")
        account_subscription(self.outcome, pre_fin, pre)
        self.setup.clear()  # set-up here is the restart onto the preloaded state.
        offset = int(pre["lines"])
        while len(self.setup) < SETUP_SAMPLES - 1:
            self.setup_only(gen, offset, sig=signal.SIGKILL)
        sut = self.spawn(gen, offset)
        try:
            # The drain session's records were open at the preload's final
            # checkpoint; the restart restores them as open records.
            fed, fin = self.measure(gen, sut, "tiered",
                                    restored_open=int(pre["drain_records"]))
        finally:
            sut.stop()
            gen.cmd("detach")
        self.mix = fed
        check_generator(self.outcome, fed)
        account_subscription(self.outcome, fin, fed)
        account_mix(self.outcome, fed)

    def metrics(self):
        """End-to-end metrics, medians over this run's instances."""
        med = {k: statistics.median(v) for k, v in self.samples.items()}
        med["setup_s"] = statistics.median(self.setup)
        return med

    def latency(self):
        """The latency figures this workload measures; a percentile without
        a complete round of samples is None and makes the run not correct."""
        figures = {}
        for name in LATENCY:
            if name not in MEASURES[self.workload]:
                figures[name] = 0.0
                continue
            figures[name] = (self.mix if name.startswith("quer") else self.fin)[name]
            self.outcome.check(figures[name] is not None,
                               f"{name} has a complete round of samples")
        return figures


def end_to_end_units():
    """Metric name -> unit, from BENCHMARK.json at the checkout's root."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["end_to_end"]}


def run_untraced(bins, workload, seed, seconds, out_dir):
    run = Run(bins, workload, seed, seconds, out_dir)
    gen = Gen(bins["gen"], workload, seed, seconds, out_dir)
    run.sut_args = list(gen.ready["sut_args"])
    try:
        getattr(run, workload)(gen)
    finally:
        gen.close()
    return run


def print_report(run, metrics, latency):
    log(f"\n== {run.workload} seed={run.seed} seconds={run.seconds} "
        f"(ts_sessionize {' '.join(run.sut_args)})")
    log(f"   set-up samples (s): {', '.join(f'{v:.4f}' for v in run.setup)}")
    for k, v in sorted(run.samples.items()):
        log(f"   {k} per instance: {', '.join(f'{x:.4g}' for x in v)}")
    for name, unit in end_to_end_units().items():
        log(f"   {name:24s} {metrics[name]:14.4f} {unit}")
    if MEASURES[run.workload]:
        log(f"   close reaction samples n={run.fin['reaction_ms']['n']}, round p99s (ms): "
            + ", ".join(f"{v:.4g}" for v in run.fin["round_reaction_p99_ms"]))
    if run.mix is not None:
        log(f"   query rounds {int(run.mix['rounds'])} of {int(run.mix['completed'])} "
            f"queries in {run.mix['mix_s']:.2f} s, per verb: " + json.dumps(run.mix["verbs"]))
    for name in MEASURES[run.workload]:
        value = "too few samples" if latency[name] is None else f"{latency[name]:14.4f}"
        log(f"   {name:24s} {value} (not bounded)")
    log(f"   SUT threads' busy share during the last measured window: "
        + ", ".join(f"{v:.2f}" for v in sorted(run.threads.values(), reverse=True) if v >= 0.01))
    log(f"   host CPU steal during the last measured window: {100 * run.steal_share:.1f}%")
    log(f"   attempted={run.outcome.attempted} failed={run.outcome.failed} "
        f"correct={run.outcome.correct}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        bins = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.sched_setaffinity(0, GEN_CPUS)  # Threads started from here on too.
        out_dir = os.path.join(".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        run = run_untraced(bins, args.workload, args.seed, args.seconds, out_dir)
        e2e = run.metrics()
        latency = run.latency()
        print_report(run, e2e, latency)
        if args.trace:
            metrics = traced_metrics(bins, run, latency, out_dir)
        else:
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in end_to_end_units().items()}
        if run.outcome.correct:
            shutil.rmtree(out_dir, ignore_errors=True)
    except (BenchError, subprocess.CalledProcessError, OSError, KeyError) as e:
        log(f"benchmark failed: {e!r}")
        return 1
    print(json.dumps({"correct": run.outcome.correct, "attempted": run.outcome.attempted,
                      "failed": run.outcome.failed, "metrics": metrics}))
    # A failed correctness check fails the command.
    return 0 if run.outcome.correct else 1


def traced_metrics(bins, run, latency, out_dir):
    """Per-layer metrics: latency, thread and generator figures of the
    untraced run, the rest from pb_trace."""
    with on_cpus(ALL_CPUS):
        proc = subprocess.run(
            [bins["trace"], f"--workload={run.workload}", f"--seed={run.seed}",
             f"--seconds={run.seconds}", f"--dir={out_dir}",
             f"--spans=.bench_out/spans-{run.workload}-{run.seed}.json"],
            stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"pb_trace exited with {proc.returncode}")
    traced = json.loads(proc.stdout.strip().splitlines()[-1])
    run.outcome.check(traced.pop("correct"), "traced run's outputs")
    shares = sorted(run.threads.values(), reverse=True)
    traced["sut.busiest_thread_share"] = [shares[0] if shares else 0.0, "share"]
    traced["sut.threads_over_half_busy"] = [sum(1 for s in shares if s > 0.5), "count"]
    # paper_replay is not paced: it has no schedule to fall behind.
    paced = run.workload != "paper_replay"
    traced["loadgen.lateness_p99_ms"] = [run.fed["lateness_ms"]["p99"] if paced else 0.0, "ms"]
    traced["loadgen.achieved_over_goal"] = [run.fed["achieved_over_goal"] if paced else 0.0,
                                            "ratio"]
    traced["loadgen.cpu_share"] = [run.gen_cpu_share, "share"]
    traced["host.steal_share"] = [run.steal_share, "share"]
    units = {"queries_per_s": "1/s"}
    for name, value in latency.items():
        traced[name] = [value, units.get(name, "ms")]
    return {k: {"value": v[0], "unit": v[1]} for k, v in traced.items()}


if __name__ == "__main__":
    sys.exit(main())
