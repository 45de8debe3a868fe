#!/usr/bin/env python3
"""End-to-end benchmark driver for rts-cli and rts-serve.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli_2d --seed 1 --seconds 35 --trace 0

It builds the binaries and the in-process tool (perfbench/rtsbench.ml)
from source into .bench_build, generates the workload's inputs from the
seed into .bench_work, and then

  --trace 0  runs the real binary (rts-cli run / rts-serve session) as a
             child process, again and again for --seconds, timing each
             child from the outside and checking its output;
  --trace 1  runs rtsbench trace, which alternates untraced and traced
             in-process passes and reports the per-layer breakdown.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics. README.md explains the workloads and every metric.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
BIN = os.path.join(BUILD_DIR, "default")
RTS_CLI = os.path.join(BIN, "bin", "rts_cli.exe")
RTS_SERVE = os.path.join(BIN, "bin", "rts_serve.exe")
RTSBENCH = os.path.join(BIN, "perfbench", "rtsbench.exe")
SOURCES = ["dune-project", "bin/rts_cli.ml", "bin/rts_serve.ml", "lib", "perfbench/dune"]

WORKLOADS = ["cli_2d", "cli_wal", "serve_session"]
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "elems_per_s": "1/s",
    "cpu_us_per_elem": "us",
    "peak_rss_mb": "MB",
}
# End-to-end figures of the session's frame loop; they exist on one
# workload only, so they ride with the per-layer metrics (README.md).
SESSION_FRAMES = {
    "session.frame_p50_ms": "ms",
    "session.frame_p99_ms": "ms",
    "session.frame_samples": "count",
    "session.failed_frac": "fraction",
}
CPUS = sorted(os.sched_getaffinity(0))
MIN_CHILDREN = 3  # timed children per run, even past --seconds
CHILD_TIMEOUT_S = 60.0  # a CLI child that runs longer has hung
FRAME_DEADLINE_S = 1.0  # a session frame unanswered this long has failed


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Fatal(Exception):
    pass


def build():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        raise Fatal("not a source checkout (missing %s); run from the repository root"
                    % ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--require-dune-project-file", "--display", "quiet",
           "./bin/rts_cli.exe", "./bin/rts_serve.exe", "./perfbench/rtsbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except FileNotFoundError:
        raise Fatal("dune not found on PATH")
    if r.returncode != 0:
        raise Fatal("build failed")


def read_manifest(work):
    with open(os.path.join(work, "manifest")) as f:
        return dict(line.rstrip("\n").split("=", 1) for line in f if "=" in line)


def percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    rank = max(1, min(len(s), -(-p * len(s) // 100)))
    return s[int(rank) - 1]


class Child:
    """One child process, timed from spawn to exit.

    run.py waits on the child's pipes with select() and reaps it with
    wait4(), which also yields its CPU time and peak resident set."""

    spawned = 0

    def __init__(self, argv, stdin, stdout):
        # Children take turns on the CPUs, run.py keeps to the others:
        # a CPU slowed by contention then slows only every other child.
        # The child inherits this process's affinity at spawn.
        cpu = CPUS[Child.spawned % len(CPUS)]
        Child.spawned += 1
        os.sched_setaffinity(0, {cpu})
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=stdin, stdout=stdout, stderr=subprocess.PIPE)
        if len(CPUS) > 1:
            os.sched_setaffinity(0, set(CPUS) - {cpu})
        self.err = b""
        self.out = b""
        self.t_ready = None
        self.open = [f.fileno() for f in (self.proc.stderr, self.proc.stdout) if f is not None]

    def pump(self, timeout, marker=None):
        """Wait up to [timeout] for output; False once the child closed it all."""
        if not self.open:
            return False
        ready, _, _ = select.select(self.open, [], [], timeout)
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                self.open.remove(fd)
            elif fd == self.proc.stderr.fileno():
                self.err += chunk
                if marker and self.t_ready is None and marker in self.err:
                    self.t_ready = time.perf_counter()
            else:
                self.out += chunk
        return bool(self.open)

    def kill(self):
        self.proc.kill()

    def reap(self):
        if self.proc.stdin is not None:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:
                pass
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.t_end = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for f in (self.proc.stdout, self.proc.stderr):
            if f is not None:
                f.close()
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.peak_rss_mb = ru.ru_maxrss / 1024.0  # kB on Linux: the final VmHWM
        return self.proc.returncode


def end_to_end(runs):
    """One run's end-to-end metrics from its children. Set-up time and
    memory are medians over the children. The time metrics are the best
    child's: on a shared VM the CPU's speed swings by up to 2x over
    seconds, and contention only ever adds time, so the fastest child is
    the steadiest estimate of the program's own cost (README.md)."""
    med = lambda f: statistics.median(f(c) for c in runs)
    return {
        "setup_s": med(lambda c: c.t_ready - c.t0),
        "wall_s": min(c.t_end - c.t0 for c in runs),
        "elems_per_s": max(c.elements / (c.t_last - c.t_ready) for c in runs),
        "cpu_us_per_elem": min(c.cpu_s / c.elements * 1e6 for c in runs),
        "peak_rss_mb": med(lambda c: c.peak_rss_mb),
    }


def cli_child(argv, elements_path, stdout_path):
    with open(elements_path, "rb") as stdin, open(stdout_path, "wb") as stdout:
        c = Child(argv, stdin, stdout)
    deadline = c.t0 + CHILD_TIMEOUT_S
    while c.pump(0.05, b"reading elements from stdin"):
        if time.perf_counter() > deadline:
            c.kill()
            break
    c.reap()
    return c


def expect_summary(c, summary):
    """The CLI's closing stderr line must match the reference's counts."""
    elements, alerts, live = summary.split()
    want = "%s elements, %s alerts, %s queries still live" % (elements, alerts, live)
    return want.encode() in c.err


def run_cli(w, work, seconds):
    manifest = read_manifest(work)
    elements = int(manifest["elements"])
    argv = [RTS_CLI] + manifest["args"].split() + ["--queries", os.path.join(work, "queries.csv")]
    wal = manifest["kind"] == "cli_wal"
    with open(os.path.join(work, "reference.summary")) as f:
        summary = f.read().strip()
    with open(os.path.join(work, "reference.alerts"), "rb") as f:
        reference = f.read()
    elements_path = os.path.join(work, "elements.csv")
    out_path = os.path.join(work, "child.out")
    wal_path = os.path.join(work, "wal")
    correct = True

    def child(argv):
        if wal:
            shutil.rmtree(wal_path, ignore_errors=True)
            os.sync()  # no earlier child's writeback competes with this one's fsyncs
            argv = argv + ["--wal", wal_path]
        c = cli_child(argv, elements_path, out_path)
        if c.t_ready is None:
            raise Fatal("%s: child never reached its ready line (exit %s): %s"
                        % (w, c.proc.returncode, c.err.decode(errors="replace").strip()[-400:]))
        ok = c.proc.returncode == 0 and expect_summary(c, summary)
        if ok and "--quiet" not in argv:
            with open(out_path, "rb") as f:
                ok = f.read() == reference
        if not ok:
            log("%s child failed its output check (exit %s): %s"
                % (w, c.proc.returncode, c.err.decode(errors="replace").strip()[-400:]))
        return c, ok

    # Untimed first child without --quiet: its ALERT lines must equal the
    # reference log (the timed children are checked by their counts, and,
    # when they print alerts, line by line too).
    if "--quiet" in argv:
        _, ok = child([a for a in argv if a != "--quiet"])
        correct = correct and ok
    runs = []
    failed = 0
    start = time.perf_counter()
    while len(runs) < MIN_CHILDREN or time.perf_counter() - start < seconds:
        c, ok = child(argv)
        correct = correct and ok
        if c.proc.returncode != 0:
            failed += elements
        runs.append(c)
        log("%s child %d: setup %.4f s, wall %.4f s, cpu %.4f s"
            % (w, len(runs), c.t_ready - c.t0, c.t_end - c.t0, c.cpu_s))
    for c in runs:
        c.elements, c.t_last = elements, c.t_end
    return correct, elements * len(runs), failed, end_to_end(runs)


def read_script(work):
    with open(os.path.join(work, "script.txt")) as f:
        return [line.rstrip("\n") for line in f if line.strip()]


SUCCESS = ("accepted,", "stats,", "bye")
PUSH = "matured,"


def session_child(argv, script):
    """Drive one session closed-loop: write a frame, read until its final
    reply, then the next. A frame unanswered for FRAME_DEADLINE_S kills
    the child; it and every frame after it count as failed."""
    c = Child(argv, subprocess.PIPE, subprocess.PIPE)
    stdin = c.proc.stdin.fileno()
    while c.t_ready is None:
        if not c.pump(FRAME_DEADLINE_S, b"session ready") or time.perf_counter() - c.t0 > CHILD_TIMEOUT_S:
            break
    finals, pushes, latencies = {}, [], []
    elements, t_last = 0, None
    if c.t_ready is not None:
        for i, frame in enumerate(script):
            data = (frame + "\n").encode()
            t_send = time.perf_counter()
            try:
                while data:
                    data = data[os.write(stdin, data):]
            except BrokenPipeError:
                break
            final = None
            while final is None:
                while b"\n" not in c.out:
                    left = t_send + FRAME_DEADLINE_S - time.perf_counter()
                    if left <= 0 or not c.pump(left):
                        break
                if b"\n" not in c.out:
                    break
                line, c.out = c.out.split(b"\n", 1)
                line = line.decode()
                if line.startswith(PUSH):
                    pushes.append(line)
                elif not line.startswith("retry,"):
                    final = line
            if final is None:
                c.kill()
                break
            latencies.append(time.perf_counter() - t_send)
            finals[i] = final
            if final.startswith(SUCCESS):
                t_last = time.perf_counter()
                if frame.startswith("batch,"):
                    elements += frame.count(";") + 1
            if final == "bye":
                break
    else:
        c.kill()
    while c.pump(0.05):
        pass
    c.reap()
    c.finals, c.pushes, c.latencies = finals, pushes, latencies
    c.elements, c.t_last = elements, t_last
    c.failed = sum(1 for i in range(len(script)) if not finals.get(i, "").startswith(SUCCESS))
    return c


def check_session(w, work, c, seen):
    """The child's pushes must equal a reference replay of the frames it
    got accepted (rtsbench check-session); identical transcripts are
    checked once."""
    accepted = [i for i, f in sorted(c.finals.items()) if f.startswith("accepted,")]
    key = (tuple(accepted), tuple(c.pushes))
    if key in seen:
        return seen[key]
    acc_path = os.path.join(work, "accepted.txt")
    push_path = os.path.join(work, "pushes.txt")
    with open(acc_path, "w") as f:
        f.write("".join("%d\n" % i for i in accepted))
    with open(push_path, "w") as f:
        f.write("".join(p + "\n" for p in c.pushes))
    r = subprocess.run([RTSBENCH, "check-session", "--workload", w, "--dir", work,
                        "--accepted", acc_path, "--pushes", push_path],
                       stdout=sys.stderr, stderr=sys.stderr)
    seen[key] = r.returncode == 0
    return seen[key]


def session_children(w, work, seconds, min_children):
    manifest = read_manifest(work)
    argv = [RTS_SERVE] + manifest["args"].split()
    script = read_script(work)
    runs, seen, correct = [], {}, True
    start = time.perf_counter()
    while len(runs) < min_children or time.perf_counter() - start < seconds:
        c = session_child(argv, script)
        if c.t_ready is None or c.t_last is None or c.elements == 0:
            raise Fatal("%s: session never became ready or ingested nothing: %s"
                        % (w, c.err.decode(errors="replace").strip()[-400:]))
        correct = check_session(w, work, c, seen) and correct
        runs.append(c)
    return runs, correct, len(script)


def frame_metrics(runs, frames):
    lat = [x for c in runs for x in c.latencies]
    return {
        "session.frame_p50_ms": percentile(lat, 50) * 1e3,
        "session.frame_p99_ms": percentile(lat, 99) * 1e3,
        "session.frame_samples": len(lat),
        "session.failed_frac": sum(c.failed for c in runs) / (frames * len(runs)),
    }


def run_session(w, work, seconds):
    runs, correct, frames = session_children(w, work, seconds, MIN_CHILDREN)
    fm = frame_metrics(runs, frames)
    log("%s: %d children; frames p50 %.3f ms, p99 %.3f ms over %d samples; failed %d of %d"
        % (w, len(runs), fm["session.frame_p50_ms"], fm["session.frame_p99_ms"],
           fm["session.frame_samples"], sum(c.failed for c in runs), frames * len(runs)))
    return correct, frames * len(runs), sum(c.failed for c in runs), end_to_end(runs)


def run_trace(w, work, seconds):
    manifest = read_manifest(work)
    session = manifest["kind"] == "session"
    extra = {k: 0.0 for k in SESSION_FRAMES}
    attempted, failed, correct = 0, 0, True
    if session:
        # One timed child for the session's frame figures, then the
        # in-process passes in the time that is left.
        t = time.perf_counter()
        runs, correct, frames = session_children(w, work, 0, 1)
        extra = frame_metrics(runs, frames)
        attempted, failed = frames * len(runs), sum(c.failed for c in runs)
        seconds = max(0.0, seconds - (time.perf_counter() - t))
    r = subprocess.run([RTSBENCH, "trace", "--workload", w, "--dir", work,
                        "--seconds", repr(seconds)], stdout=subprocess.PIPE, stderr=sys.stderr)
    if r.returncode != 0:
        raise Fatal("rtsbench trace exited with %d" % r.returncode)
    res = json.loads(r.stdout.decode().strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    metrics.update(extra)
    units.update(SESSION_FRAMES)
    if not session:
        attempted = int(manifest["elements"]) * res["passes"] * 2
    return correct and res["correct"], attempted, failed, metrics, units


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    work = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        build()
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        r = subprocess.run([RTSBENCH, "gen", "--workload", args.workload, "--seed", str(args.seed),
                            "--dir", work], stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise Fatal("input generation failed")
        kind = read_manifest(work)["kind"]
        if args.trace:
            correct, attempted, failed, metrics, units = run_trace(
                args.workload, work, args.seconds)
        else:
            run = run_session if kind == "session" else run_cli
            correct, attempted, failed, metrics = run(args.workload, work, args.seconds)
            units = END_TO_END
    except Fatal as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    out = {k: {"value": metrics[k], "unit": units[k]} for k in metrics}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
