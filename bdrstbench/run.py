#!/usr/bin/env python3
"""The bdrst benchmark: one command, two workloads, every verdict checked.

    python3 bdrstbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds `bdrst` and the in-process
tracer in `bdrstbench/tracer` from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), works in a temporary
directory under `.bench_work/`, and removes that directory when it ends.

`--trace 0` drives the real program surface - `bdrst serve` over a
socket - and reports the end-to-end metrics named in BENCHMARK.json. `--trace 1` runs the same workload, prints its
untraced figures, then replays the same seeded inputs in-process through
each layer's public functions (the tracer) and reports the per-layer
metrics. The last stdout line is the result object.

Wall time, CPU time and memory belong to the program under test and are
read from outside it, from /proc/<pid> of the server. Every client waits
for its reply (closed loop).
"""

import argparse
import json
import math
import multiprocessing
import os
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import families  # noqa: E402

# cold_explore runs a fixed number of rounds, each on a fresh server;
# every round sends one fresh draw of every class. Fixed: a run does the
# same work on every commit, and the ranks of the median and the tail
# (N - 10 of N samples) stay inside one class's block of samples instead
# of between two classes of different cost, which would make them jump
# from run to run. Fresh servers: a server keeps every entry it computes,
# with its state graph, so one server over all rounds would grow past
# 2 GB. A round takes about 5.8 s on a 2-core x86-64 container, so
# --seconds 40 gives 7 rounds.
COLD_ROUND_S = 5.8

# Within a round the classes go in a shuffled order that is the same for
# every seed: the server's peak RSS depends on the order in which entries
# are computed, so a seeded order made peak_rss_mb follow the seed (its
# quartile spread was 0.03 over five seeds, and under 0.01 over ten with
# this one).
ORDER_SEED = 0x5EED

# Set-ups per warm_mixed run; setup_s is their median and the last one
# serves the timed phase. cold_explore's set-up is each round's server
# start.
WARM_SETUPS = 3

WARM_CONNECTIONS = 2  # = nproc on the 2-core box the benchmark targets

TRACE_CMDS = ("check-races", "check-localdrf")
ALL_CMDS = ("check", "check-global") + TRACE_CMDS
# warm_mixed's mix is assumed, not measured: no trace of real bdrst
# traffic exists. Rule: programs are Zipf-popular by their rank in
# families.SIZES["warm_mixed"], which lists them fewest states first, so
# smaller programs are asked about more often; a request to a program
# picks each of its commands with equal chance. The exponent is YCSB's
# default Zipfian constant (Cooper et al., "Benchmarking Cloud Serving
# Systems with YCSB", SoCC 2010). The seed varies only the request stream,
# so every seed runs the same mix.
ZIPF_S = 0.99
MB = float(1 << 20)

_children = []


def fail(msg):
    """Aborts the run without a result line."""
    print(f"bdrstbench: {msg}", file=sys.stderr)
    sys.exit(2)


def stop_children():
    for p in _children:
        if p.poll() is None:
            p.kill()
        try:
            p.wait(timeout=30)
        except subprocess.SubprocessError:
            pass
    _children.clear()


def spawn(args, **kw):
    p = subprocess.Popen(args, **kw)
    _children.append(p)
    return p


# --------------------------------------------------------------- build


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds `bdrst` and the tracer (both at once, so only a checkout's
    first run pays for compiling); returns the `bdrst` binary."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "service", "Cargo.toml")):
        fail("no bdrst sources next to the benchmark (crates/service is missing)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(BENCH, "tracer", "Cargo.toml")
    cmds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "bdrst-service", "--bin", "bdrst"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest],
    ]
    for cmd in cmds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(target_dir(), "release", "bdrst")


# ------------------------------------------------------------ measuring


def proc_cpu_s(pid):
    """User + system CPU seconds of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / MB
    fail(f"no VmHWM for pid {pid}")


def reset_hwm(pid):
    """Resets VmHWM to the current RSS (Linux 4.0 and later), so a later
    reading covers only what came after."""
    with open(f"/proc/{pid}/clear_refs", "w") as f:
        f.write("5")


def dir_mb(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total / MB


def tail(sorted_vals):
    """The highest percentile with at least ten samples beyond it: the
    value at nearest rank N - 10 of an ascending list, as (percentile,
    value). When that rank is below the median (N < 20), the largest value,
    as p100."""
    n = len(sorted_vals)
    if n - 10 < n / 2:
        return 100.0, sorted_vals[-1]
    return 100.0 * (n - 10) / n, sorted_vals[n - 11]


class Tally:
    """Requests of one timed phase: latencies (failed ones as infinite),
    failures, and wrong verdicts."""

    def __init__(self):
        self.lat_s = []
        self.failed = 0
        self.wrong = []
        self.lock = threading.Lock()

    def add(self, lat_s, ok, problems):
        with self.lock:
            self.lat_s.append(lat_s if ok else math.inf)
            self.failed += 0 if ok else 1
            self.wrong.extend(problems)


# ---------------------------------------------------------- correctness


def verify(cmd, prog, resp, cached):
    """The verdict checks for one response. Returns (ok, problems): `ok`
    is the response's own success flag; `problems` lists wrong verdicts,
    which fail the whole run."""
    if not resp.get("ok"):
        return False, []
    bad = []
    where = f"{cmd} {prog.label}"
    if cached is not None and resp.get("cached") is not cached:
        bad.append(f"{where}: cached={resp.get('cached')}, expected {cached}")
    if cmd == "check":
        op, ax = resp.get("operational"), resp.get("axiomatic")
        if resp.get("models_agree") is not True or op != ax:
            bad.append(f"{where}: operational and axiomatic outcomes differ")
        if prog.outcomes is not None and (op is None or len(op) != prog.outcomes):
            bad.append(f"{where}: {len(op or [])} outcomes, expected {prog.outcomes}")
    elif cmd == "check-races":
        if resp.get("racy") is not prog.racy or bool(resp.get("witnesses")) is not prog.racy:
            bad.append(f"{where}: racy={resp.get('racy')}, expected {prog.racy}")
    elif cmd == "check-global":
        if resp.get("racefree") is not (not prog.racy):
            bad.append(f"{where}: racefree={resp.get('racefree')}, expected {not prog.racy}")
    elif cmd == "check-localdrf":
        if resp.get("holds") is not True:
            bad.append(f"{where}: local DRF (Thm 13) does not hold")
    return True, bad


def request_line(rid, cmd, prog):
    return (json.dumps({"id": rid, "cmd": cmd, "source": prog.source}) + "\n").encode()


# -------------------------------------------------------------- server


class Server:
    """A `bdrst serve` process on 127.0.0.1:0 with a fresh cache dir."""

    def __init__(self, bdrst, work):
        os.makedirs(work)
        self.cache = os.path.join(work, "cache")
        self.proc = spawn(
            [bdrst, "serve", "--addr", "127.0.0.1:0", "--cache-dir", self.cache],
            cwd=work,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("bdrst serving on "):
            fail(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    @property
    def pid(self):
        return self.proc.pid

    def stop(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


class Conn:
    """One closed-loop client connection: send a line, wait for the whole
    response line."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def roundtrip(self, line):
        """Returns (seconds, response bytes without the newline); the
        response is None when the connection broke."""
        start = time.perf_counter()
        try:
            self.sock.sendall(line)
            while b"\n" not in self.buf:
                chunk = self.sock.recv(1 << 20)
                if not chunk:
                    return time.perf_counter() - start, None
                self.buf += chunk
        except OSError:
            return time.perf_counter() - start, None
        resp, self.buf = self.buf.split(b"\n", 1)
        return time.perf_counter() - start, resp

    def close(self):
        self.sock.close()


def send_all(port, items, tally, cached, conns):
    """Sends `items` [(cmd, prog)] over `conns` connections in a closed loop,
    checking every verdict. Connection k takes programs k, k+conns, ...
    with all of a program's commands, in order: two concurrent cold
    requests for one program would each insert an entry, and a verdict
    memoized into the entry that loses is lost."""
    order = list(dict.fromkeys(prog.source for _, prog in items))
    owner = {src: i % conns for i, src in enumerate(order)}

    def client(part):
        conn = Conn(port)
        for i, (cmd, prog) in enumerate(part):
            dt, resp = conn.roundtrip(request_line(i, cmd, prog))
            ok, bad = verify(cmd, prog, json.loads(resp), cached) if resp else (False, [])
            tally.add(dt, ok, bad)
        conn.close()

    parts = [[it for it in items if owner[it[1].source] == k] for k in range(conns)]
    threads = [threading.Thread(target=client, args=(part,)) for part in parts]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def server_metric(port, path):
    conn = Conn(port)
    _, resp = conn.roundtrip(b'{"cmd":"metrics"}\n')
    conn.close()
    value = json.loads(resp)["metrics"]
    for key in path:
        value = value[key]
    return value


# ------------------------------------------------------------ workloads


def plan_rounds(seed, seconds):
    """cold_explore's rounds, each a list of programs: every class once,
    freshly drawn, in an order that does not depend on the seed."""
    draw = families.Draw(seed)
    rng = random.Random(ORDER_SEED)
    rounds = []
    for _ in range(max(2, round(seconds / COLD_ROUND_S))):
        batch = [draw.program(fam, n) for fam, n, _ in families.SIZES["cold_explore"]]
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds


def trace_probe(seed):
    """One draw of each families.SIZES["trace_probe"] class, the two trace
    commands alternating: the inputs on which cold_explore's traced run
    times the trace-mode layers its `check` requests never enter."""
    draw = families.Draw(seed)
    return [
        (TRACE_CMDS[i % 2], draw.program(fam, n))
        for i, (fam, n, _) in enumerate(families.SIZES["trace_probe"])
    ]


def warm_set(seed):
    """The warm_mixed program set with each program's commands."""
    draw = families.Draw(seed)
    out = []
    for fam, n, _ in families.SIZES["warm_mixed"]:
        cmds = ALL_CMDS if (fam, n) in families.TRACE_ELIGIBLE else ALL_CMDS[:2]
        out.append((draw.program(fam, n), cmds))
    return out


def popularity(progs):
    """Every (cmd, prog) pair with its share of the mix: the program's
    Zipf(ZIPF_S) weight by rank, split equally over its commands."""
    pairs, weights = [], []
    for rank, (prog, cmds) in enumerate(progs):
        for cmd in cmds:
            pairs.append((cmd, prog))
            weights.append(1.0 / (rank + 1) ** ZIPF_S / len(cmds))
    return pairs, weights


def warm_picker(seed, progs, stream):
    """A seeded skewed-popularity stream of (cmd, prog)."""
    pairs, weights = popularity(progs)
    rng = random.Random(seed * 1000 + stream)
    while True:
        yield from rng.choices(pairs, weights=weights, k=256)


def warm_sample(seed, progs, n):
    """About n requests for the traced run with the mix's expected
    composition (each pair round(n * share) times, at least once), in
    seeded order: the same multiset for every seed, so the traced run's
    byte and event counts repeat across seeds."""
    pairs, weights = popularity(progs)
    total = sum(weights)
    sample = [pair for pair, w in zip(pairs, weights) for _ in range(max(1, round(n * w / total)))]
    random.Random(seed).shuffle(sample)
    return sample


def setup_failed(tally):
    """Set-up requests are not timed, but their verdicts are checked: a
    wrong one, or a request that failed, ends the run without a result."""
    for problem in tally.wrong:
        print(f"WRONG VERDICT (set-up): {problem}")
    if tally.failed or tally.wrong:
        fail(f"set-up: {tally.failed} requests failed, {len(tally.wrong)} wrong verdicts")


class Outcome:
    """What one workload run measured."""

    def __init__(self):
        self.setups = []
        self.tally = Tally()
        self.elapsed = 0.0
        self.cpu_s = 0.0
        self.rss_mb = 0.0
        self.disk_mb = 0.0
        self.fill_rss_mb = None  # warm_mixed: the server's peak during set-up
        self.inputs = []  # (role, cmd, prog) for the tracer


def run_cold_workload(bdrst, work, seed, seconds):
    res = Outcome()
    rounds = [[("check", prog) for prog in batch] for batch in plan_rounds(seed, seconds)]
    # The traced run replays the first round: one draw of every class.
    res.inputs = [("req", cmd, prog) for cmd, prog in rounds[0]]
    for r, items in enumerate(rounds):
        t0 = time.perf_counter()
        server = Server(bdrst, os.path.join(work, f"round{r}"))
        try:
            res.setups.append(time.perf_counter() - t0)
            cpu0 = proc_cpu_s(server.pid)
            t0 = time.perf_counter()
            send_all(server.port, items, res.tally, False, 1)
            res.elapsed += time.perf_counter() - t0
            res.cpu_s += proc_cpu_s(server.pid) - cpu0
            res.rss_mb = max(res.rss_mb, proc_hwm_mb(server.pid))
            res.disk_mb = dir_mb(server.cache)
        finally:
            server.stop()
            shutil.rmtree(os.path.join(work, f"round{r}"))
    return res


def run_warm_workload(bdrst, work, seed, seconds):
    res = Outcome()
    progs = warm_set(seed)
    fill = [(cmd, prog) for prog, cmds in progs for cmd in cmds]
    res.inputs = [("fill", cmd, prog) for cmd, prog in fill]
    server = None
    try:
        for rep in range(WARM_SETUPS):
            if server:
                server.stop()
            t0 = time.perf_counter()
            server = Server(bdrst, os.path.join(work, f"serve{rep}"))
            setup_tally = Tally()
            send_all(server.port, fill, setup_tally, None, WARM_CONNECTIONS)
            res.setups.append(time.perf_counter() - t0)
            setup_failed(setup_tally)

        # peak_rss_mb covers the timed phase only, not the fill's cold
        # checks and trace recordings.
        res.fill_rss_mb = proc_hwm_mb(server.pid)
        reset_hwm(server.pid)
        cpu0 = proc_cpu_s(server.pid)
        states0 = server_metric(server.port, ["engine", "states_visited"])
        t0 = time.perf_counter()
        warm_phase(server.port, seed, progs, seconds, res.tally)
        res.elapsed = time.perf_counter() - t0
        states1 = server_metric(server.port, ["engine", "states_visited"])
        res.cpu_s = proc_cpu_s(server.pid) - cpu0
        res.rss_mb = proc_hwm_mb(server.pid)
        res.disk_mb = dir_mb(server.cache)
    finally:
        if server:
            server.stop()
    if states1 != states0:
        res.tally.wrong.append(f"warm phase ran the engine: states_visited {states0} -> {states1}")
    res.inputs += [("req", cmd, prog) for cmd, prog in warm_sample(seed, progs, 400)]
    return res


def warm_phase(port, seed, progs, seconds, tally):
    """Closed-loop skewed mix for `seconds`, one client process per
    connection (separate processes, so one client's verification work
    never delays the other's timing). Every distinct response line is
    verified once in full; repeats must match it byte for byte."""
    deadline = time.perf_counter() + seconds

    def client(stream, out):
        conn = Conn(port)
        picks = warm_picker(seed, progs, stream)
        lines, verified = {}, {}
        mine = Tally()
        while time.perf_counter() < deadline:
            cmd, prog = next(picks)
            line = lines.get((cmd, prog.label))
            if line is None:
                line = lines[(cmd, prog.label)] = request_line(0, cmd, prog)
            dt, resp = conn.roundtrip(line)
            if resp is not None and verified.get(line) == resp:
                mine.add(dt, True, [])
                continue
            ok, bad = verify(cmd, prog, json.loads(resp), True) if resp else (False, [])
            if ok and not bad:
                verified[line] = resp
            mine.add(dt, ok, bad)
        conn.close()
        out.send((mine.lat_s, mine.failed, mine.wrong))
        out.close()

    ctx = multiprocessing.get_context("fork")
    clients = []
    for k in range(WARM_CONNECTIONS):
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=client, args=(k, send), daemon=True)
        proc.start()
        send.close()
        clients.append((proc, recv))
    for proc, recv in clients:
        try:
            lat_s, failed, wrong = recv.recv()
        except EOFError:
            lat_s, failed, wrong = [], 0, ["warm client process died"]
        proc.join()
        tally.lat_s += lat_s
        tally.failed += failed
        tally.wrong += wrong


# -------------------------------------------------------------- tracer


def run_tracer(bdrst, work, workload, seed, inputs):
    """Replays `inputs` in-process through the tracer. Returns its metrics
    and the wrong verdicts among the responses it produced, checked by
    `verify` like the untraced run's."""
    tracer = os.path.join(target_dir(), "release", "bdrstbench-tracer")
    plan = os.path.join(work, "plan.tsv")
    responses = os.path.join(work, "responses.tsv")
    probe = []
    if not any(cmd in TRACE_CMDS for _, cmd, _ in inputs):
        # This workload's requests never record traces; the trace-mode
        # layers are timed on trace checks of the same seed.
        probe = [("probe", cmd, prog) for cmd, prog in trace_probe(seed)]
    plan_items = inputs + probe
    with open(plan, "w") as f:
        for role, cmd, prog in plan_items:
            f.write(f"{role}\t{cmd}\t{prog.label}\t{prog.source}\n")
    tdir = os.path.join(work, "tracer")
    os.makedirs(tdir)
    p = spawn(
        [tracer, "--workload", workload, "--plan", plan, "--bdrst", bdrst, "--work", tdir, "--responses", responses],
        cwd=tdir,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    out, _ = p.communicate()
    if p.returncode != 0:
        fail(f"tracer exited with {p.returncode}")
    wrong, checked = [], set()
    with open(responses) as f:
        for line in f:
            index, cmd, cached, resp = line.rstrip("\n").split("\t", 3)
            prog = plan_items[int(index)][2]
            ok, bad = verify(cmd, prog, json.loads(resp), {"0": False, "1": True}.get(cached))
            wrong += bad if ok else [f"{cmd} {prog.label}: request failed: {resp[:200]}"]
            checked.add(int(index))
    if checked != set(range(len(plan_items))):
        wrong.append(f"the tracer answered {len(checked)} of {len(plan_items)} plan lines")
    return json.loads(out.decode().strip().splitlines()[-1]), wrong


# ---------------------------------------------------------------- main


def end_to_end(res):
    """The end-to-end metrics, plus (tail percentile, sample count). A
    failed request missed every latency limit: it counts as taking the
    whole timed phase."""
    lat_ms = sorted((x if math.isfinite(x) else res.elapsed) * 1000.0 for x in res.tally.lat_s)
    completed = len(lat_ms) - res.tally.failed
    tl = tail(lat_ms)
    metrics = {
        "setup_s": statistics.median(res.setups),
        "req_p50_ms": statistics.median(lat_ms),
        "req_tail_ms": tl[1],
        "req_per_s": completed / res.elapsed,
        "cpu_ms_per_req": res.cpu_s * 1000.0 / max(1, completed),
        "peak_rss_mb": res.rss_mb,
        "disk_mb": res.disk_mb,
    }
    return metrics, (tl[0], len(lat_ms))


def run_workload(name, args, wanted, bdrst):
    """Runs one workload and prints its figures; returns its result object.
    The server and every other child are stopped, and the work directory
    removed, however the run ends."""
    work = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if name == "warm_mixed":
            res = run_warm_workload(bdrst, work, args.seed, args.seconds)
        else:
            res = run_cold_workload(bdrst, work, args.seed, args.seconds)
        attempted = len(res.tally.lat_s)
        if not attempted:
            fail("no request was attempted")
        e2e, tail_info = end_to_end(res)
        for problem in res.tally.wrong[:20]:
            print(f"WRONG VERDICT: {problem}")
        print(
            f"{name}: {attempted} requests, {res.tally.failed} failed "
            f"({res.tally.failed / attempted:.1%}), {len(res.tally.wrong)} wrong verdicts, "
            f"{len(res.setups)} setups"
        )
        print(f"req_tail_ms is p{tail_info[0]:.2f} over {tail_info[1]} samples")
        if res.fill_rss_mb is not None:
            print(f"set-up peak RSS {res.fill_rss_mb:.1f} MB (not in peak_rss_mb)")
        for metric, value in e2e.items():
            print(f"  {metric:16} {value:.6g}")
        metrics = e2e
        if args.trace and not res.tally.wrong:
            layers, wrong = run_tracer(bdrst, work, name, args.seed, res.inputs)
            for problem in wrong:
                print(f"WRONG VERDICT (traced run): {problem}")
            res.tally.wrong += wrong
            print(
                f"per-request total: untraced req_p50_ms {e2e['req_p50_ms']:.4f} over the socket, "
                f"traced in-process {layers['traced.request_ms']:.4f} ms"
            )
            metrics = layers
        out = {}
        for m in wanted:
            if m["name"] not in metrics:
                fail(f"metric {m['name']} was not measured")
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        return {"correct": not res.tally.wrong, "attempted": attempted, "failed": res.tally.failed, "metrics": out}
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or `all`")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except OSError:
        fail("BENCHMARK.json not found")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    bdrst = build()
    if args.workload != "all":
        result = run_workload(args.workload, args, wanted, bdrst)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # `--workload all`: every workload in turn, then one summary object
    # with every workload's metrics.
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in names:
        print(f"== {name}", flush=True)
        result = run_workload(name, args, wanted, bdrst)
        print(json.dumps(result), flush=True)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
