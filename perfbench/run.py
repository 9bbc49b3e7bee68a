"""Seeded benchmark of l1lattice: one workload per process, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decompose --seed 11 --seconds 20 --trace 0

One client sends the next request as soon as the previous one completes,
with no think time, cycling through a request list built from the seed.
The independent output check after each request runs with the clock
paused. A run stops at the first round boundary after at least
``--seconds`` of request time, at least MIN_REQUESTS requests (so the 90th
percentile always has ten samples beyond it) and the whole list once.

Other tenants of a shared machine slow it down by up to 1.8x for seconds
to minutes at a time. Before every request the client therefore times a
fixed reference loop that does not touch the package, and reports each
request's time scaled to the loop's speed on a quiet machine. The raw
times are kept in the record file.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
requests untraced and then traced, and prints the per-layer metrics of the
traced half plus the tracing overhead. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
full record, with run metadata and the output digest, goes to
``perfbench/out/``. ``--smoke`` shrinks every workload for the benchmark's
own test. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MODULES = ("core", "decompose", "operators", "tensor", "extension", "lp",
           "oracle", "jsonio", "generate", "acceptance", "cli")

END_TO_END = {"throughput_rps": "req/s", "latency_p50_ms": "ms",
              "latency_p90_ms": "ms", "cpu_ms_per_req": "ms",
              "peak_rss_mb": "MB", "failed_ratio": "fraction", "setup_s": "s"}
# failed_ratio is 0 on correct code, so it is reported but not listed as a
# bounded metric; the result line carries it as attempted and failed
BOUNDED = tuple(k for k in END_TO_END if k != "failed_ratio")

MIN_REQUESTS = 100
SETUPS = 5
# requests on each side whose reference times set a request's scale
REF_WINDOW = 3
# stop a run early rather than miss the 180 s limit on a slow machine
WALL_CAP_S = 120.0


def import_package() -> types.SimpleNamespace:
    """Import l1lattice afresh from this checkout's src directory."""
    for name in [n for n in sys.modules
                 if n == "l1lattice" or n.startswith("l1lattice.")]:
        del sys.modules[name]
    pkg = importlib.import_module("l1lattice")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"l1lattice imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"l1lattice.{m}")
                                    for m in MODULES})


class Reference:
    """A fixed loop that never touches the package, timed before every
    request: its time tracks the machine's current speed.

    Interpreter work is slowed about twice as much by other tenants as
    numpy arithmetic on large arrays, so a workload whose requests are
    mostly dense array work (``tableau=True``) adds row operations on a
    tableau-sized array to the loop. ``nominal`` sets the scale, about the
    loop's time on an unloaded 2-core x86-64 sandbox: scaled times are
    what the requests take on a machine where the loop takes that long."""

    def __init__(self, np, tableau: bool):
        self.a = np.arange(32.0)
        self.tableau = np.random.default_rng(0).random((150, 300)) if tableau else None
        self.np = np
        self.nominal = 7e-4 if tableau else 3e-4

    def __call__(self) -> float:
        a = self.a
        t0 = time.perf_counter()
        s = 0.0
        for i in range(200):
            s += float(a @ a) + len(str(i))
        if self.tableau is not None:
            t = self.tableau.copy()
            for j in range(4):
                t -= self.np.outer(t[:, j], t[j] / t[j, j])
        return time.perf_counter() - t0


def scaled(refs: list[float], times: list[float], nominal: float) -> list[float]:
    """Scale time i by the median reference time measured around it; refs
    holds one more entry than times, taken after the last request."""
    out = []
    for i, t in enumerate(times):
        local = refs[max(0, i - REF_WINDOW + 1):i + REF_WINDOW + 1]
        out.append(t * nominal / statistics.median(local))
    return out


class Server:
    """One closed-loop client over a workload's request list."""

    def __init__(self, lib, wl, reference, started: float):
        self.lib, self.wl, self.reference = lib, wl, reference
        self.started = started
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.chunks = []        # digest input: the first round's outputs

    def one(self, i: int) -> tuple[float, float]:
        """Run and check request i; return its latency and CPU seconds."""
        wl = self.wl
        req = wl.requests[i % len(wl.requests)]
        if self.tracer is not None:
            self.tracer.request = self.attempted
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, problems = wl.run(self.lib, req), []
        except Exception:
            out, problems = None, [traceback.format_exc()]
        t1 = time.perf_counter()
        c1 = time.process_time()
        if not problems:
            try:
                if wl.settle is not None:
                    out = wl.settle(req, out)
                problems = wl.check(req, out)
            except Exception:
                problems = [traceback.format_exc()]
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"request {i} ({req.kind}) failed: " + "; ".join(problems),
                      file=sys.stderr)
        elif len(self.chunks) == i < wl.round_len:
            self.chunks.append(wl.digest(req, out))
        return t1 - t0, c1 - c0

    def over_time(self) -> bool:
        if time.perf_counter() - self.started > WALL_CAP_S:
            print("wall-clock cap reached", file=sys.stderr)
            return True
        return False

    def serve(self, seconds: float, min_requests: int,
              count: int | None = None) -> dict:
        """Run requests from the start of the list: whole rounds until at
        least ``min_requests`` requests and ``seconds`` of request time,
        or exactly ``count`` requests. Returns raw latencies and CPU
        times, the reference time before each request and after the last,
        and both kinds of time scaled to the reference."""
        lat, cpu, refs = [], [], []
        i = 0
        while True:
            refs.append(self.reference())
            dt, dc = self.one(i)
            lat.append(dt)
            cpu.append(dc)
            i += 1
            if count is not None:
                done = i >= count
            else:
                done = (i % self.wl.round_len == 0 and i >= min_requests
                        and sum(lat) >= seconds)
            if done or self.over_time():
                break
        refs.append(self.reference())
        return {"lat": lat, "cpu": cpu, "refs": refs,
                "lat_scaled": scaled(refs, lat, self.reference.nominal),
                "cpu_scaled": scaled(refs, cpu, self.reference.nominal)}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# run metadata
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info(np) -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    info["threads"] = threads
    info["env"] = {k: os.environ[k] for k in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    return info


def metadata(np, args) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    # One BLAS thread, set before numpy loads. On a 2-core box the default
    # pool of two spun the second core, doubling CPU time per request with
    # no wall-clock gain, and made runs noisier.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, HERE)
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no minimum request count")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "l1lattice", "__init__.py")):
        print(f"error: no l1lattice package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    started = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup_raw = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            lib = import_package()
            wl = workloads.WORKLOADS[args.workload](
                lib, np.random.default_rng(args.seed), workdir, args.smoke)
            setup_raw.append(time.perf_counter() - t0)
        # Instance files are written once, off the clock: on ext4 with
        # online discard, creating thousands of files right after the last
        # run deleted its own stalls by a factor that grows from run to run.
        for path, doc in wl.files:
            lib.jsonio.write_json(path, doc)
        # every run serves the whole list, so it sees the full size design
        min_requests = 1 if args.smoke else max(MIN_REQUESTS, len(wl.requests))
        reference = Reference(np, wl.tableau)
        record = {"meta": metadata(np, args)}
        server = Server(lib, wl, reference, started)

        if args.trace == 0:
            run = server.serve(args.seconds, min_requests)
            lat = run["lat_scaled"]
            p90 = percentile(lat, 90)
            values = {
                "throughput_rps": len(lat) / sum(lat),
                "latency_p50_ms": 1e3 * percentile(lat, 50),
                "latency_p90_ms": 1e3 * p90,
                "cpu_ms_per_req": 1e3 * sum(run["cpu_scaled"]) / len(lat),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "failed_ratio": server.failed / server.attempted,
                # set-up runs just before serving, so the run's median
                # reference time scales it
                "setup_s": statistics.median(setup_raw) * reference.nominal
                / statistics.median(run["refs"]),
            }
            raw = run["lat"]
            record["raw"] = {
                "throughput_rps": len(raw) / sum(raw),
                "latency_p50_ms": 1e3 * percentile(raw, 50),
                "latency_p90_ms": 1e3 * percentile(raw, 90),
                "cpu_ms_per_req": 1e3 * sum(run["cpu"]) / len(raw),
                "setup_s": statistics.median(setup_raw),
            }
            units = END_TO_END
            reported = BOUNDED
            record["meta"].update(
                latency_samples=len(lat),
                samples_beyond_p90=sum(x > p90 for x in lat),
                busy_s=sum(raw),
                reference_median_s=statistics.median(run["refs"]))
            record["samples"] = {k: run[k] for k in ("lat", "cpu", "refs")}
        else:
            import tracing
            plain = server.serve(args.seconds / 2.0, 1)
            n = len(plain["lat"])
            tracer = tracing.Tracer()
            tracer.install(lib)
            server.tracer = tracer
            try:
                traced = server.serve(0.0, 1, count=n)
            finally:
                tracer.uninstall()
            values = tracing.layer_metrics(
                tracer, len(traced["lat"]), sum(traced["lat"]),
                n / sum(plain["lat_scaled"]),
                len(traced["lat"]) / sum(traced["lat_scaled"]))
            units = tracing.PER_LAYER
            reported = tuple(units)
            spans_path = os.path.join(
                OUT, f"spans-{args.workload}-s{args.seed}.jsonl")
            tracer.write(spans_path)
            record["meta"].update(requests_per_phase=n, spans=len(tracer.spans),
                                  spans_file=os.path.relpath(spans_path, ROOT))
        attempted, failed = server.attempted, server.failed
        record["meta"].update(
            attempted=attempted, failed=failed,
            digest=workloads.digest_of(server.chunks),
            digest_requests=len(server.chunks),
            setup_s_raw=setup_raw,
            wall_s=time.perf_counter() - started)
        record["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in values.items()}
        path = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for k, v in values.items():
        print(f"{k:34s} {v:14.6g} {units[k]}")
    print("meta " + json.dumps(record["meta"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
