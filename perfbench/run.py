"""hdts benchmark: one workload per process, closed loop, gated outputs.

    python3 perfbench/run.py --workload ga-linear --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; hdts is imported from ./src.  With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run (see perfbench/README.md).  Every run
also writes its result, with the host and thread settings, under
.perfbench/results/.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# BLAS threads per workload, pinned before numpy loads.  The hdts `threads`
# argument is set by each workload class.
BLAS_THREADS = {"ga-linear": 1, "coverage-tar": 1, "covtest-cli": 2}
SETUP_REPEATS = 5   # this process plus four set-up-only child processes
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="hdts benchmark")
    ap.add_argument("--workload", required=True, choices=[*BLAS_THREADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the inputs (smoke test only; figures not comparable)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def fail(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def load_program(workload: str):
    """Pin thread counts, then import hdts from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "hdts" / "__init__.py").is_file():
        fail(f"no hdts sources under {src}")
    n = str(BLAS_THREADS[workload])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    sys.path[:0] = [str(src), str(HERE)]
    import hdts
    if not Path(hdts.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"imported hdts from {hdts.__file__}, not from {src}")
    import workloads
    return workloads


def nearest_rank(values, q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(round(q * len(s), 9)) - 1)]


class Runner:
    """Times ops in a closed loop and gates every output outside the timed region."""

    def __init__(self, wl):
        self.wl = wl
        self.failures = []
        self.kept = []      # gated outputs for the workload's run-level gate

    def timed(self, i: int, slot: str):
        """(seconds, loaded output or None, failure reason or None)."""
        t0 = time.perf_counter()
        try:
            raw = self.wl.op(i, slot)
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            return time.perf_counter() - t0, None, f"raised {exc!r}"
        dt = time.perf_counter() - t0
        try:
            out = self.wl.load(raw)
            return dt, out, self.wl.gate(out)
        except Exception as exc:
            return dt, None, f"gate raised {exc!r}"

    def note(self, i: int, reason: str | None) -> int:
        if reason is None:
            return 0
        self.failures.append(f"op {i}: {reason}")
        return self.wl.reps

    def keep(self, out, reason) -> None:
        if reason is None and hasattr(self.wl, "gate_run"):
            self.kept.append(out)

    def run_failed(self, attempted: int) -> int:
        """Failed reps of the run-level gate: all of them, if it fails."""
        if not self.kept:
            return 0
        reason = self.wl.gate_run(self.kept)
        if reason is None:
            return 0
        self.failures.append(f"run: {reason}")
        return attempted

    def plain(self, seconds: float, rep_clock) -> dict:
        """Closed loop for `seconds`.  Latency samples are per call on
        covtest-cli and per replication over blocks of replications on the
        Monte Carlo workloads (see workloads.rep_clock)."""
        wl = self.wl
        durations, rep_times, attempted, failed, i = [], [], 0, 0, 0
        clock = rep_clock(rep_times) if wl.reps > 1 else contextlib.nullcontext()
        with clock:
            start = time.perf_counter()
            while True:
                dt, out, reason = self.timed(i, "a")
                self.keep(out, reason)
                if reason is None and i == 0 and hasattr(wl, "matches_library") \
                        and not wl.matches_library(out):
                    reason = "CLI output differs from cov_simultaneous_test"
                durations.append(dt)
                attempted += wl.reps
                failed += self.note(i, reason)
                i += 1
                if time.perf_counter() - start >= seconds:
                    break
        failed = max(failed, self.run_failed(attempted))
        op_ms = [1000.0 * t for t in (rep_times or durations)]
        return {"attempted": attempted, "failed": failed, "calls": i,
                "latency_samples": len(op_ms),
                "timed_s": sum(durations), "durations_s": durations,
                "ops_per_s": (attempted - failed) / sum(durations),
                "op_p50_ms": statistics.median(op_ms),
                "op_p90_ms": nearest_rank(op_ms, 0.9)}

    def traced(self, seconds: float, tracer_mod) -> tuple[dict, object]:
        """Run each op untraced and traced; outputs must match bit for bit.

        The order alternates between ops, so drift in the host's speed does
        not bias the overhead estimate.
        """
        wl = self.wl
        tracer = tracer_mod.Tracer()

        def traced_op(i):
            uninstall = tracer_mod.install(tracer)
            tracer.op = i
            try:
                return self.timed(i, "b")
            finally:
                uninstall()

        t_plain = t_traced = 0.0
        attempted, failed, i, mismatches = 0, 0, 0, 0
        start = time.perf_counter()
        while True:
            if i % 2:
                dt_b, out_b, reason_b = traced_op(i)
                dt_a, out_a, reason_a = self.timed(i, "a")
            else:
                dt_a, out_a, reason_a = self.timed(i, "a")
                dt_b, out_b, reason_b = traced_op(i)
            self.keep(out_a, reason_a)
            if reason_a is None and reason_b is None and not wl.same(out_a, out_b):
                reason_b = "traced output differs from untraced output"
                mismatches += 1
            t_plain += dt_a
            t_traced += dt_b
            attempted += 2 * wl.reps
            failed += self.note(i, reason_a) + self.note(i, reason_b)
            i += 1
            if time.perf_counter() - start >= seconds:
                break
        failed = max(failed, self.run_failed(attempted))
        return {"attempted": attempted, "failed": failed, "calls": i,
                "trace_mismatches": mismatches,
                "overhead_frac": t_traced / t_plain - 1.0}, tracer


def child_setups(args) -> list[float]:
    """Set-up times of fresh processes doing the same set-up as this one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_one(args) -> int:
    workloads = load_program(args.workload)
    wl = workloads.make(args.workload, tiny=args.tiny)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl.setup(args.seed, workdir)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner = Runner(wl)
        if args.trace:
            import tracer as tracer_mod
            res, tracer = runner.traced(args.seconds, tracer_mod)
            values = tracer_mod.layer_metrics(tracer, res["calls"] * wl.reps)
            values["trace.overhead_frac"] = res["overhead_frac"]
            res["top_self_span"], res["top_self_module"] = tracer_mod.top_self(tracer)
            metrics = {k: {"value": v, "unit": tracer_mod.unit_of(k)}
                       for k, v in values.items()}
        else:
            res = runner.plain(args.seconds, workloads.rep_clock)
            setups = [setup_s] + child_setups(args)
            res["setup_samples_s"] = setups
            res["ops_failed_frac"] = res["failed"] / res["attempted"]
            values = {"ops_per_s": ("ops/s", res["ops_per_s"]),
                      "op_p50_ms": ("ms", res["op_p50_ms"]),
                      "op_p90_ms": ("ms", res["op_p90_ms"]),
                      "setup_s": ("s", statistics.median(setups)),
                      "peak_rss_mb": ("MB", resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0)}
            metrics = {k: {"value": v, "unit": u} for k, (u, v) in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_jsonl(OUT / "results" / f"{stem}.spans.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "tiny": args.tiny, "params": workloads.params(wl),
              "environment": workloads.environment(wl), "source": source_id(),
              "run": res, "failures": runner.failures[:20], "metrics": metrics}
    with open(OUT / "results" / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=2, default=str)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for key in ("calls", "latency_samples", "ops_failed_frac", "top_self_span", "top_self_module"):
        if key in res:
            print(f"{args.workload} {key} = {res[key]}")
    for reason in runner.failures[:5]:
        print(f"{args.workload} FAILED {reason}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def source_id() -> dict:
    """Git commit when the checkout has .git, and a digest of src/ always."""
    import hashlib
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def run_all(args) -> int:
    """Each workload in its own process; prints every end-to-end metric per workload."""
    if not (ROOT / "src" / "hdts" / "__init__.py").is_file():
        fail(f"no hdts sources under {ROOT / 'src'}")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BLAS_THREADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for k, v in last["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
