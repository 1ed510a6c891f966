"""wflag benchmark: fresh-process sweeps, checked against golden candidates.

Run from the repository root:

    python3 perfbench/run.py --workload gr25-q16 --seed 0 --seconds 55 --trace 0

Each sample is one ``wflag`` sweep in a fresh process (see probe.py), because
wflag's caches (``@cache`` on ``hilbert_series``, ``qorb``, …) live per
process and every CLI user pays to fill them.  Samples repeat until
``--seconds`` of measuring are used, and the run reports their medians.
With ``--trace 1`` the run measures for half the time, then makes one traced
sample of the same sweep and reports the per-layer metrics (see README.md).

Times are reported in *reference seconds*: measured seconds x REFERENCE_S /
calib_s, where calib_s is the mean time of one pass of the calib.py workload,
gauged just before and just after the sample on the same CPUs: a run pins
itself and its sweeps to the first ``jobs`` CPUs it may use.  The 2-core machine this
benchmark was written on runs identical sweeps up to 2x slower for minutes
at a time, and each CPU drifts on its own.  There, measured seconds of one
sweep spread by 23% (IQR/median) over 12 samples, and reference seconds by
9%.  Measured seconds are printed beside them.

The workloads have no random input: every ``--seed`` runs the same census,
and the seed is only recorded.  ``--instance twin`` selects the held-out
twin sweep of a workload instead of its canonical one.

Every sample's candidates are compared with ``goldens/<sweep>.json``; any
difference is a failed embedding, and the run then exits with status 1.
Progress and a readable report go to stderr; the last line on stdout is the
JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import golden  # noqa: E402
import spans  # noqa: E402
from calib import Calibration  # noqa: E402
from workloads import SWEEPS, WORKLOADS, Sweep  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
REFERENCE_S = 0.3  # calib_s of the 2-core Xeon sandbox when it is quiet
MIN_SAMPLES = 3
MIN_TRACE_SAMPLES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sweep_s": "s",
    "critical_embedding_s": "s",
    "peak_rss_mb": "MB",
}
SCALED = ("wall_s", "setup_s", "sweep_s", "critical_embedding_s", "busy_s")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# environment


def child_env(root: str) -> dict[str, str]:
    """The sweep's environment: wflag from ./src, fixed hashing, no WFLAG_JOBS."""
    env = {k: v for k, v in os.environ.items() if k != "WFLAG_JOBS"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine(root: str) -> dict:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# one sample


def run_sample(root: str, sweep: Sweep, jobs: int, work: str, trace: bool, timeout: float) -> dict:
    """Run one sweep in a fresh process and collect its times and outputs."""
    os.makedirs(work, exist_ok=True)
    paths = {name: os.path.join(work, name) for name in ("records", "stdout", "stderr", "report")}
    trace_dir = os.path.join(work, "spans")
    cmd = [
        sys.executable,
        os.path.join(HERE, "probe.py"),
        json.dumps(sweep.to_json()),
        str(jobs),
        paths["records"],
        paths["report"],
    ]
    if trace:
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append(trace_dir)
    with open(paths["stdout"], "w") as out, open(paths["stderr"], "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=root, env=child_env(root), stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(timeout, _kill_group, [proc.pid])
        timer.start()
        _, status = os.waitpid(proc.pid, 0)
        t1 = time.monotonic()
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers of a sweep that died early
    sample = {
        **paths,
        "rc": proc.returncode,
        "start": t0,
        "wall_s": t1 - t0,
        "trace_dir": trace_dir if trace else None,
    }
    if proc.returncode == 0 and os.path.exists(paths["report"]):
        with open(paths["report"], encoding="utf-8") as fh:
            sample["report"] = json.load(fh)
    return sample


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def check_sample(sample: dict, gold: dict, root: str) -> dict:
    """Add correctness and end-to-end values to a sample."""
    report = sample.get("report")
    attempted = len(gold["embeddings"])
    if report is None:
        sample.update(attempted=attempted, failed=[f"sweep exited with status {sample['rc']}"] * attempted)
        return sample
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(report["wflag_file"]).startswith(src + os.sep):
        raise SystemExit(f"error: the sweep imported wflag from {report['wflag_file']}, not {src}")
    output = golden.read_output(sample["records"], sample["stdout"])
    attempted, failed = golden.compare(gold, output)
    times = [rec["timing_ms"] / 1000 for rec in output["done"].values()]
    sample.update(
        attempted=attempted,
        failed=failed,
        peak_rss_mb=report["peak_rss_kb"] / 1024,
        setup_s=report["sweep_start"] - sample["start"],
        sweep_s=report["sweep_end"] - report["sweep_start"],
        critical_embedding_s=max(times),
        busy_s=sum(times),
        scanned=sum(rec["tuples_scanned"] for rec in output["done"].values()),
        candidates=len(output["emitted"]),  # distinct candidates, as printed
        record_bytes=os.path.getsize(sample["records"]),
    )
    return sample


# ---------------------------------------------------------------------------
# per-layer metrics from the traced sample


def layer_metrics(traced: dict, untraced: list[dict], jobs: int) -> dict[str, tuple[float, str]]:
    factor = REFERENCE_S / traced["calib_s"]
    states = spans.load(traced["trace_dir"])
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    ratfun_in: dict[str, float] = {}
    counters: dict[str, int] = {}
    misses: dict[str, int] = {}
    top: list[tuple[float, float]] = []
    process_self = [0.0]
    for state in states:
        sp = state["spans"]
        own = spans.self_times(sp)
        process_self.append(sum(own) * factor)
        for idx, (name, start, end, parent) in enumerate(sp):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start) * factor
            self_s[name] = self_s.get(name, 0.0) + own[idx] * factor
            if name.startswith("ratfun."):
                where = spans.nearest_other_layer(sp, idx)
                ratfun_in[where] = ratfun_in.get(where, 0.0) + own[idx] * factor
            if parent < 0 or sp[parent][0] == "cli.main":
                if name != "cli.main":
                    top.append((start, end))
        for key, val in state["counters"].items():
            counters[key] = counters.get(key, 0) + val
        for key, val in state["misses"].items():
            misses[key] = misses.get(key, 0) + val

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    report = traced["report"]
    sweep_s = report["sweep_end"] - report["sweep_start"]
    scanned = traced["scanned"]
    search_self = layer_self("search")
    busy = statistics.median(s["busy_s"] for s in untraced)
    pool_sweep = statistics.median(s["sweep_s"] for s in untraced)
    out = {
        "search.embeddings": (calls.get("search.search_embedding", 0), "count"),
        "search.scanned": (scanned, "count"),
        "search.enumerated": (report["enumerated"], "count"),
        "search.candidates": (traced["candidates"], "count"),
        "search.yield": (traced["candidates"] / scanned if scanned else 0.0, "ratio"),
        "search.search_embedding.s": (total.get("search.search_embedding", 0.0), "s"),
        "search.self_s": (search_self, "s"),
        "search.us_per_tuple": (search_self / scanned * 1e6 if scanned else 0.0, "us"),
        "ratfun.in_search.self_s": (ratfun_in.get("search", 0.0), "s"),
        "ratfun.in_formats.self_s": (ratfun_in.get("formats", 0.0), "s"),
        "ratfun.in_orbifold.self_s": (ratfun_in.get("orbifold", 0.0), "s"),
    }
    for op in ("poly_mul", "poly_divmod", "poly_gcd", "rf_add", "rf_eq"):
        out[f"ratfun.{op}.calls"] = (calls.get(f"ratfun.{op}", 0), "count")
    out.update(
        {
            "formats.hilbert_series.calls": (calls.get("formats.hilbert_series", 0), "count"),
            "formats.hilbert_series.misses": (misses.get("formats.hilbert_series", 0), "count"),
            "formats.hilbert_series.self_s": (self_s.get("formats.hilbert_series", 0.0), "s"),
            "formats.enumerate_parameters.s": (total.get("formats.enumerate_parameters", 0.0), "s"),
            "weyl.weyl_elements.self_s": (self_s.get("weyl.weyl_elements", 0.0), "s"),
            "orbifold.porb_cont.calls": (calls.get("orbifold.porb_cont", 0), "count"),
            "orbifold.porb_cont.types": (counters.get("orbifold.porb_cont.types", 0), "count"),
            "orbifold.porb_cont.self_s": (self_s.get("orbifold.porb_cont", 0.0), "s"),
            "orbifold.qorb.calls": (calls.get("orbifold.qorb", 0), "count"),
            "orbifold.qorb.misses": (misses.get("orbifold.qorb", 0), "count"),
            "orbifold.qorb.self_s": (self_s.get("orbifold.qorb", 0.0), "s"),
            "orbifold.basket_kernel.calls": (calls.get("orbifold.basket_kernel", 0), "count"),
            "orbifold.basket_kernel.self_s": (self_s.get("orbifold.basket_kernel", 0.0), "s"),
            "records.write.calls": (calls.get("records.write", 0), "count"),
            "records.write.bytes": (traced["record_bytes"], "bytes"),
            "records.write.self_s": (self_s.get("records.write", 0.0), "s"),
            "records.load_cache.s": (total.get("records.load_cache", 0.0), "s"),
            "records.emit.s": (total.get("records.emit", 0.0), "s"),
            "cli.self_s": (layer_self("cli"), "s"),
            "pool.busy_s": (busy, "s"),
            "pool.idle_share": (1 - busy / (jobs * pool_sweep), "ratio"),
            "trace.overhead": (
                traced["wall_s"] / statistics.median(s["wall_s"] for s in untraced),
                "ratio",
            ),
            "trace.coverage": (
                spans.covered(top, report["sweep_start"], report["sweep_end"]) / sweep_s,
                "ratio",
            ),
            # per process: pool workers run beside the parent, which waits
            "trace.self_share": (max(process_self) / traced["wall_s"], "ratio"),
            "measured.wall_s": (statistics.median(s["measured"]["wall_s"] for s in untraced), "s"),
            "machine.calib_s": (statistics.median(s["calib_s"] for s in untraced), "s"),
        }
    )
    return out


# ---------------------------------------------------------------------------
# the run


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance", choices=("canonical", "twin"), default="canonical")
    return p.parse_args(argv)


def measure(args: argparse.Namespace, root: str, work: str) -> dict:
    t_begin = time.monotonic()
    workload = WORKLOADS[args.workload]
    sweep_name = workload.sweep_name(args.instance)
    sweep = SWEEPS[sweep_name]
    gold = golden.load(sweep_name)
    env = machine(root)
    # byte-compile ./src once, so no sample pays for it
    subprocess.run(
        [sys.executable, "-c", "import wflag.cli"], cwd=root, env=child_env(root), check=True, timeout=60
    )
    _log(
        f"# {args.workload} ({args.instance}: {sweep_name}, jobs {workload.jobs}) seed {args.seed} "
        f"trace {args.trace}; {env}"
    )
    cpus = sorted(os.sched_getaffinity(0))[: workload.jobs]
    os.sched_setaffinity(0, cpus)  # the sweeps inherit it
    calib = Calibration()

    def gauge() -> float:
        """Seconds per calibration pass, averaged over the sweep's CPUs."""
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(calib.measure(passes=max(1, 2 // len(cpus))))
        os.sched_setaffinity(0, cpus)
        return statistics.mean(times)

    calibs = [gauge()]

    def scaled(sample: dict) -> dict:
        """Convert the sample's times to reference seconds."""
        calibs.append(gauge())
        sample["calib_s"] = (calibs[-2] + calibs[-1]) / 2
        sample["measured"] = {k: sample[k] for k in SCALED if k in sample}
        for k, v in sample["measured"].items():
            sample[k] = v * REFERENCE_S / sample["calib_s"]
        return sample

    budget = args.seconds / 2 if args.trace else args.seconds
    min_samples = MIN_TRACE_SAMPLES if args.trace else MIN_SAMPLES
    samples: list[dict] = []
    t_measure = time.monotonic()
    while True:
        remaining = RUN_LIMIT_S - (time.monotonic() - t_begin)
        sample = run_sample(root, sweep, workload.jobs, os.path.join(work, f"s{len(samples)}"), False, remaining)
        samples.append(scaled(check_sample(sample, gold, root)))
        _log(_sample_line(len(samples), sample))
        if sample["failed"]:
            break
        elapsed = time.monotonic() - t_measure
        typical = statistics.median(s["measured"]["wall_s"] + s["calib_s"] for s in samples)
        if len(samples) >= min_samples and elapsed + typical > budget:
            break
        # keep room for one more sample, or for the slower traced one
        if time.monotonic() - t_begin + 1.5 * typical * (3 if args.trace else 1) > RUN_LIMIT_S:
            break

    traced = None
    if args.trace and not samples[-1]["failed"]:
        remaining = RUN_LIMIT_S - (time.monotonic() - t_begin)
        traced = run_sample(root, sweep, workload.jobs, os.path.join(work, "traced"), True, remaining)
        scaled(check_sample(traced, gold, root))
        _log(_sample_line("traced", traced))

    checked = samples + ([traced] if traced else [])
    attempted = sum(s["attempted"] for s in checked)
    failures = [f for s in checked for f in s["failed"]]
    for f in sorted(set(failures)):
        _log(f"# FAILED {f}")
    ok = not failures
    if args.trace:
        metrics = layer_metrics(traced, samples, workload.jobs) if ok else {}
    else:
        metrics = {
            name: (statistics.median(s[name] for s in samples), unit) if ok else (0.0, unit)
            for name, unit in END_TO_END_UNITS.items()
        }
    _log(f"# failed_share {len(failures) / attempted:.4f} ({len(failures)} of {attempted} embeddings)")
    for name, (value, unit) in metrics.items():
        per = ""
        if name in END_TO_END_UNITS:
            per = "  samples: " + " ".join(f"{s[name]:.4f}" for s in samples)
            if name in SCALED:
                per += "  measured: " + " ".join(f"{s['measured'][name]:.4f}" for s in samples)
        _log(f"{name:32s} {value:12.6g} {unit}{per}")
    return {
        "workload": args.workload,
        "instance": args.instance,
        "sweep": sweep_name,
        "seed": args.seed,
        "calib_s": calibs,
        "machine": env,
        "samples": [
            {**{k: s.get(k) for k in END_TO_END_UNITS}, "measured": s.get("measured")}
            for s in samples
        ],
        "result": {
            "correct": ok,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        },
    }


def _sample_line(label, s: dict) -> str:
    m = s["measured"]
    if "setup_s" not in m:
        return f"# sample {label}: status {s['rc']}, wall {m['wall_s']:.3f} s"
    return (
        f"# sample {label}: calib {s['calib_s']:.3f} s; measured wall {m['wall_s']:.3f} s, "
        f"setup {m['setup_s']:.3f} s, sweep {m['sweep_s']:.3f} s, "
        f"critical {m['critical_embedding_s']:.3f} s, "
        f"rss {s['peak_rss_mb']:.1f} MB, {s['scanned']} tuples, {s['candidates']} candidates, "
        f"{len(s['failed'])} failed"
    )


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wflag", "__init__.py")):
        _log(f"error: no wflag sources under {os.path.join(root, 'src')}; run from the repository root")
        return 2
    work = os.path.join(HERE, "out", f"work-{os.getpid()}")
    try:
        outcome = measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    detail = os.path.join(
        HERE, "out", f"{args.workload}-{args.instance}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump(outcome, fh, indent=1)
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
