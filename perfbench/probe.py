"""Run one wflag sweep in this fresh process and note when its phases happen.

Usage: ``python3 probe.py SWEEP_JSON JOBS OUT_NDJSON REPORT_JSON [TRACE_DIR]``

A sweep given by bounds goes through ``wflag.cli.main`` exactly as
``wflag search`` would run it.  A sweep given as a list of embeddings goes
through the public calls the CLI makes (``SearchConfig(params=…)``,
``iter_search``, ``records.ResultWriter``, ``records.EMITTERS``).

Two light hooks always run: the first ``next()`` on ``iter_search`` marks the
start of the first embedding, and the return of each
``ResultWriter.write_sweep_done`` marks the last flushed ``sweep_done``.  With
TRACE_DIR, the spans of `spans.Tracer` are recorded as well, and, outside the
traced part, the tuple count ``pos_wt`` enumerates for each embedding.

The report holds monotonic-clock times, comparable with the parent's.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    sweep_obj, jobs, out_path, report_path = json.loads(argv[0]), int(argv[1]), argv[2], argv[3]
    trace_dir = argv[4] if len(argv) > 4 else None

    import wflag.cli
    import wflag.records

    from workloads import Sweep

    sweep = Sweep.from_json(sweep_obj)
    marks: dict[str, float] = {}

    tracer = None
    if trace_dir:
        from spans import Tracer

        tracer = Tracer(trace_dir)
        tracer.install()

    # the package re-exports the function `search`, which hides the module
    iter_search = sys.modules["wflag.search"].iter_search

    def marked_iter_search(config):
        marks.setdefault("sweep_start", time.monotonic())
        yield from iter_search(config)

    wflag.cli.iter_search = marked_iter_search
    writer_cls = wflag.records.ResultWriter
    write_sweep_done = writer_cls.write_sweep_done

    def marked_write_sweep_done(self, result):
        write_sweep_done(self, result)
        marks["sweep_end"] = time.monotonic()

    writer_cls.write_sweep_done = marked_write_sweep_done

    if sweep.params is None:
        rc = wflag.cli.main(sweep.cli_argv(jobs, out_path))
    else:
        rc = _run_params(sweep, jobs, out_path, marked_iter_search)

    report: dict = {"rc": rc, "wflag_file": wflag.__file__, "peak_rss_kb": _peak_rss_kb(), **marks}
    if tracer is not None:
        wflag.records.load_cache(out_path)
        tracer.write()
        tracer.enabled = False
        report["enumerated"] = _enumerated(sweep)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


def _peak_rss_kb() -> int:
    """Peak resident set of this process or a reaped pool worker.

    ``VmHWM`` counts only this program's own memory: ``ru_maxrss`` of the
    process would also count the benchmark process it was spawned from.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def _config(sweep, jobs: int):
    from wflag.formats import CocharacterParam
    from wflag.search import SearchConfig

    params = None
    if sweep.params is not None:
        params = tuple(CocharacterParam(mu, u) for mu, u in sweep.params)
    return SearchConfig(
        format_name=sweep.format,
        k=sweep.k,
        n=sweep.n,
        u_max=sweep.u_max,
        q_max=sweep.q_max,
        jobs=jobs,
        params=params,
    )


def _run_params(sweep, jobs: int, out_path: str, iter_search) -> int:
    from wflag import records
    from wflag.search import merge_candidates

    fresh = []
    with open(out_path, "a", encoding="utf-8") as fh:
        writer = records.ResultWriter(fh)
        for result in iter_search(_config(sweep, jobs)):
            fresh.extend(result.candidates)
            writer.write_result(result)
    records.EMITTERS["json"](merge_candidates(fresh), sys.stdout)
    return 0


def _enumerated(sweep) -> int:
    from wflag.formats import FORMATS, hilbert_series
    from wflag.search import pos_wt, sweep_parameters

    fmt = FORMATS[sweep.format]
    s = sweep.n + fmt.codimension + 1
    total = 0
    for param in sweep_parameters(_config(sweep, 1)):
        data = hilbert_series(fmt, param)
        total += len(pos_wt(data.weights, s, data.adjunction_number - sweep.k))
    return total


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
