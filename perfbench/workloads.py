"""Workloads of the wflag benchmark.

A *sweep* is one deterministic wflag census: a format, a canonical weight k,
a dimension n and either sweep bounds (run through ``wflag search``) or an
explicit list of embeddings (run through the public calls the CLI makes,
because the CLI cannot name a single embedding).  Every sweep has a golden
candidate file ``goldens/<sweep name>.json``.

A *workload* runs a canonical sweep with a fixed worker count.  Its twin is
a held-out sweep of the same regime, selected with ``--instance twin``; a
performance claim made on the canonical sweep must also hold on the twin.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Sweep:
    format: str
    k: int
    n: int = 3
    u_max: int | None = None
    q_max: int | None = None
    params: tuple[tuple[tuple[int, ...], int], ...] | None = None

    def cli_argv(self, jobs: int, out: str) -> list[str]:
        """``wflag search`` arguments; only for sweeps given by bounds."""
        argv = ["search", "--format", self.format, "--k", str(self.k), "--n", str(self.n)]
        if self.u_max is not None:
            argv += ["--u-max", str(self.u_max)]
        if self.q_max is not None:
            argv += ["--q-max", str(self.q_max)]
        return argv + ["--jobs", str(jobs), "--out", out, "--emit", "json"]

    def to_json(self) -> dict:
        return {
            "format": self.format,
            "k": self.k,
            "n": self.n,
            "u_max": self.u_max,
            "q_max": self.q_max,
            "params": [[list(mu), u] for mu, u in self.params] if self.params else None,
        }

    @classmethod
    def from_json(cls, obj: dict) -> Sweep:
        params = obj.get("params")
        return cls(
            format=obj["format"],
            k=obj["k"],
            n=obj["n"],
            u_max=obj.get("u_max"),
            q_max=obj.get("q_max"),
            params=tuple((tuple(mu), u) for mu, u in params) if params else None,
        )


SWEEPS: dict[str, Sweep] = {
    "g2-km1-u5": Sweep("g2", k=-1, u_max=5),
    "g2-k1-u5": Sweep("g2", k=1, u_max=5),
    "g2-km1-mu-2.2-u6": Sweep("g2", k=-1, params=(((-2, 2), 6),)),
    "g2-k1-mu-2.2-u6": Sweep("g2", k=1, params=(((-2, 2), 6),)),
    "gr25-k1-q16": Sweep("gr25", k=1, q_max=16),
    "gr25-km1-q16": Sweep("gr25", k=-1, q_max=16),
    "g2-km1-u3": Sweep("g2", k=-1, u_max=3),
}


@dataclass(frozen=True)
class Workload:
    why: str
    canonical: str
    twin: str
    jobs: int = 1

    def sweep_name(self, instance: str) -> str:
        return self.canonical if instance == "canonical" else self.twin


WORKLOADS: dict[str, Workload] = {
    "g2-u5": Workload(
        why="g2 census k=-1, u<=5: 11 embeddings, 4,851 tuples, 10 candidates; "
        "the exact Fraction stage (ratfun called from search) is the largest share",
        canonical="g2-km1-u5",
        twin="g2-k1-u5",
    ),
    "g2-wide": Workload(
        why="one wide g2 embedding (-2,2), u=6, k=-1: 5,505 tuples, no candidate; "
        "enumeration, integer setup and the mod-p prescreen dominate",
        canonical="g2-km1-mu-2.2-u6",
        twin="g2-k1-mu-2.2-u6",
    ),
    "gr25-q16": Workload(
        why="Gr(2,5) census k=1, q<=16: 44 embeddings, 289 tuples, 32 distinct candidates; "
        "hilbert_series (formats -> ratfun) is over 90% and the funnel is light",
        canonical="gr25-k1-q16",
        twin="gr25-km1-q16",
    ),
    "g2-u5-jobs2": Workload(
        why="the g2-u5 census with --jobs 2: the only workload that runs the "
        "process pool, where the slowest embedding bounds the wall time",
        canonical="g2-km1-u5",
        twin="g2-k1-u5",
        jobs=2,
    ),
    # for selftest.py only; BENCHMARK.json does not list it
    "tiny": Workload(
        why="g2 census k=-1, u<=3: 4 embeddings, 43 tuples, 4 candidates",
        canonical="g2-km1-u3",
        twin="g2-km1-u3",
    ),
}
