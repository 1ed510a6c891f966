"""Golden candidate sets: the correctness gate of every benchmark run.

A golden file ``goldens/<sweep>.json`` holds, for each embedding of the
sweep, the ``candidate`` objects of its records, and the candidates the
sweep prints on stdout (``--emit json``), in order.  Only candidate objects
are compared: record lines also carry ``timing_ms``, which varies by run.

Write or refresh goldens (each sweep runs once, untimed) and check every
golden candidate with the exact identity
``initial_term + Σ m·qorb == H / ∏(1 − t^w)``:

    python3 perfbench/golden.py write g2-km1-u5 ...   # from the repo root
    python3 perfbench/golden.py verify                # all golden files
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "goldens")


def golden_path(sweep_name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{sweep_name}.json")


def key_of(sweep_key: dict) -> str:
    mu = ",".join(str(a) for a in sweep_key["mu"])
    return f"{sweep_key['format']}/{mu}/{sweep_key['u']}/{sweep_key['k']}/{sweep_key['n']}"


def read_output(records_path: str, stdout_path: str) -> dict:
    """Candidates by embedding, per-embedding records and printed candidates."""
    embeddings: dict[str, dict] = {}
    done: dict[str, dict] = {}
    with open(records_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = key_of(rec["sweep_key"])
            if rec["record"] == "candidate":
                embeddings.setdefault(key, []).append(rec["candidate"])
            elif rec["record"] == "sweep_done":
                done[key] = rec
    with open(stdout_path, encoding="utf-8") as fh:
        emitted = [json.loads(line) for line in fh if line.strip()]
    return {"candidates": embeddings, "done": done, "emitted": emitted}


def _canonical(cands: list[dict]) -> list[str]:
    return sorted(json.dumps(c, sort_keys=True) for c in cands)


def compare(golden: dict, output: dict) -> tuple[int, list[str]]:
    """(embeddings attempted, failed embeddings with reasons).

    An embedding fails when it has no ``sweep_done`` record or when its
    candidates differ from the golden ones.  When the printed candidates
    differ, every embedding counts as failed.
    """
    keys = sorted(set(golden["embeddings"]) | set(output["done"]))
    failed = []
    for key in keys:
        if key not in output["done"]:
            failed.append(f"{key}: no sweep_done record")
        elif key not in golden["embeddings"]:
            failed.append(f"{key}: not in the golden sweep")
        elif _canonical(output["candidates"].get(key, [])) != _canonical(
            golden["embeddings"][key]
        ):
            failed.append(f"{key}: candidates differ from the golden set")
    if output["emitted"] != golden["emitted"] and not failed:
        failed = [f"{key}: printed candidates differ from the golden set" for key in keys]
    return len(keys), failed


def load(sweep_name: str) -> dict:
    with open(golden_path(sweep_name), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# writing and verifying (imports wflag from ./src)


def verify_identity(cand_obj: dict) -> bool:
    from wflag.orbifold import initial_term, qorb
    from wflag.ratfun import RationalFunction, UniPolynomial
    from wflag.records import candidate_from_json

    cand = candidate_from_json(cand_obj)
    den = UniPolynomial([1])
    for w in cand.x_weights:
        den = den * UniPolynomial.one_minus_t_pow(w)
    series = RationalFunction(cand.numerator, den)
    total = initial_term(series, cand.n, cand.k)
    for sing, mult in cand.basket:
        total = total + qorb(sing, cand.k, cand.n).value * mult
    return total == series


def verify(golden: dict) -> list[str]:
    """Problems with a golden set: a failing identity or a missing table row."""
    from wflag.search import G2_FANO_TABLE

    problems = []
    cands = [c for group in golden["embeddings"].values() for c in group]
    for cand in cands:
        if not verify_identity(cand):
            problems.append(f"identity fails for weights {cand['weights']}")
    spec = golden["spec"]
    if spec["format"] == "g2" and spec["k"] == -1 and spec.get("u_max"):
        # the g2 k=-1 census must contain every reference-table row it reaches
        found = {
            (tuple(c["weights"]), tuple((b["r"], tuple(b["type"]), b["multiplicity"]) for b in c["basket"]))
            for c in cands
        }
        for row in G2_FANO_TABLE:
            if row["u"] > spec["u_max"]:
                continue
            basket = tuple(
                sorted((s.r, s.weights, m) for s, m in row["basket"])
            )
            if (tuple(row["weights"]), basket) not in found:
                problems.append(f"reference row with weights {row['weights']} missing")
    return problems


def write(sweep_name: str) -> None:
    import tempfile

    from run import run_sample
    from workloads import SWEEPS

    sweep = SWEEPS[sweep_name]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        sample = run_sample(os.getcwd(), sweep, 1, tmp, trace=False, timeout=3000)
        if sample["rc"] != 0:
            raise SystemExit(f"error: sweep {sweep_name} exited with {sample['rc']}")
        output = read_output(sample["records"], sample["stdout"])
    golden = {
        "sweep": sweep_name,
        "spec": sweep.to_json(),
        "embeddings": {key: output["candidates"].get(key, []) for key in sorted(output["done"])},
        "emitted": output["emitted"],
    }
    problems = verify(golden)
    if problems:
        raise SystemExit(f"error: {sweep_name}: " + "; ".join(problems))
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(sweep_name), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    n = sum(len(v) for v in golden["embeddings"].values())
    print(f"{sweep_name}: {len(golden['embeddings'])} embeddings, {n} candidates, identities hold")


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    if argv[:1] == ["write"] and len(argv) > 1:
        for name in argv[1:]:
            write(name)
        return 0
    if argv == ["verify"]:
        bad = 0
        for entry in sorted(os.listdir(GOLDEN_DIR)):
            golden = load(entry[: -len(".json")])
            problems = verify(golden)
            bad += bool(problems)
            print(f"{entry}: " + ("; ".join(problems) if problems else "ok"))
        return 1 if bad else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
