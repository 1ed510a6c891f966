"""Command-line interface.

Subcommands (names fixed):

* ``weights``    -- ambient weights induced by one (format, mu, u)
* ``hilbert``    -- Hilbert series numerator, adjunction number, canonical weight
* ``qorb``       -- closed-form contribution of one isolated quotient point
* ``initial``    -- smooth initial term of a series
* ``decompose``  -- verify a series against an initial term plus a basket
* ``params``     -- list the distinct embeddings a sweep would visit
* ``search``     -- run a sweep, with resumable line-delimited JSON output
* ``report``     -- regenerate the six-row Fano reference table

Exit codes: 0 on success, 1 on a domain error (invalid parameters, failed
identity, missing table row, a file that cannot be read or written), 2 on a
usage error.

File formats accepted by ``initial`` and ``decompose``:

* series file: JSON object with ``"numerator"`` (coefficient list, constant
  term first) and either ``"weights"`` (denominator ``prod(1 - t^w)``) or
  ``"denominator"`` (raw coefficient list).  Coefficients may be integers,
  strings like ``"3/2"``, or ``{"num": ..., "den": ...}`` objects.
* basket file: JSON list of ``{"r": ..., "type": [...], "multiplicity": ...}``
  (multiplicity defaults to 1).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import IO, TYPE_CHECKING, Sequence

from . import records
from .formats import FORMATS, CocharacterParam, ambient_weights, enumerate_parameters, hilbert_series
from .intpoly import DomainError
from .orbifold import QuotientSingularity, initial_term, qorb
from .search import (
    G2_FANO_TABLE,
    Candidate,
    SearchConfig,
    candidate_key,
    iter_search,
    merge_candidates,
    sweep_parameters,
)

if TYPE_CHECKING:  # the subcommands that build a rational function import it
    from .ratfun import RationalFunction


# ---------------------------------------------------------------------------
# small parsing helpers


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(" ", "").split(",") if part)
    except ValueError:
        raise DomainError(f"expected a comma-separated integer list, got {text!r}")


def _read_input(path: str, parse):
    """parse(JSON content of the file at path); every failure, a bad entry
    included, is a DomainError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path} is not valid JSON: {exc}")
    except (DomainError, records.RecordError) as exc:
        raise DomainError(f"{path}: {exc}") from None
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise DomainError(f"{path}: malformed entry ({exc!r})") from None


@contextmanager
def _file_errors(verb: str, path: str):
    """An OSError on the file at path becomes a DomainError that names it.
    A broken pipe is an OSError too, and goes on to `main`."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise DomainError(f"cannot {verb} {path}: {exc.strerror or exc}") from None


def _series_from_json(obj: object) -> RationalFunction:
    from .ratfun import RationalFunction, UniPolynomial

    if not isinstance(obj, dict) or "numerator" not in obj:
        raise DomainError("expected an object with a 'numerator' key")
    num = UniPolynomial([records.fraction_from_json(c) for c in obj["numerator"]])
    if "weights" in obj:
        weights = [records.int_from_json(w) for w in obj["weights"]]
        if any(w < 1 for w in weights):
            raise DomainError("denominator weights must be positive")
        den = UniPolynomial([1])
        for w in weights:
            den = den * UniPolynomial.one_minus_t_pow(w)
    elif "denominator" in obj:
        den = UniPolynomial([records.fraction_from_json(c) for c in obj["denominator"]])
    else:
        den = UniPolynomial([1])
    if den.is_zero():
        raise DomainError("zero denominator")
    return RationalFunction(num, den)


def _basket_from_json(obj: object) -> list[tuple[QuotientSingularity, int]]:
    if not isinstance(obj, list):
        raise DomainError("expected a JSON list of quotient points")
    out: list[tuple[QuotientSingularity, int]] = []
    for item in obj:
        if not isinstance(item, dict) or "r" not in item or "type" not in item:
            raise DomainError("each entry needs 'r' and 'type' keys")
        out.append(records.basket_entry_from_json({"multiplicity": 1, **item}))
    return out


def _param_from_args(args: argparse.Namespace) -> tuple[str, CocharacterParam]:
    fmt = FORMATS[args.format]
    mu = _parse_int_list(args.mu)
    expected = len(fmt.highest_weight)
    if len(mu) != expected:
        raise DomainError(
            f"format {args.format!r} needs a length-{expected} cocharacter, "
            f"got {len(mu)} entries"
        )
    param = CocharacterParam(mu, args.u)
    ambient_weights(fmt, param)  # raises DomainError on nonpositive weights
    return args.format, param


def _check_dimension(n: int) -> None:
    if n < 1:
        raise DomainError(f"dimension --n must be at least 1, got {n}")


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {jobs}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_weights(args: argparse.Namespace) -> int:
    name, param = _param_from_args(args)
    ws = ambient_weights(FORMATS[name], param)
    print(" ".join(str(w) for w in ws))
    return 0


def cmd_hilbert(args: argparse.Namespace) -> int:
    name, param = _param_from_args(args)
    data = hilbert_series(FORMATS[name], param)
    if args.json:
        payload = {
            "format": data.format_name,
            "mu": list(data.mu),
            "u": data.u,
            "weights": list(data.weights),
            "numerator": [str(c) for c in data.numerator],
            "q": data.adjunction_number,
            "canonical_weight": data.sigma,
        }
        print(json.dumps(payload))
    else:
        from .ratfun import UniPolynomial

        print(f"weights: {' '.join(str(w) for w in data.weights)}")
        print(f"numerator: {UniPolynomial(data.numerator)}")
        print(f"q: {data.adjunction_number}")
        print(f"canonical weight: {data.sigma}")
    return 0


def cmd_qorb(args: argparse.Namespace) -> int:
    weights = _parse_int_list(args.type)
    sing = QuotientSingularity(args.r, weights)
    n = len(weights)
    contrib = qorb(sing, args.k, n)
    print(f"type: {sing}  k={args.k}  n={n}")
    if contrib.numerator is not None:
        print(f"numerator: {contrib.numerator}")
        print(f"denominator: (1 - t)^{n} * (1 - t^{sing.r})")
    print(f"contribution: {contrib.value}")
    return 0


def cmd_initial(args: argparse.Namespace) -> int:
    from .ratfun import UniPolynomial

    _check_dimension(args.n)
    series = _read_input(args.series, _series_from_json)
    init = initial_term(series, args.n, args.k)
    a_poly = init * (UniPolynomial.one_minus_t_pow(1) ** (args.n + 1))
    print(f"numerator: {a_poly.num}")
    print(f"denominator: (1 - t)^{args.n + 1}")
    print(f"initial term: {init}")
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    _check_dimension(args.n)
    series = _read_input(args.series, _series_from_json)
    basket = _read_input(args.basket, _basket_from_json)
    init = initial_term(series, args.n, args.k)
    total = init
    for sing, mult in basket:
        if len(sing.weights) != args.n:
            raise DomainError(f"type {sing} is not {args.n}-dimensional")
        total = total + qorb(sing, args.k, args.n).value * mult
    print(f"initial term: {init}")
    orb = total - init
    print(f"orbifold part: {orb}")
    if total == series:
        print("identity holds")
        return 0
    print(f"identity fails; difference: {series - total}")
    return 1


def _format_param_line(name: str, param: CocharacterParam) -> str:
    data = hilbert_series(FORMATS[name], param)
    mu = ",".join(str(a) for a in param.mu)
    return (
        f"mu=({mu}) u={param.u} q={data.adjunction_number} "
        f"sigma={data.sigma} weights={records.compact_weights(data.weights)}"
    )


def cmd_params(args: argparse.Namespace) -> int:
    fmt = FORMATS[args.format]
    params = enumerate_parameters(fmt, u_max=args.u_max, q_max=args.q_max)
    for param in params:
        print(_format_param_line(args.format, param))
    return 0


def _run_sweep(
    config: SearchConfig,
    out_path: str | None,
    resume_path: str | None,
    progress: IO[str],
) -> list[Candidate]:
    """Execute a sweep with optional record output and resume cache."""
    cached: list[Candidate] = []
    completed: set[records.SweepKey] = set()
    if resume_path and os.path.exists(resume_path):
        with _file_errors("read", resume_path):
            cache = records.load_cache(resume_path)
        cached = cache.candidates
        completed = cache.completed
        progress.write(
            f"# resume: {len(completed)} embeddings already done in {resume_path}\n"
        )
    params = sweep_parameters(config)
    todo = tuple(
        p
        for p in params
        if (config.format_name, p.mu, p.u, config.k, config.n) not in completed
    )
    write_path = out_path or resume_path
    if write_path and os.path.exists(write_path):
        # a sweep killed mid-write leaves a torn last line; appending after
        # it would bury it in the middle of the file
        with _file_errors("write", write_path):
            records.drop_torn_tail(write_path)
    writer_stream: IO[str] | None = None
    fresh: list[Candidate] = []
    try:
        if write_path:
            with _file_errors("write", write_path):
                writer_stream = open(write_path, "a", encoding="utf-8")
            writer = records.ResultWriter(writer_stream)
        done = 0
        if todo:
            run_config = replace(config, params=todo)
            for result in iter_search(run_config):
                done += 1
                fresh.extend(result.candidates)
                if write_path:
                    with _file_errors("write", write_path):
                        writer.write_result(result)
                mu = ",".join(str(a) for a in result.mu)
                progress.write(
                    f"# [{done}/{len(todo)}] mu=({mu}) u={result.u}: "
                    f"{len(result.candidates)} candidates, "
                    f"{result.tuples_scanned} tuples, {result.elapsed_ms} ms\n"
                )
                progress.flush()
    finally:
        if writer_stream is not None:
            writer_stream.close()
    return merge_candidates(cached + fresh)


def cmd_search(args: argparse.Namespace) -> int:
    _check_dimension(args.n)
    _check_jobs(args.jobs)
    config = SearchConfig(
        format_name=args.format,
        k=args.k,
        n=args.n,
        u_max=args.u_max,
        q_max=args.q_max,
        jobs=args.jobs,
    )
    merged = _run_sweep(config, args.out, args.resume, sys.stderr)
    records.EMITTERS[args.emit](merged, sys.stdout)
    return 0


def _table_row_mismatches(row: dict, cand: Candidate) -> list[str]:
    notes: list[str] = []
    published_degree = row.get("published_degree")
    if published_degree is not None and published_degree != cand.degree:
        notes.append(f"published degree {published_degree}, computed {cand.degree}")
    if row["published_kernel"] != bool(cand.kernels):
        pub = "Y" if row["published_kernel"] else "N"
        got = "Y" if cand.kernels else "N"
        notes.append(f"published BK {pub}, computed {got}")
    return notes


def cmd_report(args: argparse.Namespace) -> int:
    _check_jobs(args.jobs)
    if args.from_path:
        with _file_errors("read", args.from_path):
            cache = records.load_cache(args.from_path)
        candidates = merge_candidates(cache.candidates)
    else:
        config = SearchConfig(
            format_name="g2", k=-1, n=3, u_max=7, jobs=args.jobs
        )
        candidates = _run_sweep(config, None, None, sys.stderr)
    by_key = {candidate_key(c): c for c in candidates}
    headers = ("row", "mu", "u", "X", "degree", "basket", "BK")
    rows: list[tuple[str, ...]] = []
    footnotes: list[str] = []
    for idx, row in enumerate(G2_FANO_TABLE, start=1):
        basket = tuple((s.r, s.weights, m) for s, m in sorted(row["basket"]))
        cand = by_key.get((row["weights"], basket))
        if cand is None:
            raise DomainError(
                f"row {idx} (weights {records.compact_weights(row['weights'])}) "
                "not present in the search output"
            )
        if cand.degree != row["degree"] or bool(cand.kernels) != row["kernel"]:
            raise DomainError(
                f"row {idx} disagrees with the reference values; "
                "the package invariants are broken"
            )
        rows.append((str(idx), *records.text_row(cand)))
        for note in _table_row_mismatches(row, cand):
            footnotes.append(f"row {idx}: {note}")
    out_lines = records.aligned_table(headers, rows)
    if footnotes:
        out_lines.append("")
        out_lines.append("deviations from the previously published table:")
        out_lines.extend(f"  {note}" for note in footnotes)
    text = "\n".join(out_lines) + "\n"
    if args.out:
        with _file_errors("write", args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", required=True, choices=sorted(FORMATS))
    sub.add_argument("--mu", required=True, help="comma-separated cocharacter, e.g. -1,1")
    sub.add_argument("--u", required=True, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wflag",
        description="Exact-arithmetic search for orbifolds polarized in weighted flag varieties.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("weights", help="ambient weights for one (format, mu, u)")
    _add_param_flags(p)
    p.set_defaults(func=cmd_weights)

    p = subs.add_parser("hilbert", help="Hilbert series data for one embedding")
    _add_param_flags(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_hilbert)

    p = subs.add_parser("qorb", help="closed-form quotient point contribution")
    p.add_argument("--r", required=True, type=int, help="index of the cyclic group")
    p.add_argument("--type", required=True, help="comma-separated weights, e.g. 1,1,1")
    p.add_argument("--k", required=True, type=int, help="canonical weight")
    p.set_defaults(func=cmd_qorb)

    p = subs.add_parser("initial", help="smooth initial term of a series")
    p.add_argument("--series", required=True, help="JSON series file")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(func=cmd_initial)

    p = subs.add_parser(
        "decompose", help="verify series = initial term + basket contributions"
    )
    p.add_argument("--series", required=True, help="JSON series file")
    p.add_argument("--basket", required=True, help="JSON basket file")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("params", help="list distinct embeddings up to bounds")
    p.add_argument("--format", required=True, choices=sorted(FORMATS))
    p.add_argument("--u-max", type=int, default=None)
    p.add_argument("--q-max", type=int, default=None)
    p.set_defaults(func=cmd_params)

    p = subs.add_parser("search", help="run a candidate sweep")
    p.add_argument("--format", required=True, choices=sorted(FORMATS))
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--u-max", type=int, default=None)
    p.add_argument("--q-max", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None, help="append records to this file")
    p.add_argument(
        "--resume",
        default=None,
        help="skip embeddings already completed in this record file "
        "(and append to it when --out is omitted)",
    )
    p.add_argument("--emit", choices=sorted(records.EMITTERS), default="json")
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("report", help="regenerate a reference table")
    p.add_argument("table", choices=["table1"])
    p.add_argument("--out", default=None, help="write the table to this file")
    p.add_argument(
        "--from",
        dest="from_path",
        default=None,
        help="use candidates from this record file instead of a fresh sweep",
    )
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_report)

    return parser


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    # allow `--mu -1,1`: argparse rejects separated option values that begin
    # with a dash unless they look like plain negative numbers
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--mu", "--type") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(argv))
    try:
        return args.func(args)
    except (DomainError, records.RecordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
