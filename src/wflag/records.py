"""Persistent, machine-readable search output.

The canonical on-disk format is line-delimited JSON: one record per line,
append-only, streaming-friendly for long sweeps.  Two record kinds exist:

* ``candidate``   -- one found candidate together with its sweep key;
* ``sweep_done``  -- marks an embedding (one sweep key) as fully scanned;
  ``tuples_scanned`` counts the tuples within the search's divisor bounds.

A *sweep key* identifies one unit of search work: ``(format, mu, u, k, n)``.
Resume works at sweep-key granularity: keys with a ``sweep_done`` record are
skipped on restart, so re-running with a cache never emits duplicate keys.
Candidate records of a key that was interrupted before its ``sweep_done``
line may be re-appended by the rescan; readers deduplicate by candidate
identity, so the file stays correct either way.

Exact rationals serialize as ``{"num": "<int>", "den": "<int>"}`` with the
integers rendered as decimal strings, so degrees like 18/91 survive
round-trips without any precision loss.  The Hilbert numerator of a
candidate is a list of integers, each written the same way with ``"den":
"1"``; a reader rejects any other denominator there.  Every other integer
field must be a JSON integer (`int_from_json`) and ``smooth`` a JSON bool:
nothing is rounded or coerced.  CSV and aligned-text renderings are derived
views over the same candidate set.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from types import SimpleNamespace
from typing import IO, Iterator, Sequence

from .orbifold import QuotientSingularity
from .search import Candidate, SweepResult, compact_weights, kernel_flag

SCHEMA_VERSION = 1
_TAIL_BLOCK = 1 << 16  # bytes `drop_torn_tail` first reads from the end of a file

SweepKey = tuple[str, tuple[int, ...], int, int, int]


# ---------------------------------------------------------------------------
# JSON encoding of the exact types


def fraction_to_json(x: Fraction) -> dict[str, str]:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def fraction_from_json(obj: object) -> Fraction:
    """A rational from {"num", "den"}, a string or an int, never a bool or a float."""
    if isinstance(obj, dict) and {type(obj.get("num")), type(obj.get("den"))} <= {int, str}:
        return Fraction(int(obj["num"]), int(obj["den"]))
    if isinstance(obj, str) or type(obj) is int:
        return Fraction(obj)
    raise ValueError(f"cannot read a rational from {obj!r}")


def int_from_json(obj: object) -> int:
    """A JSON integer; a float, a bool or a string is no integer entry."""
    if type(obj) is not int:
        raise RecordError(f"expected an integer, got {json.dumps(obj)}")
    return obj


def _str_from_json(obj: object) -> str:
    if type(obj) is not str:
        raise RecordError(f"expected a string, got {json.dumps(obj)}")
    return obj


def _bool_from_json(obj: object) -> bool:
    if type(obj) is not bool:
        raise RecordError(f"expected true or false, got {json.dumps(obj)}")
    return obj


def _coefficient_from_json(obj: object) -> int:
    x = fraction_from_json(obj)
    if x.denominator != 1:
        raise RecordError(f"numerator coefficient {x} is not an integer")
    return x.numerator


def _singularity_to_json(sing: QuotientSingularity) -> dict:
    return {"r": sing.r, "type": list(sing.weights)}


def _singularity_from_json(obj: dict) -> QuotientSingularity:
    return QuotientSingularity(int_from_json(obj["r"]), map(int_from_json, obj["type"]))


def basket_entry_from_json(obj: dict) -> tuple[QuotientSingularity, int]:
    """A basket entry {"r", "type", "multiplicity"}, each entry a JSON
    integer and the multiplicity nonnegative."""
    mult = int_from_json(obj["multiplicity"])
    if mult < 0:
        raise RecordError("multiplicities must be nonnegative")
    return _singularity_from_json(obj), mult


def candidate_to_json(cand: Candidate) -> dict:
    """Serialize one candidate losslessly (exact rationals as strings)."""
    return {
        "format": cand.format_name,
        "mu": list(cand.mu),
        "u": cand.u,
        "weights": list(cand.x_weights),
        "k": cand.k,
        "n": cand.n,
        "degree": fraction_to_json(cand.degree),
        "basket": [
            {**_singularity_to_json(sing), "multiplicity": m}
            for sing, m in cand.basket
        ],
        "kernels": [
            [_singularity_to_json(sing) for sing in group]
            for group in cand.kernels
        ],
        "smooth": cand.smooth,
        "numerator": [{"num": str(c), "den": "1"} for c in cand.numerator],
    }


def candidate_from_json(obj: dict) -> Candidate:
    return Candidate(
        format_name=_str_from_json(obj["format"]),
        mu=tuple(map(int_from_json, obj["mu"])),
        u=int_from_json(obj["u"]),
        x_weights=tuple(map(int_from_json, obj["weights"])),
        k=int_from_json(obj["k"]),
        n=int_from_json(obj["n"]),
        degree=fraction_from_json(obj["degree"]),
        basket=tuple(map(basket_entry_from_json, obj["basket"])),
        kernels=tuple(
            tuple(map(_singularity_from_json, group)) for group in obj["kernels"]
        ),
        smooth=_bool_from_json(obj["smooth"]),
        numerator=tuple(map(_coefficient_from_json, obj["numerator"])),
    )


def sweep_key_of(result: SweepResult) -> SweepKey:
    return (result.format_name, result.mu, result.u, result.k, result.n)


def _sweep_key_to_json(key: SweepKey) -> dict:
    fmt, mu, u, k, n = key
    return {"format": fmt, "mu": list(mu), "u": u, "k": k, "n": n}


def _sweep_key_from_json(obj: dict) -> SweepKey:
    return (
        _str_from_json(obj["format"]),
        tuple(map(int_from_json, obj["mu"])),
        int_from_json(obj["u"]),
        int_from_json(obj["k"]),
        int_from_json(obj["n"]),
    )


# ---------------------------------------------------------------------------
# record stream


def _json_line(obj: dict) -> str:
    """One compact JSON line, as the record file and ``--emit json`` write it."""
    return json.dumps(obj, separators=(",", ":")) + "\n"


class ResultWriter:
    """Append-only writer of search records; one JSON object per line.

    All output of a sweep funnels through one instance, which keeps the file
    well-formed even when results are produced by a worker pool.
    """

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream

    def _write(self, kind: str, result: SweepResult, **body: object) -> None:
        """One record: the envelope every kind shares, then its own fields."""
        record = {
            "schema_version": SCHEMA_VERSION,
            "record": kind,
            "sweep_key": _sweep_key_to_json(sweep_key_of(result)),
            "timing_ms": result.elapsed_ms,
            **body,
        }
        self._stream.write(_json_line(record))
        self._stream.flush()

    def write_candidate(self, result: SweepResult, cand: Candidate) -> None:
        self._write("candidate", result, candidate=candidate_to_json(cand))

    def write_sweep_done(self, result: SweepResult) -> None:
        self._write(
            "sweep_done",
            result,
            tuples_scanned=result.tuples_scanned,
            candidates=len(result.candidates),
        )

    def write_result(self, result: SweepResult) -> None:
        for cand in result.candidates:
            self.write_candidate(result, cand)
        self.write_sweep_done(result)


class RecordError(ValueError):
    """A record file that cannot be read: a malformed or unknown record."""


def read_records(stream: IO[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line number, record object) for a line-delimited JSON stream.

    A final line that lacks its newline and does not parse is the torn tail
    of a killed writer and is dropped; any other malformed line raises
    RecordError.
    """
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if not raw.endswith("\n"):
                # never counted: its key has no sweep_done yet and is rescanned
                return
            raise RecordError(f"malformed record on line {line_no}: {exc}") from exc
        if not isinstance(obj, dict):
            raise RecordError(f"malformed record on line {line_no}: not an object")
        version = obj.get("schema_version")
        if version != SCHEMA_VERSION:
            raise RecordError(
                f"unsupported schema_version {version!r} on line {line_no}"
            )
        yield line_no, obj


class RecordCache(SimpleNamespace):
    """Parsed content of a record file: completed keys and their candidates."""

    completed: set[SweepKey]
    candidates: list[Candidate]

    @classmethod
    def from_stream(cls, stream: IO[str]) -> RecordCache:
        completed: set[SweepKey] = set()
        staged: dict[SweepKey, list[Candidate]] = {}
        ordered: list[Candidate] = []
        for line_no, obj in read_records(stream):
            try:
                key = _sweep_key_from_json(obj["sweep_key"])
                kind = obj.get("record")
                if kind == "candidate":
                    staged.setdefault(key, []).append(
                        candidate_from_json(obj["candidate"])
                    )
                elif kind == "sweep_done":
                    if key not in completed:
                        completed.add(key)
                        ordered.extend(staged.pop(key, []))
                else:
                    raise RecordError(f"unknown record kind {kind!r}")
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise RecordError(f"malformed record on line {line_no}: {exc}") from exc
        # candidates of keys that never reached sweep_done are dropped: the
        # rescan of those keys regenerates them
        return cls(completed=completed, candidates=ordered)


def load_cache(path: str) -> RecordCache:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return RecordCache.from_stream(fh)
        except RecordError as exc:
            raise RecordError(f"{path}: {exc}") from None


def drop_torn_tail(path: str) -> None:
    """Cut a record file back to its last complete line before appending.

    A final line without its newline is kept (and given the newline) when it
    parses, and removed otherwise, so appended records start on a line of
    their own.  It reads back from the end only as far as the last newline.
    """
    with open(path, "rb+") as fh:
        end = fh.seek(0, os.SEEK_END)
        start, tail, size = end, b"", _TAIL_BLOCK
        while start and b"\n" not in tail:
            start = fh.seek(max(end - size, 0))
            tail, size = fh.read(), 2 * size
        cut = tail.rfind(b"\n") + 1
        if cut == len(tail):  # empty, or ends with its newline
            return
        try:
            json.loads(tail[cut:])
        except ValueError:
            fh.truncate(start + cut)
        else:
            fh.write(b"\n")


# ---------------------------------------------------------------------------
# derived renderings (identical candidate sets in every format)

CSV_COLUMNS = (
    "format",
    "mu",
    "u",
    "weights",
    "k",
    "n",
    "degree",
    "basket",
    "kernel",
    "smooth",
)


def emit_json(candidates: Sequence[Candidate], stream: IO[str]) -> None:
    for cand in candidates:
        stream.write(_json_line(candidate_to_json(cand)))


def emit_csv(candidates: Sequence[Candidate], stream: IO[str]) -> None:
    import csv  # only this view needs it

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for cand in candidates:
        writer.writerow(
            [
                cand.format_name,
                " ".join(str(a) for a in cand.mu),
                cand.u,
                " ".join(str(w) for w in cand.x_weights),
                cand.k,
                cand.n,
                str(cand.degree),
                cand.basket_str(),
                kernel_flag(cand.kernels),
                "yes" if cand.smooth else "no",
            ]
        )


def aligned_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> list[str]:
    """Lines of a left-aligned text table: the headers, a rule of dashes and
    the rows, with columns two spaces apart and no trailing spaces."""
    widths = [max(len(cell) for cell in column) for column in zip(headers, *rows)]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    return [line(headers), line(["-" * w for w in widths]), *map(line, rows)]


def text_row(cand: Candidate) -> tuple[str, ...]:
    """The six cells of a candidate in a text table: μ, u, ``P[…]``, degree,
    basket and BK (Y when a zero-sum collection makes the basket ambiguous)."""
    return (
        "(" + ",".join(str(a) for a in cand.mu) + ")",
        str(cand.u),
        "P[" + compact_weights(cand.x_weights) + "]",
        str(cand.degree),
        cand.basket_str(),
        kernel_flag(cand.kernels),
    )


def emit_text(candidates: Sequence[Candidate], stream: IO[str]) -> None:
    headers = ("mu", "u", "ambient", "degree", "basket", "BK")
    rows = [text_row(cand) for cand in candidates]
    stream.write("".join(line + "\n" for line in aligned_table(headers, rows)))


EMITTERS = {"json": emit_json, "csv": emit_csv, "text": emit_text}
