from __future__ import annotations

import hashlib
import io
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wflag import records
from wflag.formats import GR25_FORMAT, CocharacterParam, FormatSpec
from wflag.intpoly import DomainError
from wflag.orbifold import QuotientSingularity
from wflag.records import (
    EMITTERS,
    RecordCache,
    RecordError,
    ResultWriter,
    SCHEMA_VERSION,
    candidate_from_json,
    candidate_to_json,
    compact_weights,
    drop_torn_tail,
    fraction_from_json,
    fraction_to_json,
    sweep_key_of,
)
from wflag.search import (
    Candidate,
    SearchConfig,
    SweepResult,
    merge_candidates,
    search,
    search_embedding,
)


@pytest.fixture(scope="module")
def small_candidates():
    return search(SearchConfig(format_name="g2", k=-1, n=3, u_max=3))


@pytest.fixture(scope="module")
def small_result():
    cands, scanned = search_embedding("g2", CocharacterParam((-1, 1), 3))
    return SweepResult(
        format_name="g2",
        mu=(-1, 1),
        u=3,
        k=-1,
        n=3,
        candidates=tuple(cands),
        tuples_scanned=scanned,
        elapsed_ms=12.345,
    )


@given(st.fractions())
def test_fraction_round_trip(x):
    encoded = fraction_to_json(x)
    assert set(encoded) == {"num", "den"}
    assert isinstance(encoded["num"], str) and isinstance(encoded["den"], str)
    assert fraction_from_json(encoded) == x


def test_fraction_from_alternate_forms():
    assert fraction_from_json("9/10") == Fraction(9, 10)
    assert fraction_from_json(7) == Fraction(7)
    with pytest.raises(ValueError):
        fraction_from_json([1, 2])


@pytest.mark.parametrize(
    "obj", [True, 1.5, {"num": True, "den": "1"}, {"num": "1", "den": 2.0}]
)
def test_fraction_from_json_rejects_bools_and_floats(obj):
    with pytest.raises(ValueError, match="cannot read a rational"):
        fraction_from_json(obj)


def test_candidate_round_trip(small_candidates):
    assert small_candidates
    for cand in small_candidates:
        obj = candidate_to_json(cand)
        json.dumps(obj)  # must be plain-JSON serializable
        assert candidate_from_json(obj) == cand
        assert obj["numerator"] == [{"num": str(c), "den": "1"} for c in cand.numerator]
    obj["numerator"][1] = {"num": "3", "den": "2"}
    with pytest.raises(RecordError, match="3/2 is not an integer"):
        candidate_from_json(obj)


def test_record_stream_round_trip(small_result):
    buf = io.StringIO()
    writer = ResultWriter(buf)
    writer.write_result(small_result)
    lines = buf.getvalue().splitlines()
    assert len(lines) == len(small_result.candidates) + 1
    for line in lines:
        obj = json.loads(line)
        assert obj["schema_version"] == SCHEMA_VERSION
    cache = RecordCache.from_stream(io.StringIO(buf.getvalue()))
    assert cache.completed == {sweep_key_of(small_result)}
    assert tuple(cache.candidates) == small_result.candidates


def test_record_bytes(small_result):
    # the envelope keys come first, in this order, then the record's own
    buf = io.StringIO()
    ResultWriter(buf).write_result(small_result)
    lines = buf.getvalue().splitlines(keepends=True)
    envelope = (
        '{"schema_version":1,"record":"%s","sweep_key":{"format":"g2",'
        '"mu":[-1,1],"u":3,"k":-1,"n":3},"timing_ms":12.345,'
    )
    assert len(lines) == 4
    for line in lines[:3]:
        assert line.startswith(envelope % "candidate" + '"candidate":{"format":"g2",')
    assert lines[3] == envelope % "sweep_done" + '"tuples_scanned":6,"candidates":3}\n'
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "4a025397388ed86548ed5b1a91ceefcb5e01cf8eb004231eadf934ca324979a6"
    )


def test_cache_drops_interrupted_keys(small_result):
    buf = io.StringIO()
    writer = ResultWriter(buf)
    for cand in small_result.candidates:
        writer.write_candidate(small_result, cand)
    # no sweep_done record: the key counts as incomplete
    cache = RecordCache.from_stream(io.StringIO(buf.getvalue()))
    assert cache.completed == set()
    assert cache.candidates == []


def test_cache_rejects_unknown_schema(small_result):
    buf = io.StringIO()
    ResultWriter(buf).write_sweep_done(small_result)
    tampered = buf.getvalue().replace(
        f'"schema_version":{SCHEMA_VERSION}', '"schema_version":99'
    )
    with pytest.raises(ValueError, match="schema_version"):
        RecordCache.from_stream(io.StringIO(tampered))


def test_cache_rejects_malformed_lines():
    with pytest.raises(ValueError, match="line 1"):
        RecordCache.from_stream(io.StringIO("{not json\n"))


# a float, a bool or a string is no integer entry, only a bool is a flag and
# only a string is a format name: none is rounded, truncated or coerced to one
NON_INTEGER_ENTRIES = {
    "u 3.7": (("candidate", "u"), 3.7),
    "mu [true, 1]": (("candidate", "mu"), [True, 1]),
    "weights 1.0": (("candidate", "weights", 0), 1.0),
    "k '-1'": (("candidate", "k"), "-1"),
    "basket r 2.2": (("candidate", "basket", 0, "r"), 2.2),
    "basket type 1.0": (("candidate", "basket", 0, "type", 0), 1.0),
    "multiplicity 9.9": (("candidate", "basket", 0, "multiplicity"), 9.9),
    "multiplicity -1": (("candidate", "basket", 0, "multiplicity"), -1),
    "smooth 0": (("candidate", "smooth"), 0),
    "smooth 'false'": (("candidate", "smooth"), "false"),
    "sweep_key u 3.0": (("sweep_key", "u"), 3.0),
    "sweep_key mu [-1.5, 1]": (("sweep_key", "mu"), [-1.5, 1]),
    "format 5": (("candidate", "format"), 5),
    "format ['g2']": (("candidate", "format"), ["g2"]),
    "sweep_key format 5": (("sweep_key", "format"), 5),
    "sweep_key format ['g2']": (("sweep_key", "format"), ["g2"]),
}


@pytest.mark.parametrize(
    "path, value", NON_INTEGER_ENTRIES.values(), ids=NON_INTEGER_ENTRIES
)
def test_cache_rejects_non_integer_entries(small_result, path, value):
    buf = io.StringIO()
    ResultWriter(buf).write_result(small_result)
    first, *rest = buf.getvalue().splitlines(keepends=True)
    record = json.loads(first)
    assert record["record"] == "candidate" and record["candidate"]["basket"]
    *keys, last = path
    obj = record
    for key in keys:
        obj = obj[key]
    obj[last] = value
    if path[0] == "candidate":
        with pytest.raises(ValueError):
            candidate_from_json(record["candidate"])
    tampered = json.dumps(record) + "\n" + "".join(rest)
    with pytest.raises(RecordError, match="malformed record on line 1"):
        RecordCache.from_stream(io.StringIO(tampered))


def test_cache_drops_torn_final_line(small_result):
    buf = io.StringIO()
    ResultWriter(buf).write_result(small_result)
    whole = buf.getvalue()
    for cut in (2, 40, len(whole.splitlines()[-1])):
        cache = RecordCache.from_stream(io.StringIO(whole[:-cut]))
        # the sweep_done line is torn, so the key is incomplete
        assert cache.completed == set()
        assert cache.candidates == []


def test_cache_rejects_corrupt_middle_line(small_result):
    buf = io.StringIO()
    ResultWriter(buf).write_result(small_result)
    lines = buf.getvalue().splitlines(keepends=True)
    corrupt = lines[0][:-40] + "\n" + "".join(lines[1:])
    with pytest.raises(RecordError, match="malformed record on line 1"):
        RecordCache.from_stream(io.StringIO(corrupt))
    with pytest.raises(RecordError, match="line 1"):
        RecordCache.from_stream(io.StringIO('{"schema_version":1,"record":"sweep_done"}\n'))


def test_drop_torn_tail(tmp_path, small_result):
    buf = io.StringIO()
    ResultWriter(buf).write_result(small_result)
    whole = buf.getvalue().encode()
    path = tmp_path / "records.ndjson"
    path.write_bytes(whole[:-40])
    drop_torn_tail(str(path))
    assert path.read_bytes() == whole[: whole.rfind(b"\n", 0, -1) + 1]
    path.write_bytes(whole[:-1])  # only the newline is missing
    drop_torn_tail(str(path))
    assert path.read_bytes() == whole
    drop_torn_tail(str(path))
    assert path.read_bytes() == whole


def _torn_tail_dropped(data: bytes) -> bytes:
    """What `drop_torn_tail` leaves of a file, from the whole file at once."""
    if not data or data.endswith(b"\n"):
        return data
    start = data.rfind(b"\n") + 1
    try:
        json.loads(data[start:])
    except ValueError:
        return data[:start]
    return data + b"\n"


@pytest.mark.parametrize("block", [1, 7, None], ids=["1", "7", "default"])
def test_drop_torn_tail_reads_back_only_to_the_last_newline(
    tmp_path, monkeypatch, small_result, block
):
    """Reading back from the end in blocks leaves every file as reading it
    whole did: each cut of a record file, a torn or complete last line
    longer than a block, and files with no newline at all, torn or
    complete."""
    if block is not None:
        monkeypatch.setattr(records, "_TAIL_BLOCK", block)
    buf = io.StringIO()
    ResultWriter(buf).write_result(small_result)
    whole = buf.getvalue().encode()
    first = whole[: whole.index(b"\n")]
    pad = b"x" * (3 * records._TAIL_BLOCK)
    long_line = b'{"pad": "' + pad + b'"}'
    cases = [first, first[:-1], long_line, long_line[:-1], b"\n" + long_line[:-2]]
    cases += [whole + case for case in cases]
    if block is not None:  # and every cut of a record file
        cases += [whole[:cut] for cut in range(len(whole) + 1)]
    path = tmp_path / "records.ndjson"
    for data in cases:
        path.write_bytes(data)
        drop_torn_tail(str(path))
        assert path.read_bytes() == _torn_tail_dropped(data), data[-40:]


def test_the_value_types_keep_their_contract(small_result):
    """The records of a sweep are tuple types that keep the semantics they
    had as dataclasses.  A quotient type sorts and checks its weights, also
    when built by `_make` or `_replace`, hashes as (r, weights), so set and
    dict orders cannot move, orders by (r, weights), and survives the pickle
    of a worker's answer.  A format compares and hashes by all its fields,
    its tables included."""
    q = QuotientSingularity(5, (3, 1, 2))
    assert q.r == 5 and q.weights == (1, 2, 3)
    for r, weights, message in (
        (1, (1, 1, 1), "index must be at least 2"),
        (5, (), "a quotient type needs at least one weight"),
        (5, (1, 2, 5), "weights must lie strictly between 0 and the index"),
    ):
        with pytest.raises(DomainError, match=message):
            QuotientSingularity(r, weights)
    with pytest.raises(DomainError, match="index must be at least 2"):
        q._replace(r=1)
    with pytest.raises(DomainError, match="index must be at least 2"):
        q._make((1, (3, 2, 1)))
    made = q._make((7, (3, 2, 1)))
    assert type(made) is QuotientSingularity and str(made) == "1/7(1,2,3)"
    assert hash(q) == hash((q.r, q.weights))
    ordered = [
        QuotientSingularity(2, (1, 1, 1)),
        QuotientSingularity(5, (1, 1, 4)),
        q,
        QuotientSingularity(7, (1, 2, 4)),
    ]
    assert sorted(ordered[::-1]) == sorted(ordered[1::2] + ordered[::2]) == ordered

    assert any(cand.basket for cand in small_result.candidates)
    back = pickle.loads(pickle.dumps(small_result))
    assert back == small_result and type(back) is SweepResult
    assert {type(cand) for cand in back.candidates} == {Candidate}
    assert {type(sing) for cand in back.candidates for sing, _ in cand.basket} == {
        QuotientSingularity
    }

    def spec(**changed):
        names = ("name", "dimension", "codimension", "highest_weight",
                 "adjunction_coefficients", "weight_system", "k_polynomial")
        return FormatSpec(**{**{name: getattr(GR25_FORMAT, name) for name in names}, **changed})

    assert spec() == GR25_FORMAT and hash(spec()) == hash(GR25_FORMAT)
    other_k = spec(k_polynomial=GR25_FORMAT.k_polynomial[1:])
    assert other_k != GR25_FORMAT and not other_k == GR25_FORMAT
    other_q = spec(adjunction_coefficients=(5, 3))
    assert other_q != GR25_FORMAT and not other_q == GR25_FORMAT

    params = (CocharacterParam((0, 0), 1),)
    assert SearchConfig()._replace(params=params) == SearchConfig(params=params)


def _render(candidates, kind: str) -> str:
    buf = io.StringIO()
    EMITTERS[kind](candidates, buf)
    return buf.getvalue()


def test_emitters_present_identical_candidate_sets(small_candidates):
    as_json = _render(small_candidates, "json").strip().splitlines()
    parsed = [candidate_from_json(json.loads(line)) for line in as_json]
    assert parsed == list(small_candidates)

    csv_lines = _render(small_candidates, "csv").strip().splitlines()
    assert len(csv_lines) == len(small_candidates) + 1  # header
    text_lines = _render(small_candidates, "text").strip().splitlines()
    assert len(text_lines) == len(small_candidates) + 2  # header + rule

    # every weight multiset and degree appears in each rendering
    for cand in small_candidates:
        degree = str(cand.degree)
        assert any(degree in line for line in csv_lines[1:])
        assert any(degree in line for line in text_lines[2:])


def test_text_rendering_bytes(small_candidates):
    assert _render(small_candidates, "text") == (
        "mu      u  ambient             degree  basket"
        "                                          BK\n"
        "------  -  ------------------  ------  ----------------------------------------------  --\n"
        "(0,0)   1  P[1^12]             18      -"
        "                                               N\n"
        "(-1,1)  3  P[1,2^4,3^4,4^2,5]  9/10    9 x 1/2(1,1,1), 1/5(3,4,4)"
        "                      N\n"
        "(-1,1)  3  P[1,2^4,3^4,4^2,5]  9/10    9 x 1/4(1,1,3), 9 x 1/4(3,3,3), 1/5(3,4,4)"
        "      N\n"
        "(-1,1)  3  P[1,2^3,3^5,4^3]    3/4     3 x 1/2(1,1,1), 6 x 1/3(1,1,2), 3 x 1/4(3,3,3)"
        "  N\n"
    )
    assert _render([], "text") == (
        "mu  u  ambient  degree  basket  BK\n--  -  -------  ------  ------  --\n"
    )


def test_csv_contains_expected_cells(small_candidates):
    out = _render(small_candidates, "csv")
    assert out.startswith("format,mu,u,weights,k,n,degree,basket,kernel,smooth")
    assert "9/10" in out
    assert "9 x 1/2(1,1,1), 1/5(3,4,4)" in out


def test_compact_weights():
    assert compact_weights((1,) * 12) == "1^12"
    assert compact_weights((1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 5)) == "1,2^4,3^4,4^2,5"
    assert compact_weights(()) == ""


def test_merge_candidates_dedups(small_candidates):
    merged = merge_candidates(list(small_candidates) * 2)
    assert merged == list(small_candidates)


def test_merge_candidates_orders_union(small_candidates):
    rng = random.Random(7)
    shuffled = list(small_candidates)
    rng.shuffle(shuffled)
    assert merge_candidates(shuffled) == list(small_candidates)
