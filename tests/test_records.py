from __future__ import annotations

import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wflag.formats import CocharacterParam
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
