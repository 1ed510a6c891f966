from __future__ import annotations

import errno
import gc
import json
import os
import re
import subprocess
import sys

import pytest

import wflag
import wflag.cli as cli_module
import wflag.orbifold as orbifold_module
import wflag.search as search_module
from wflag.cli import _normalize_argv, build_parser, main
from wflag.ratfun import DomainError
from wflag.records import ResultWriter, candidate_from_json
from wflag.search import G2_FANO_TABLE, Candidate, SweepResult

X7_SERIES = {"numerator": [1, 0, 0, 0, 0, 0, 0, -1], "weights": [1, 1, 1, 1, 2]}
X7_BASKET = [{"r": 2, "type": [1, 1, 1], "multiplicity": 1}]


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weights_golden(capsys):
    code, out, _ = run_cli(capsys, "weights", "--format", "g2", "--mu", "-1,1", "--u", "3")
    assert code == 0
    assert out.strip() == "1 2 2 2 2 3 3 3 3 4 4 4 4 5"


def test_weights_rejects_bad_cocharacter(capsys):
    code, _, err = run_cli(capsys, "weights", "--format", "g2", "--mu", "1,2,3", "--u", "1")
    assert code == 1
    assert "length-2" in err


def test_weights_rejects_nonpositive(capsys):
    code, _, err = run_cli(capsys, "weights", "--format", "g2", "--mu", "5,0", "--u", "1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("mu", [("--mu=-1,1",), ("--mu", "-1, 1"), ("--mu= -1 ,1 ",)])
def test_cocharacter_entries_may_carry_outer_spaces(capsys, mu):
    code, out, err = run_cli(capsys, "weights", "--format", "g2", *mu, "--u", "3")
    assert (code, err) == (0, "")
    assert out.strip() == "1 2 2 2 2 3 3 3 3 4 4 4 4 5"


@pytest.mark.parametrize(
    "argv, text",
    [
        # read as the weight 12 and as mu = (10, 0) when spaces were deleted
        (("qorb", "--r", "13", "--type", "1 2", "--k", "1"), "1 2"),
        (("weights", "--format", "g2", "--mu", "1 0,0", "--u", "40"), "1 0,0"),
        # int() reads "1_2" as 12
        (("qorb", "--r", "13", "--type", "1_2", "--k", "1"), "1_2"),
        # read as mu = (-1, 1) when empty entries were skipped
        (("weights", "--format", "g2", "--mu=,-1,,1,", "--u", "3"), ",-1,,1,"),
    ],
    ids=["qorb-space", "weights-space", "qorb-underscore", "weights-empty"],
)
def test_a_malformed_list_entry_is_an_error(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: expected a comma-separated integer list, got {text!r}\n"


def test_hilbert_json_golden(capsys):
    code, out, _ = run_cli(
        capsys, "hilbert", "--format", "g2", "--mu", "-1,1", "--u", "3", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["q"] == 33
    assert payload["canonical_weight"] == -9
    assert payload["numerator"][0] == "1"
    assert payload["numerator"][4] == "-3"
    assert payload["numerator"][33] == "1"


def test_hilbert_text_output(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--format", "g2", "--mu", "0,0", "--u", "1")
    assert code == 0
    assert "q: 11" in out
    assert "canonical weight: -3" in out


def test_qorb_golden(capsys):
    code, out, _ = run_cli(capsys, "qorb", "--r", "2", "--type", "1,1,1", "--k", "1")
    assert code == 0
    assert "numerator: -t^3" in out
    assert "denominator: (1 - t)^3 * (1 - t^2)" in out


def test_qorb_rejects_incompatible_k(capsys):
    code, _, err = run_cli(capsys, "qorb", "--r", "2", "--type", "1,1,1", "--k", "0")
    assert code == 1
    assert "error" in err


def test_qorb_rejects_a_type_without_weights(capsys):
    code, out, err = run_cli(capsys, "qorb", "--r", "5", "--type", "", "--k", "0")
    assert code == 1
    assert out == ""
    assert err == "error: a quotient type needs at least one weight\n"


def test_search_runs_where_a_contribution_has_a_pole_at_zero(tmp_path, capsys):
    # at k = -7 a threefold contribution has the shift l = -1, and that of
    # 1/2(1,1,1) has a pole at t = 0; the exact system leaves t^l out
    path = tmp_path / "k-7.jsonl"
    code, out, _ = run_cli(
        capsys, "search", "--format", "g2", "--k", "-7", "--n", "3",
        "--u-max", "4", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["record"] for r in records] == ["sweep_done"] * 7


def test_search_error_names_the_tuple_it_stopped_at(monkeypatch, capsys):
    def too_large(*args):
        raise DomainError("kernel search space too large")

    monkeypatch.setattr(search_module, "basket_kernel", too_large)
    code, _, err = run_cli(
        capsys, "search", "--format", "g2", "--k", "-1", "--n", "3", "--u-max", "3",
    )
    assert code == 1
    assert err.endswith(
        "error: g2 mu=(-1,1) u=3 P[1,2^4,3^4,4^2,5]: kernel search space too large\n"
    )


def test_search_error_from_a_worker_is_the_same_error_line(monkeypatch, capsys):
    def too_large(*args):
        raise DomainError("kernel search space too large")

    monkeypatch.setattr(search_module, "basket_kernel", too_large)
    errors = {}
    for jobs in ("1", "2"):
        code, out, err = run_cli(
            capsys, "search", "--format", "g2", "--k", "-1", "--n", "3", "--u-max", "3",
            "--jobs", jobs,
        )
        assert code == 1 and out == ""
        errors[jobs] = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors["1"]) == 1
    assert errors["2"] == errors["1"]


@pytest.mark.parametrize(
    "cap, value, k, u_max, where",
    [
        ("_PATTERN_WALK_MAX_VECTORS", 4, "-3", "6", "mu=(-3,4) u=6 P[1,2,3,4,5^2,6,7,8^2,9,11]"),
        ("_VERTEX_WALK_MAX_ZERO_SETS", 5, "-1", "3", "mu=(-1,1) u=3 P[1^2,2^3,3^3,4^3,5]"),
        ("_VERTEX_WALK_MAX_COMBINATIONS", 1, "-1", "3", "mu=(-1,1) u=3 P[1^2,2^3,3^3,4^3,5]"),
    ],
)
def test_search_stops_at_a_kernel_walk_cap_with_one_error_line(
    monkeypatch, capsys, cap, value, k, u_max, where
):
    monkeypatch.setattr(orbifold_module, cap, value)
    code, _, err = run_cli(
        capsys, "search", "--format", "g2", "--k", k, "--n", "3", "--u-max", u_max,
    )
    assert code == 1
    # the progress lines start with "# "; the rest is one error line
    assert [line for line in err.splitlines() if not line.startswith("# ")] == [
        f"error: g2 {where}: kernel search space too large"
    ]


def test_initial_golden(tmp_path, capsys):
    series = write_json(tmp_path / "series.json", X7_SERIES)
    code, out, _ = run_cli(capsys, "initial", "--series", series, "--n", "3", "--k", "1")
    assert code == 0
    assert "numerator: 1 + t^2 + t^3 + t^5" in out
    assert "denominator: (1 - t)^4" in out


def test_decompose_identity_holds(tmp_path, capsys):
    series = write_json(tmp_path / "series.json", X7_SERIES)
    basket = write_json(tmp_path / "basket.json", X7_BASKET)
    code, out, _ = run_cli(
        capsys, "decompose", "--series", series, "--basket", basket, "--n", "3", "--k", "1"
    )
    assert code == 0
    assert "identity holds" in out


def test_decompose_identity_fails(tmp_path, capsys):
    series = write_json(tmp_path / "series.json", X7_SERIES)
    basket = write_json(
        tmp_path / "basket.json", [{"r": 2, "type": [1, 1, 1], "multiplicity": 2}]
    )
    code, out, _ = run_cli(
        capsys, "decompose", "--series", series, "--basket", basket, "--n", "3", "--k", "1"
    )
    assert code == 1
    assert "identity fails" in out


def test_decompose_rejects_wrong_dimension(tmp_path, capsys):
    series = write_json(tmp_path / "series.json", X7_SERIES)
    basket = write_json(tmp_path / "basket.json", [{"r": 2, "type": [1, 1]}])
    code, _, err = run_cli(
        capsys, "decompose", "--series", series, "--basket", basket, "--n", "3", "--k", "1"
    )
    assert code == 1
    assert "not 3-dimensional" in err


def test_decompose_rejects_bad_files(tmp_path, capsys):
    series = write_json(tmp_path / "series.json", {"weights": [1]})
    basket = write_json(tmp_path / "basket.json", X7_BASKET)
    code, _, err = run_cli(
        capsys, "decompose", "--series", series, "--basket", basket, "--n", "3", "--k", "1"
    )
    assert code == 1
    assert "numerator" in err

    code, _, err = run_cli(
        capsys,
        "decompose",
        "--series",
        str(tmp_path / "missing.json"),
        "--basket",
        basket,
        "--n",
        "3",
        "--k",
        "1",
    )
    assert code == 1


def test_params_listing(capsys):
    code, out, _ = run_cli(capsys, "params", "--format", "g2", "--u-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "mu=(0,0) u=1 q=11 sigma=-3 weights=1^14"
    assert any("weights=1,2^4,3^4,4^4,5" in line for line in lines)


def test_params_gr25_requires_q_max(capsys):
    code, _, err = run_cli(capsys, "params", "--format", "gr25", "--u-max", "2")
    assert code == 1
    assert "q_max" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--format", "g2"])  # missing --mu/--u
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_normalize_argv():
    assert _normalize_argv(["weights", "--mu", "-1,1", "--u", "3"]) == [
        "weights",
        "--mu=-1,1",
        "--u",
        "3",
    ]
    assert _normalize_argv(["qorb", "--type", "-1,1"]) == ["qorb", "--type=-1,1"]
    assert _normalize_argv(["--mu", "0,1"]) == ["--mu", "0,1"]


@pytest.mark.parametrize("jobs", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--format", "g2", "--k=-1", "--n", "3", "--u-max", "1"),
        ("report", "table1"),
    ],
    ids=["search", "report"],
)
def test_jobs_below_one_is_an_error(capsys, argv, jobs):
    code, out, err = run_cli(capsys, *argv, f"--jobs={jobs}")
    assert code == 1
    assert out == ""
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_jobs_defaults_to_one():
    args = build_parser().parse_args(
        ["search", "--format", "g2", "--k=-1", "--n", "3", "--u-max", "1"]
    )
    assert args.jobs == 1


def test_search_emits_json(capsys):
    code, out, err = run_cli(
        capsys,
        "search",
        "--format",
        "g2",
        "--k=-1",
        "--n",
        "3",
        "--u-max",
        "2",
        "--emit",
        "json",
    )
    assert code == 0
    lines = out.strip().splitlines()
    cands = [candidate_from_json(json.loads(line)) for line in lines]
    assert len(cands) == 1
    assert cands[0].x_weights == (1,) * 12
    assert "#" in err  # progress lines live on stderr


def test_search_resume_skips_completed(tmp_path, capsys):
    cache = str(tmp_path / "records.ndjson")
    args = [
        "search",
        "--format",
        "g2",
        "--k=-1",
        "--n",
        "3",
        "--u-max",
        "3",
        "--resume",
        cache,
        "--emit",
        "csv",
    ]
    code, first_out, _ = run_cli(capsys, *args)
    assert code == 0
    first_records = (tmp_path / "records.ndjson").read_text().splitlines()
    done_keys = [
        json.dumps(json.loads(line)["sweep_key"], sort_keys=True)
        for line in first_records
        if json.loads(line)["record"] == "sweep_done"
    ]
    assert len(done_keys) == len(set(done_keys)) == 4

    code, second_out, err = run_cli(capsys, *args)
    assert code == 0
    assert second_out == first_out
    assert "4 embeddings already done" in err
    second_records = (tmp_path / "records.ndjson").read_text().splitlines()
    assert second_records == first_records  # nothing re-emitted


def test_search_resume_extends_bounds(tmp_path, capsys):
    cache = str(tmp_path / "records.ndjson")
    base = ["search", "--format", "g2", "--k=-1", "--n", "3", "--emit", "json"]
    code, _, _ = run_cli(capsys, *base, "--u-max", "2", "--resume", cache)
    assert code == 0
    code, out, _ = run_cli(capsys, *base, "--u-max", "3", "--resume", cache)
    assert code == 0
    done = [
        json.loads(line)["sweep_key"]
        for line in (tmp_path / "records.ndjson").read_text().splitlines()
        if json.loads(line)["record"] == "sweep_done"
    ]
    keys = [json.dumps(k, sort_keys=True) for k in done]
    assert len(keys) == len(set(keys)) == 4
    cands = [candidate_from_json(json.loads(line)) for line in out.strip().splitlines()]
    assert len(cands) == 4  # full u<=3 candidate set from cache + fresh merge


@pytest.mark.parametrize("fail", [False, True])
def test_a_cli_sweep_freezes_the_heap_only_while_it_runs(capsys, monkeypatch, fail):
    """`wflag search` scans with the objects it held at the start frozen
    (`gc.freeze`), and unfreezes them when the sweep ends, also by an
    error, so an in-process caller gets its collector back as it was."""
    frozen = []
    iter_search = cli_module.iter_search

    def spy(config):
        frozen.append(gc.get_freeze_count())
        if fail:
            raise DomainError("stop")
        yield from iter_search(config)

    monkeypatch.setattr(cli_module, "iter_search", spy)
    before = gc.get_freeze_count()
    code, _, _ = run_cli(capsys, "search", "--format", "g2", "--k", "-1", "--n", "3", "--u-max", "3")
    assert code == int(fail)
    assert frozen and frozen[0] > before
    assert gc.get_freeze_count() == before


def test_a_failed_cli_sweep_stops_its_workers_before_main_returns(tmp_path, capsys, monkeypatch):
    """`wflag search` closes its sweep on the way out: when writing the
    second result fails, the `--jobs 2` workers are killed and reaped by the
    time `main` returns, even while something still holds the generator
    (as a frozen heap at exit may)."""
    events = []
    held = []
    iter_search = cli_module.iter_search

    def spied(config):
        try:
            yield from iter_search(config)
        finally:
            events.append("closed")

    def spy(config):
        held.append(spied(config))
        return held[-1]

    write_result = ResultWriter.write_result

    def failing_write_result(self, result):
        events.append("write")
        if events.count("write") == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_result(self, result)

    monkeypatch.setattr(cli_module, "iter_search", spy)
    monkeypatch.setattr(ResultWriter, "write_result", failing_write_result)
    out = tmp_path / "records.ndjson"
    code, stdout, err = run_cli(
        capsys, "search", "--format", "g2", "--k", "-1", "--n", "3", "--u-max", "3",
        "--jobs", "2", "--out", str(out),
    )
    assert (code, stdout) == (1, "")
    assert err.endswith(f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n")
    assert events == ["write", "write", "closed"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_search_resume_after_torn_final_line(tmp_path, capsys):
    cache = tmp_path / "records.ndjson"
    base = ["search", "--format", "g2", "--k=-1", "--n", "3", "--u-max", "2"]
    code, first_out, _ = run_cli(capsys, *base, "--out", str(cache))
    assert code == 0
    whole = cache.read_bytes()
    cache.write_bytes(whole[:-40])  # killed in the middle of the last record
    code, out, err = run_cli(capsys, *base, "--resume", str(cache))
    assert code == 0
    assert out == first_out
    assert "1 embeddings already done" in err
    lines = cache.read_text().splitlines()
    assert all(json.loads(line) for line in lines)
    assert [json.loads(line)["record"] for line in lines].count("sweep_done") == 2
    # a plain --out append after a torn line keeps the file readable too
    cache.write_bytes(cache.read_bytes()[:-40])
    code, _, _ = run_cli(capsys, *base, "--out", str(cache))
    assert code == 0
    code, _, err = run_cli(capsys, *base, "--resume", str(cache))
    assert code == 0
    assert "2 embeddings already done" in err


def test_corrupt_record_file_is_an_error(tmp_path, capsys):
    cache = tmp_path / "records.ndjson"
    base = ["search", "--format", "g2", "--k=-1", "--n", "3", "--u-max", "2"]
    code, _, _ = run_cli(capsys, *base, "--out", str(cache))
    assert code == 0
    lines = cache.read_text().splitlines(keepends=True)
    cache.write_text(lines[0][:-40] + "\n" + "".join(lines[1:]))
    for argv in (
        [*base, "--resume", str(cache)],
        ["report", "table1", "--from", str(cache)],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: ") and "malformed record on line 1" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"num": "1", "den": "2"}, "numerator coefficient 1/2 is not an integer"),
        ({"num": "1", "den": "0"}, "malformed record on line 1"),
    ],
)
def test_non_integral_numerator_in_record_file_is_an_error(
    tmp_path, capsys, entry, message
):
    cache = tmp_path / "records.ndjson"
    base = ["search", "--format", "g2", "--k=-1", "--n", "3", "--u-max", "2"]
    code, _, _ = run_cli(capsys, *base, "--out", str(cache))
    assert code == 0
    lines = cache.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    assert record["record"] == "candidate"
    record["candidate"]["numerator"][0] = entry
    cache.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
    code, _, err = run_cli(capsys, "report", "table1", "--from", str(cache))
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("u", 3.7),
        ("mu", [True, 1]),
        ("smooth", 1),
        ("basket", [{"r": 2.2, "type": [1, 1, 1], "multiplicity": 1}]),
    ],
)
def test_non_integer_entry_in_record_file_is_an_error(tmp_path, capsys, field, value):
    cache = tmp_path / "records.ndjson"
    base = ["search", "--format", "g2", "--k=-1", "--n", "3", "--u-max", "2"]
    code, _, _ = run_cli(capsys, *base, "--out", str(cache))
    assert code == 0
    lines = cache.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    assert record["record"] == "candidate"
    record["candidate"][field] = value
    cache.write_text(json.dumps(record) + "\n" + "".join(lines[1:]))
    for argv in (
        [*base, "--resume", str(cache)],
        ["report", "table1", "--from", str(cache)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "malformed record on line 1" in err
        assert err.count("\n") == 1


def test_report_from_incomplete_cache(tmp_path, capsys):
    cache = str(tmp_path / "records.ndjson")
    code, _, _ = run_cli(
        capsys,
        "search",
        "--format",
        "g2",
        "--k=-1",
        "--n",
        "3",
        "--u-max",
        "2",
        "--out",
        cache,
    )
    assert code == 0
    code, _, err = run_cli(capsys, "report", "table1", "--from", cache)
    assert code == 1
    assert "not present" in err


REPORT_TABLE1 = """\
row  mu      u  X                             degree  basket                                          BK
---  ------  -  ----------------------------  ------  ----------------------------------------------  --
1    (0,0)   1  P[1^12]                       18      -                                               N
2    (-1,1)  3  P[1,2^4,3^4,4^2,5]            9/10    9 x 1/2(1,1,1), 1/5(3,4,4)                      N
3    (-1,1)  4  P[2,3^4,4^4,5^3]              1/5     2 x 1/2(1,1,1), 6 x 1/3(1,1,2), 3 x 1/5(3,4,4)  N
4    (-2,3)  4  P[1^2,2,3^2,4^3,5^2,6,7]      9/14    2 x 1/4(1,1,3), 1/7(4,5,6)                      N
5    (-4,6)  7  P[1^2,3,5^2,7^3,9^2,11,13]    18/91   2 x 1/7(1,2,5), 1/13(7,9,11)                    N
6    (-3,4)  7  P[2,3,4,5,6^2,7^2,8,9,10,11]  1/22    7 x 1/2(1,1,1), 3 x 1/3(1,1,2), 1/11(6,7,10)    N

deviations from the previously published table:
  row 2: published BK Y, computed N
  row 6: published degree 4/65, computed 1/22
  row 6: published BK Y, computed N
"""


def _write_table_records(cache) -> None:
    """A record file holding exactly the six table rows (the report reads
    only weights, basket, degree and kernels of each candidate)."""
    with open(cache, "w", encoding="utf-8") as fh:
        writer = ResultWriter(fh)
        for row in G2_FANO_TABLE:
            cand = Candidate(
                "g2", row["mu"], row["u"], row["weights"], -1, 3, row["degree"],
                row["basket"], (), not row["basket"], (1,),
            )
            writer.write_result(
                SweepResult("g2", row["mu"], row["u"], -1, 3, (cand,), 1, 0)
            )


def test_report_table1_bytes(tmp_path, capsys):
    cache = tmp_path / "records.ndjson"
    _write_table_records(cache)
    code, out, _ = run_cli(capsys, "report", "table1", "--from", str(cache))
    assert code == 0
    assert out == REPORT_TABLE1


SEARCH_G2_U2 = ("search", "--format", "g2", "--k=-1", "--n", "3", "--u-max", "2")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("report", "table1", "--from", "missing.ndjson"), "cannot read missing.ndjson"),
        (("report", "table1", "--from", "."), "cannot read ."),
        ((*SEARCH_G2_U2, "--resume", "."), "cannot read ."),
        ((*SEARCH_G2_U2, "--out", "missing/x.ndjson"), "cannot write missing/x.ndjson"),
        (
            ("report", "table1", "--from", "table.ndjson", "--out", "missing/t.txt"),
            "cannot write missing/t.txt",
        ),
    ],
    ids=[
        "from-missing-file",
        "from-directory",
        "resume-directory",
        "out-missing-directory",
        "report-out-missing-directory",
    ],
)
def test_unusable_file_is_an_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    _write_table_records(tmp_path / "table.ndjson")
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {message}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, path, code",
    [
        (("initial", "--series", "missing.json", "--n", "3", "--k", "0"), "missing.json", errno.ENOENT),
        (
            ("decompose", "--series", "series.json", "--basket", ".", "--n", "3", "--k", "0"),
            ".",
            errno.EISDIR,
        ),
    ],
    ids=["initial-missing-series", "decompose-directory-basket"],
)
def test_an_unreadable_input_file_is_named_once(tmp_path, monkeypatch, capsys, argv, path, code):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "series.json", X7_SERIES)
    assert run_cli(capsys, *argv) == (1, "", f"error: cannot read {path}: {os.strerror(code)}\n")


@pytest.mark.parametrize(
    "command, payload, flag",
    [
        ("initial", {"numerator": ["x"], "weights": [1]}, "--series"),
        ("initial", {"numerator": [1], "weights": ["a"]}, "--series"),
        ("decompose", [{"r": "z", "type": [1, 1, 1]}], "--basket"),
        ("decompose", [{"r": 2, "type": [1, 1, 1], "multiplicity": {}}], "--basket"),
        ("initial", {"numerator": [{"num": "1", "den": "0"}]}, "--series"),
        # a float or a bool is no integer entry: none is rounded to one
        ("decompose", [{**X7_BASKET[0], "multiplicity": 1.5}], "--basket"),
        ("decompose", [{**X7_BASKET[0], "r": 2.5}], "--basket"),
        ("decompose", [{**X7_BASKET[0], "type": [1, 1, 1.9]}], "--basket"),
        ("decompose", [{**X7_BASKET[0], "multiplicity": True}], "--basket"),
        ("decompose", {**X7_SERIES, "weights": [1, 1, 1, 1.5, 2.2]}, "--series"),
        ("decompose", {**X7_SERIES, "numerator": [True, 0, 0, 0, 0, 0, 0, -1]}, "--series"),
        ("search", None, "--n"),
        ("initial", None, "--n"),
        ("decompose", None, "--n"),
    ],
)
def test_bad_input_files_exit_1(tmp_path, capsys, command, payload, flag):
    if command == "search":
        # a dimension below 1 is rejected before any sweep or record
        out = tmp_path / "out.ndjson"
        code, _, err = run_cli(
            capsys, "search", "--format", "g2", "--k", "-1", "--n", "-2",
            "--u-max", "4", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: dimension --n must be at least 1")
        assert not out.exists()
        return
    if flag == "--n":
        # every dimension below 1 is an error, not a traceback or an answer
        series = write_json(tmp_path / "series.json", X7_SERIES)
        basket = write_json(tmp_path / "basket.json", X7_BASKET)
        extra = ["--basket", basket] if command == "decompose" else []
        for n in ("-5", "-1", "0"):
            code, out, err = run_cli(
                capsys, command, "--series", series, *extra, "--n", n, "--k", "0"
            )
            assert code == 1
            assert err == f"error: dimension --n must be at least 1, got {n}\n"
            assert out == ""
            assert "Traceback" not in err
        return
    bad = write_json(tmp_path / "bad.json", payload)
    files = {
        "--series": write_json(tmp_path / "series.json", X7_SERIES),
        "--basket": write_json(tmp_path / "basket.json", X7_BASKET),
        flag: bad,
    }
    argv = [command, "--series", files["--series"]]
    if command == "decompose":
        argv += ["--basket", files["--basket"]]
    code, _, err = run_cli(capsys, *argv, "--n", "3", "--k", "1")
    assert code == 1
    assert err.startswith(f"error: {bad}: ")
    assert "Traceback" not in err


#: (1 − t)⁴(1 − t²), the denominator of X7_SERIES as a raw coefficient list
X7_DENOMINATOR = [1, -4, 5, 0, -5, 4, -1]


def test_a_raw_denominator_decomposes_as_the_weights_do(tmp_path, capsys):
    basket = write_json(tmp_path / "basket.json", X7_BASKET)
    outs = []
    for name, series in [
        ("weights", X7_SERIES),
        ("denominator", {"numerator": X7_SERIES["numerator"], "denominator": X7_DENOMINATOR}),
    ]:
        path = write_json(tmp_path / f"{name}.json", series)
        code, out, err = run_cli(
            capsys, "decompose", "--series", path, "--basket", basket, "--n", "3", "--k", "1"
        )
        assert (code, err) == (0, "")
        outs.append(out)
    assert "identity holds" in outs[0] and outs[1] == outs[0]


def test_a_series_without_a_denominator_is_a_polynomial(tmp_path, capsys):
    outs = []
    for name, extra in [("bare", {}), ("one", {"denominator": [1]}), ("empty", {"weights": []})]:
        path = write_json(tmp_path / f"{name}.json", {"numerator": [1, 3, 1], **extra})
        code, out, err = run_cli(capsys, "initial", "--series", path, "--n", "3", "--k", "1")
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[1] == outs[0] and outs[2] == outs[0]


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--series", '{"numerator": [1], ', "is not valid JSON"),
        ("--series", json.dumps({**X7_SERIES, "weights": [1, 1, 1, 0, 2]}),
         "denominator weights must be positive"),
        ("--series", json.dumps({**X7_SERIES, "weights": [1, 1, 1, -1, 2]}),
         "denominator weights must be positive"),
        ("--series", json.dumps({"numerator": [1], "denominator": [0, 0]}), "zero denominator"),
        ("--series", json.dumps({"numerator": [1], "denominator": []}), "zero denominator"),
        ("--basket", json.dumps(X7_BASKET[0]), "expected a JSON list of quotient points"),
        ("--basket", json.dumps([{"type": [1, 1, 1]}]), "each entry needs 'r' and 'type' keys"),
        ("--basket", json.dumps([{"r": 2}]), "each entry needs 'r' and 'type' keys"),
        ("--basket", json.dumps([[2, 1, 1, 1]]), "each entry needs 'r' and 'type' keys"),
    ],
)
def test_a_malformed_input_file_is_one_error_line_naming_it(
    tmp_path, capsys, flag, text, message
):
    files = {
        "--series": write_json(tmp_path / "series.json", X7_SERIES),
        "--basket": write_json(tmp_path / "basket.json", X7_BASKET),
    }
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    files[flag] = str(bad)
    code, out, err = run_cli(
        capsys, "decompose", "--series", files["--series"], "--basket", files["--basket"],
        "--n", "3", "--k", "1",
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "malformed record on line 2: not an object"),
        ('"sweep_done"', "malformed record on line 2: not an object"),
        (None, "malformed record on line 2: unknown record kind 'bogus'"),
    ],
)
def test_a_record_line_of_the_wrong_shape_names_its_line(tmp_path, capsys, line, message):
    cache = tmp_path / "records.ndjson"
    base = ["search", "--format", "g2", "--k=-1", "--n", "3", "--u-max", "2"]
    code, _, _ = run_cli(capsys, *base, "--out", str(cache))
    assert code == 0
    lines = cache.read_text().splitlines(keepends=True)
    if line is None:
        line = json.dumps({**json.loads(lines[1]), "record": "bogus"})
    cache.write_text(lines[0] + line + "\n" + "".join(lines[2:]))
    code, out, err = run_cli(capsys, "report", "table1", "--from", str(cache))
    assert (code, out) == (1, "")
    assert err == f"error: {cache}: {message}\n"


def _run_module(*argv):
    # the child imports the same wflag as this process, installed or not
    src = os.path.dirname(os.path.dirname(wflag.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "wflag", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_search_output_is_independent_of_jobs(tmp_path):
    """Forked workers print nothing and flush no inherited buffer: stdout and
    the record file (but `timing_ms`) match a serial run byte for byte."""
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.ndjson"
        proc = _run_module(
            "search", "--format", "g2", "--k", "-1", "--n", "3", "--u-max", "3",
            "--emit", "json", "--out", str(out), "--jobs", jobs,
        )
        assert proc.returncode == 0, proc.stderr
        text = out.read_text(encoding="utf-8")
        assert text.count('"timing_ms":') == 4 + text.count('"record":"candidate"')
        runs.append((proc.stdout, re.sub(r'"timing_ms":[^,]*,', "", text)))
    assert runs[0][0] and runs[1] == runs[0]


def test_the_cli_process_exits_with_its_heap_frozen():
    """`main` registers `gc.freeze` to run at exit, once however often it is
    called.  Handlers run last in, first out, so one registered before the
    first `main` sees the heap frozen, after exactly one freeze."""
    src = os.path.dirname(os.path.dirname(wflag.__file__))
    script = (
        "import atexit, gc, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "freezes = []\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: freezes.append(freeze())\n"
        "atexit.register(lambda: print(len(freezes), gc.get_freeze_count() > 0))\n"
        "import wflag.cli\n"
        "argv = ['weights', '--format', 'g2', '--mu', '-1,1', '--u', '3']\n"
        "sys.exit(max(wflag.cli.main(argv) for _ in range(2)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "1 2 2 2 2 3 3 3 3 4 4 4 4 5\n" * 2 + "1 True\n"


def test_a_frozen_exit_loses_no_output(tmp_path, capsys):
    """A `--jobs 2` sweep run as its own process prints the same stdout, and
    writes the same record file outside `timing_ms`, as the same sweep run in
    process: nothing buffered is lost when the process exits frozen."""
    argv = ["search", "--format", "g2", "--k", "-1", "--n", "3", "--u-max", "3", "--jobs", "2"]
    child, here = tmp_path / "child.ndjson", tmp_path / "here.ndjson"
    proc = _run_module(*argv, "--out", str(child))
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(capsys, *argv, "--out", str(here))
    assert code == 0 and out and proc.stdout == out
    records = [re.sub(r'"timing_ms":[^,]*,', "", f.read_text(encoding="utf-8")) for f in (child, here)]
    assert records[0] and records[0] == records[1]


def test_the_record_file_does_not_depend_on_jobs(tmp_path, capsys):
    """`--jobs 1` and `--jobs 3` print the same stdout and write the same
    record lines outside `timing_ms`, although each worker computes the
    kernels of its own embeddings."""
    argv = ["search", "--format", "g2", "--k", "-1", "--n", "3", "--u-max", "3"]
    runs = []
    for jobs in (1, 3):
        path = tmp_path / f"jobs{jobs}.ndjson"
        code, out, _ = run_cli(capsys, *argv, "--jobs", str(jobs), "--out", str(path))
        assert code == 0
        lines = path.read_text(encoding="utf-8").splitlines()
        runs.append((out, [re.sub(r'"timing_ms":[^,]*,', "", line) for line in lines]))
    assert runs[0] == runs[1]
    assert any('"record":"candidate"' in line for line in runs[0][1])


def test_cli_via_module_invocation():
    proc = _run_module("qorb", "--r", "2", "--type", "1,1,1", "--k", "1")
    assert proc.returncode == 0
    assert "-t^3" in proc.stdout
