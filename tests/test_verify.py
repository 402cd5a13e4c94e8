import csv
import hashlib
import io
import json

import pytest

from aztec_tilings import engines, verify
from aztec_tilings.grids import dual_graph
from aztec_tilings.regions import MAX_ORDER, build_quartered


def test_theorem1_suite_case_count():
    report = verify.run_suite("theorem1", max_order=12)
    assert report.ok
    assert len(report.cases) == 36


def test_run_suite_is_the_only_way_to_run_a_suite():
    # suite_theorem1(max_order=0) once returned an ok report of 0 cases
    assert [name for name in vars(verify) if name.startswith("suite_")] == []


def test_each_suite_passes():
    for name in verify.SUITE_NAMES:
        report = verify.run_suite(name)
        assert report.ok, report.pretty()


def test_a_case_is_ok_iff_its_strings_agree():
    assert verify.VerifyCase("x", "1", "2").ok is False
    assert verify.VerifyCase("x", "1", "1").ok is True


@pytest.mark.parametrize("name,cases", [("lemma3", 4), ("factorization", 5)])
def test_a_graph_with_no_diagonal_axis_fails_its_axis_case(name, cases, monkeypatch):
    monkeypatch.setattr(verify, "find_diagonal_axis", lambda g: None)
    report = verify.run_suite(name, max_n=1)
    assert len(report.cases) == cases
    assert all(c.case_id.endswith(":axis") and not c.ok for c in report.cases)
    assert not report.ok


def test_engines_suite_has_enough_trials():
    report = verify.run_suite("engines")
    assert report.ok
    dp_cases = [c for c in report.cases if c.case_id.endswith(":dp")]
    assert len(dp_cases) == 300


def test_json_is_deterministic():
    a = verify.reports_to_json([verify.run_suite("lemma4")])
    b = verify.reports_to_json([verify.run_suite("lemma4")])
    assert a == b
    payload = json.loads(a)
    assert payload["suite"] == "lemma4"
    assert payload["ok"] is True
    # no timing data may leak into the stable output
    assert "wall" not in a


def test_verify_all_json_is_pinned():
    text = verify.reports_to_json(verify.run_all(12))
    assert len(text) == 58269
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "dc623cf7344b437150dae0b255df5cb499b1a00704b500105f256c2393536700"


@pytest.mark.parametrize(
    "name,bounds,cases",
    [
        ("theorem1", {"max_order": 2}, 6),
        ("lemma6", {"max_n": 3}, 3),
        ("lemma6", {"max_n": None}, 50),
        ("lemma1", {"max_n": 1}, 4),
    ],
)
def test_run_suite_passes_each_suite_its_bound(name, bounds, cases):
    report = verify.run_suite(name, **bounds)
    assert report.suite == name
    assert len(report.cases) == cases


def test_theorem1_runs_past_the_sweep():
    report = verify.run_suite("theorem1", max_order=32)
    assert report.ok, report.pretty()
    assert len(report.cases) == 96


@pytest.mark.parametrize(
    "name,bounds,message",
    [
        ("theorem1", {"max_order": 0}, "max_order"),
        ("theorem1", {"max_order": -3}, "max_order"),
        ("theorem1", {"max_order": MAX_ORDER + 1}, "max_order"),
        ("lemma2", {"max_n": -1}, "max_n"),
        ("lemma6", {"max_n": -5}, "max_n"),
        ("lemma6", {"max_n": 0}, "max_n"),
        ("lemma4", {"max_order": 20}, "max_order"),
        ("engines", {"max_order": 12}, "max_order"),
    ],
)
def test_run_suite_rejects_a_bound_with_no_cases(name, bounds, message):
    with pytest.raises(ValueError, match=message):
        verify.run_suite(name, **bounds)


def _no_case(*args):
    raise AssertionError("a case ran")


@pytest.mark.parametrize(
    "name,bounds,message",
    [
        # True once read as 1 and returned an ok report of 3 cases
        ("theorem1", {"max_order": True}, "max_order must be an int >= 1, got True"),
        ("theorem1", {"max_order": 2.0}, "max_order must be an int >= 1, got 2.0"),
        # 2.0 once raised TypeError from range
        ("lemma6", {"max_n": 2.0}, "max_n must be an int >= 1, got 2.0"),
        ("lemma1", {"max_n": False}, "max_n must be an int >= 1, got False"),
    ],
)
def test_run_suite_refuses_a_bound_that_is_not_an_int_before_any_case(name, bounds, message, monkeypatch):
    for builder in ("build_quartered", "lemma6_rhs"):
        monkeypatch.setattr(verify, builder, _no_case)
    with pytest.raises(ValueError) as raised:
        verify.run_suite(name, **bounds)
    assert str(raised.value) == message


# The largest max_n each bounded suite takes: its largest order, 4n+1, 4n+3, 4n or n,
# stays within MAX_ORDER = 300.
@pytest.mark.parametrize(
    "name,limit",
    [("lemma1", 74), ("lemma2", 74), ("lemma3", 75), ("factorization", 75), ("lemma6", 300)],
)
def test_run_suite_rejects_max_n_past_max_order_before_any_case(name, limit, monkeypatch):
    for builder in ("build_quartered", "build_holey_ar", "build_holey_ar_bar", "lemma6_rhs"):
        monkeypatch.setattr(verify, builder, _no_case)
    with pytest.raises(ValueError, match=f"max_n must be at most {limit} "):
        verify.run_suite(name, max_n=limit + 1)
    with pytest.raises(AssertionError, match="a case ran"):
        verify.run_suite(name, max_n=limit)


# The guard above trusts each suite's top_order; the builders it stubs out must agree.
@pytest.mark.parametrize("value", [1, 2, 3])
@pytest.mark.parametrize("name", ["theorem1", "lemma1", "lemma2", "lemma3", "factorization", "lemma6"])
def test_top_order_is_the_largest_order_a_suite_builds(name, value, monkeypatch):
    built = []
    for builder in ("build_quartered", "build_holey_ar", "build_holey_ar_bar", "lemma6_rhs"):
        def record(*args, real=getattr(verify, builder)):
            built.append(max(a for a in args if isinstance(a, int)))
            return real(*args)

        monkeypatch.setattr(verify, builder, record)
    _, bound, top_order = verify._SUITES[name]
    assert verify.run_suite(name, **{bound: value}).ok
    assert max(built) == top_order(value)


@pytest.mark.parametrize("name", ["lemma4", "lemma5", "engines", "theorem1"])
def test_run_suite_rejects_max_n_it_does_not_read(name):
    with pytest.raises(ValueError, match="max_n"):
        verify.run_suite(name, max_n=1)


def test_combined_json_shape():
    reports = [verify.run_suite("lemma6", max_n=3), verify.run_suite("factorization", max_n=1)]
    payload = json.loads(verify.reports_to_json(reports))
    assert payload["suite"] == "all"
    assert [s["suite"] for s in payload["suites"]] == ["lemma6", "factorization"]


def test_csv_output():
    text = verify.reports_to_csv([verify.run_suite("lemma6", max_n=2)])
    lines = text.splitlines()
    assert lines[0] == "suite,case,expected,actual,ok"
    assert lines[1] == "lemma6,n=1,3,3,true"


def test_csv_rows_parse_to_the_json_cases():
    # lemma4 ids such as ar(3,5)keep=1,3,5 and factorization ids such as
    # ar(2,4)B1 hold commas.
    reports = [verify.run_suite("lemma4"), verify.run_suite("factorization", max_n=1)]
    rows = list(csv.reader(io.StringIO(verify.reports_to_csv(reports))))
    assert rows[0] == ["suite", "case", "expected", "actual", "ok"]
    want = [
        [r["suite"], c["id"], c["expected"], c["actual"], json.dumps(c["ok"])]
        for r in map(verify.SuiteReport.to_json_dict, reports)
        for c in r["cases"]
    ]
    assert rows[1:] == want
    assert any("," in row[1] for row in rows[1:])


def test_pretty_output_mentions_suite():
    report = verify.run_suite("factorization", max_n=1)
    assert "factorization" in report.pretty()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("lemma99")


@pytest.fixture
def counted(monkeypatch):
    """The graphs handed to engines.count, in call order."""
    graphs = []

    def spy(g, *args, real=engines.count, **kwargs):
        graphs.append(g)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(engines, "count", spy)
    return graphs


@pytest.mark.parametrize("name,distinct", [("lemma4", 36), ("lemma5", 47)])
def test_a_suite_counts_each_named_instance_once_per_run(name, distinct, counted):
    # 81 cases each, on 36 and 47 distinct rectangles: a repeated draw is not counted again
    for _ in range(2):  # the second run counts as many again: no count outlives its run
        counted.clear()
        report = verify.run_suite(name)
        assert len(report.cases) == 81
        assert len({c.case_id for c in report.cases}) == len(counted) == distinct


def test_verify_all_counts_each_named_instance_once(counted):
    # 281 calls when each case counted its own graphs; on one ledger theorem1's quarters
    # serve lemma1-3, and lemma3's rectangles serve lemma4 and factorization
    verify.run_all(12)
    assert len(counted) == 144


@pytest.mark.parametrize("name,max_n", [("lemma1", 2), ("lemma3", 2), ("lemma4", None),
                                        ("lemma5", None)])
def test_a_ledger_key_determines_its_count(name, max_n):
    ledger = {}
    assert verify._run(ledger, name, None, max_n).ok
    assert ledger
    for (builder, *args), value in ledger.items():
        built = builder(*args)
        assert engines.count(dual_graph(built) if builder is build_quartered else built) == value
