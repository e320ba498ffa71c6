"""Job parsing, report generation, exit codes, CLI surface, regression."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stringykit import cli
from stringykit.errors import ParseError
from stringykit.jacobian import Context
from stringykit.reporting import (VERIFICATION_NAMES, cohomology_table,
                                  inspect_pair, parse_input, render_report,
                                  run)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def load_job(name, **overrides):
    doc = json.loads((CORPUS / name).read_text())
    job = parse_input(doc)
    for k, v in overrides.items():
        setattr(job, k, v)
    return job


def test_parse_segment_job():
    job = parse_input({"polytope_vertices": [[-1], [1]],
                       "g": "random:seed=7", "f": "random:seed=9"})
    assert job.cone_kind == "polytope_vertices"
    assert job.f_source == ("random", 9)
    assert job.g_source == ("random", 7)


def test_parse_rays_with_verify():
    job = parse_input({"rays": [[1, 0], [0, 1]], "verify": ["thm-key"]})
    assert job.cone_kind == "rays"
    assert job.verify == ("thm-key",)


def test_parse_explicit_coefficients():
    job = parse_input({"rays": [[1, 0], [0, 1]],
                       "f": [[[1, 0], "1"], [[0, 1], "3/2"]]})
    kind, mapping = job.f_source
    assert kind == "explicit"
    from fractions import Fraction
    assert mapping[(0, 1)] == Fraction(3, 2)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_input({})
    with pytest.raises(ParseError):
        parse_input({"rays": [[1, 0]], "polytope_vertices": [[1]]})
    with pytest.raises(ParseError):
        parse_input({"rays": [[1, 0], [0, 1]], "nonsense": 1})
    with pytest.raises(ParseError):
        parse_input({"rays": [[1, 0], [0, 1]], "verify": ["bogus"]})
    with pytest.raises(ParseError):
        parse_input({"rays": [[1, 0], [0, 1]], "f": "random:seed=x"})
    with pytest.raises(ParseError):
        parse_input({"rays": [[1, 0], [0, 1]], "f": [[[1, 0], "1/0"]]})
    # JSON true and false are no integers, though bool subclasses int
    for doc in ({"rays": [[True, False], [False, True]]},
                {"polytope_vertices": [[-1], [True]]},
                {"rays": [[1, 0], [0, 1]], "max_degree": True},
                {"rays": [[1, 0], [0, 1]], "n_cap": True},
                {"rays": [[1, 0], [0, 1]], "g": [[[0, 1], True]]},
                {"rays": [[1, 0], [0, 1]], "g": [[[False, 1], 1]]}):
        with pytest.raises(ParseError):
            parse_input(doc)


def test_repeated_verification_name_rejected(tmp_path):
    doc = json.loads((CORPUS / "segment.json").read_text())
    with pytest.raises(ParseError) as err:
        parse_input(dict(doc, verify=["bhiso", "bhiso"]))
    assert err.value.location == "verify"
    # "all" next to other names still expands to all six
    assert parse_input(dict(doc, verify=["all", "bhiso"])).verify == \
        VERIFICATION_NAMES
    job = tmp_path / "job.json"
    job.write_text(json.dumps(dict(doc, verify=["bhiso", "bhiso"])))
    proc = _cli("report", str(job))
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["error"]["type"] == "ParseError"
    assert "verify" in payload["error"]["message"]


def test_zero_ray_rejected_with_exit_2(tmp_path, capsys):
    """A zero vector has no primitive ray: the job is an input error
    (exit code 2) at ``rays``, not a failed verdict."""
    with pytest.raises(ParseError) as err:
        parse_input({"rays": [[0, 0], [1, 0], [0, 1]]})
    assert err.value.location == "rays"
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"rays": [[0, 0], [1, 0], [0, 1]]}))
    for argv in (["report", str(job)], ["inspect", str(job)]):
        assert cli.main(argv) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ParseError"
        assert "(at rays)" in payload["error"]["message"]
    # the origin is a vertex like any other
    assert parse_input({"polytope_vertices": [[0], [1], [-1]]})


def test_missing_output_directory_rejected_before_work(tmp_path, capsys,
                                                      monkeypatch):
    """An output path in a directory that does not exist, or naming an
    existing directory, is an input error (exit code 2) at ``output``,
    found before any work is done."""
    def no_work(job):
        raise AssertionError("the job ran")
    monkeypatch.setattr(cli, "run", no_work)
    monkeypatch.setattr(cli, "inspect_pair", no_work)
    job = str(CORPUS / "segment.json")
    for out in (str(tmp_path / "missing" / "out.json"), str(tmp_path)):
        for argv in (["report", job, "--output", out],
                     ["inspect", job, "--output", out]):
            assert cli.main(argv) == 2
            payload = json.loads(capsys.readouterr().out)
            assert payload["error"]["type"] == "ParseError"
            assert "(at output)" in payload["error"]["message"]
        # the document's own key takes the same check
        with pytest.raises(ParseError) as err:
            parse_input({"rays": [[1]], "output": out})
        assert err.value.location == "output"
    assert list(tmp_path.iterdir()) == []
    assert parse_input({"rays": [[1]], "output": "out.json"}).output


def test_output_write_failure_exit_2(tmp_path, capsys, monkeypatch):
    """Any other failure to write the output is reported as an input
    error at ``output`` with exit code 2, not as a failed verdict."""
    def failing_open(path, mode="r", **kwargs):
        if "w" in mode:
            raise OSError(28, "No space left on device")
        return open(path, mode, **kwargs)
    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    monkeypatch.setattr(cli, "run", lambda job: ({"verdict": "pass"}, 0))
    monkeypatch.setattr(cli, "inspect_pair", lambda job: {"pair": {}})
    out = str(tmp_path / "out.json")
    job = str(CORPUS / "segment.json")
    for argv in (["report", job, "--output", out],
                 ["inspect", job, "--output", out]):
        assert cli.main(argv) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "ParseError"
        assert "(at output)" in payload["error"]["message"]
        assert payload["exit_code"] == 2


@pytest.mark.parametrize("side", ["f", "g"])
def test_repeated_coefficient_point_rejected(side):
    values = [[[-1, 1], "1"], [[1, 1], "2"], [[-1, 1], "0"]]
    with pytest.raises(ParseError) as err:
        parse_input({"polytope_vertices": [[-1], [1]], side: values})
    assert err.value.location == "%s[2]" % side
    with pytest.raises(ParseError) as err:
        parse_input({"polytope_vertices": [[-1], [1]],
                     side: {"values": values[:1] * 2}})
    assert err.value.location == "%s[1]" % side


def test_coefficient_point_outside_delta():
    job = parse_input({"rays": [[1, 0], [0, 1]],
                       "f": [[[5, 5], "1"]]})
    report, code = run(job)
    assert code == 2
    assert report["error"]["type"] == "ValidationError"


def test_degenerate_explicit_coefficients_exit_2():
    job = parse_input({"polytope_vertices": [[-1], [1]],
                       "f": [[[0, 1], "0"]]})
    report, code = run(job)
    assert code == 2
    assert report["error"]["type"] == "DegenerateCoefficients"


def test_not_gorenstein_input_exit_2():
    job = parse_input({"rays": [[1, 0], [1, 3]]})
    report, code = run(job)
    assert code == 2
    assert report["error"]["type"] == "NotGorenstein"


def test_run_ray_pair_pass():
    job = load_job("r1_ray.json")
    report, code = run(job)
    assert code == 0
    assert report["verdict"] == "pass"
    assert set(report["verifications"]) == set(job.verify)


def test_determinism_byte_identical():
    job1 = load_job("segment.json")
    job2 = load_job("segment.json")
    r1, _ = run(job1)
    r2, _ = run(job2)
    assert render_report(r1) == render_report(r2)


@pytest.mark.parametrize("name", ["r1_ray", "segment", "p2_triangle",
                                  "square"])
def test_corpus_regression(name):
    job = load_job(name + ".json")
    report, code = run(job)
    assert code == 0
    expected = (CORPUS / (name + ".report.json")).read_text()
    assert render_report(report) == expected


def test_inspect_summary():
    job = load_job("p2_triangle.json")
    info = inspect_pair(job)
    assert info["pair"]["rank"] == 3
    assert info["pair"]["degree_one_points"] == 4
    assert info["pair"]["dual_degree_one_points"] == 10
    assert info["pair"]["face_counts_by_dim"] == \
        {"0": 1, "1": 3, "2": 3, "3": 1}


def test_cohomology_table_dhat():
    job = load_job("p2_triangle.json")
    payload, code = cohomology_table(job, "dhat")
    assert code == 0
    assert payload["dims"] == {"2": 1, "3": 2, "4": 1}


def _cli(*argv):
    """The CLI in a child process, importing the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(CORPUS.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stringykit.cli", *argv],
        capture_output=True, text=True, env=env,
        cwd=str(CORPUS.parent))
    return proc


def test_cli_inspect():
    proc = _cli("inspect", "corpus/segment.json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pair"]["rank"] == 2


def test_cli_verify_thm_key():
    proc = _cli("verify", "thm-key", "corpus/segment.json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verifications"]["thm-key"]["verdict"] == "pass"


def test_cli_bad_input_exit_2():
    proc = _cli("verify", "all", "corpus/does_not_exist.json")
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["error"]["type"] == "ParseError"


def test_cli_dispatch_error_exit_2(tmp_path):
    # the job loads, then building its certified coefficients fails
    job = tmp_path / "degenerate.json"
    job.write_text(json.dumps({"polytope_vertices": [[-1], [1]],
                               "f": [[[0, 1], "0"]]}))
    proc = _cli("hilbert", str(job))
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["error"]["type"] == "DegenerateCoefficients"
    assert payload["exit_code"] == 2


def test_cli_r1_and_hilbert():
    proc = _cli("r1", "corpus/segment.json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["sides"][0]["side"] == "primal"
    proc = _cli("hilbert", "corpus/r1_ray.json")
    assert proc.returncode == 0


def test_corrupted_expectation_detected():
    # negative control: a wrong expected report must not compare equal
    job = load_job("r1_ray.json")
    report, _ = run(job)
    text = render_report(report)
    corrupted = text.replace('"pass"', '"fail"', 1)
    assert corrupted != text
    assert json.loads(corrupted) != json.loads(text)


def test_sheaf_verdicts_fail_on_wrong_cohomology(monkeypatch):
    """Negative control: the thm-key and prop-maincoro sections read the
    sheaf cohomology they are given.  One class too many at the zero
    cell, or one class too few where sigma0 = theta0*, makes them fail."""
    job = parse_input({"polytope_vertices": [[-1], [1]],
                       "verify": ["thm-key", "prop-maincoro"]})
    report, code = run(job)
    assert code == 0
    sheaf_cohomology = Context.sheaf_cohomology

    def extra_class(self, fan, origin, D):
        got = sheaf_cohomology(self, fan, origin, D)
        if origin is fan.zero_cell():
            got[(0, 0)] = got.get((0, 0), 0) + 1
        return got

    monkeypatch.setattr(Context, "sheaf_cohomology", extra_class)
    report, code = run(job)
    section = report["verifications"]["thm-key"]
    assert (section["verdict"], code) == ("fail", 1)
    assert section["violations"] == [{"gr": 0, "poly_degree": 0, "dim": 1}]

    def dropped_class(self, fan, origin, D):
        got = sheaf_cohomology(self, fan, origin, D)
        if origin in fan.maximal:
            got = {}
        return got

    monkeypatch.setattr(Context, "sheaf_cohomology", dropped_class)
    report, code = run(job)
    assert code == 1
    assert report["verifications"]["thm-key"]["verdict"] == "pass"
    section = report["verifications"]["prop-maincoro"]
    assert section["verdict"] == "fail"
    assert {(c["case"], c["verdict"]) for c in section["cases"]} == \
        {("sigma0 = theta0*", "fail"), ("sigma0 < theta0*", "pass")}


def test_cli_cohomology_dhat():
    proc = _cli("cohomology", "--differential", "dhat",
                "corpus/segment.json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["differential"] == "dhat"
    assert payload["dims"] == {"2": 2}


def test_cli_report_timings_flag():
    proc = _cli("report", "corpus/r1_ray.json", "--timings")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert "timings" in payload
    # and the default report has none, keeping byte determinism
    proc2 = _cli("report", "corpus/r1_ray.json")
    assert "timings" not in json.loads(proc2.stdout)


@pytest.mark.parametrize("argv, doc", [
    (["verify", "thm-main", "--max-degree", "0"], None),
    (["cohomology", "--max-degree", "0"], None),
    (["verify", "maingkz", "--n-cap", "1"], None),
    (["inspect"], {"output": 2}),
    (["inspect"], {"output": ["x"]}),
], ids=["max-degree-verify", "max-degree-cohomology", "n-cap", "output-int",
        "output-list"])
def test_cli_overrides_and_output_are_validated(tmp_path, argv, doc):
    job = CORPUS / "segment.json"
    if doc is not None:
        job = tmp_path / "job.json"
        job.write_text(json.dumps(
            dict(json.loads((CORPUS / "segment.json").read_text()), **doc)))
    proc = _cli(*argv, str(job))
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["error"]["type"] == "ParseError"
    assert payload["exit_code"] == 2
