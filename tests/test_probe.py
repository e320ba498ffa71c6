"""The benchmark's child process, run as the benchmark runs it: it reads
attributes of the library's objects, so a rename shows up here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "probe.py"
JOB = ROOT / "corpus" / "segment.json"


def _probe(tmp_path, *argv):
    proc = subprocess.run([sys.executable, str(PROBE), *argv],
                          capture_output=True, text=True, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_probe_traced_job_and_setup(tmp_path):
    report, spans = tmp_path / "report.json", tmp_path / "spans.json"
    info = _probe(tmp_path, "job", str(JOB), str(report),
                  "--trace", str(spans), "--job-id", "seg")
    assert info["exit_code"] == 0
    got = json.loads(report.read_text())
    assert "timings" in got
    del got["timings"]
    want = json.loads((ROOT / "corpus" / "segment.report.json").read_text())
    assert got == want
    counters = {}
    for _, name, _, _, _, job_id, attrs in json.loads(spans.read_text()):
        assert job_id == "seg"
        if attrs:
            counters.setdefault(name, set()).update(attrs)
    assert counters["jacobian.HatModel"] == {"points", "ideal_rank", "dual"}
    assert counters["sheaves.MinimalSheaf"] == {"generators"}
    assert counters["koszul.v_basis"] == {"elements"}
    assert _probe(tmp_path, "setup", str(JOB))["setup_s"] > 0
