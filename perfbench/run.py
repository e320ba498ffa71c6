"""Benchmark of stringykit: time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is run from ``src/`` as it
stands; nothing is installed.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds run metadata (not gated).  The exit
code is 0 only when every job passed its correctness check.

Workloads (closed loop: one job at a time, each waits for its verdict):

* ``flatness`` -- ``verify flatness`` on the polar duals of the P2 and
  square corpus pairs, each job in a fresh process.  The flatness check
  runs on the g side, so these pairs keep the Q[eps] hat-model work of
  the corpus pairs at a few seconds per job.  ``gkz``, ``jacobian.HatModel``
  and ``linalg.Echelon`` do the work; ``koszul`` and ``sheaves`` do none.
* ``complexes`` -- the other five verifiers on the P2 corpus pair in a
  fresh process: ``koszul``, ``sheaves`` and the graded side of
  ``jacobian``; ``gkz`` is never called.

The seed picks the coefficient sources: seed 0 reproduces the corpus
(f ``random:seed=1``, g ``random:seed=2``); any other seed derives fresh
``random:seed=N`` sources.  Every report must pass and match its committed
reference in every section but ``job``; reports are seed-independent
apart from that echo.  The references are ``corpus/*.report.json`` and,
for the polar pairs, ``perfbench/ref``, written by ``stringykit report``
at seed 0.

``--trace 0`` runs timed passes for ``--seconds`` and prints the end-to-end
metrics (medians over passes; ``setup_s`` is the median of the
fresh-process set-ups per job, SETUP_PER_PASS of them before each pass,
summed over jobs).  ``--trace 1`` runs one
pass without tracing and two traced passes whatever ``--seconds`` says,
derives self times and work counters from the spans, checks that the two
traced passes count the same work, and prints the per-layer metrics;
``trace.overhead_s`` is the traced minus the untraced pass time.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
PROBE = os.path.join(BENCH, "probe.py")
CORPUS = os.path.join(ROOT, "corpus")

DEFAULT_SEED = 0
BUDGET_S = 170          # the whole run ends within this
SETUP_PER_PASS = 3      # set-up probes per job before each timed pass
MIN_PASSES = 2          # timed passes per run, even when --seconds is short

VERIFIERS = ["thm-key", "thm-main", "prop-maincoro", "bhiso", "flatness",
             "maingkz"]

# cones of the pairs that are not in the corpus
CONES = {
    "polar_p2": {"polytope_vertices": [[-1, -1], [2, -1], [-1, 2]]},
    "polar_square": {"polytope_vertices": [[-1, -1], [1, -1], [1, 1],
                                           [-1, 1]]},
}

# workload -> [(pair, verifiers)], one fresh process per job
WORKLOADS = {
    "flatness": [("polar_p2", ["flatness"]), ("polar_square", ["flatness"])],
    "complexes": [("p2_triangle", [v for v in VERIFIERS
                                   if v != "flatness"])],
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or inputs)."""


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def _write_json(path, doc):
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)


def coefficient_seeds(seed):
    """(f, g) seeds; seed 0 gives the corpus's."""
    return 2 * seed + 1, 2 * seed + 2


def pair_cone(pair):
    if pair in CONES:
        return dict(CONES[pair])
    path = os.path.join(CORPUS, pair + ".json")
    if not os.path.exists(path):
        raise BenchError("missing corpus job %s" % path)
    doc = _read_json(path)
    return {k: doc[k] for k in ("rays", "polytope_vertices") if k in doc}


def reference(pair):
    """Path of the committed report of a pair at seed 0."""
    path = os.path.join(CORPUS, pair + ".report.json")
    if pair in CONES:
        path = os.path.join(BENCH, "ref", pair + ".report.json")
    if not os.path.exists(path):
        raise BenchError("missing reference report %s" % path)
    return path


class Job:
    def __init__(self, workdir, pair, verify, seed):
        self.verify = verify
        self.ref_path = reference(pair)
        f, g = coefficient_seeds(seed)
        self.id = pair
        doc = pair_cone(pair)
        doc.update({"f": "random:seed=%d" % f, "g": "random:seed=%d" % g,
                    "verify": verify})
        self.path = os.path.join(workdir, self.id + ".job.json")
        _write_json(self.path, doc)

    def check(self, text):
        """Problems with a report; an empty list when it is correct."""
        try:
            rep = json.loads(text)
        except ValueError:
            return ["%s: report is not JSON" % self.id]
        problems = []
        if rep.get("verdict") != "pass" or rep.get("exit_code") != 0:
            problems.append("%s: verdict %r" % (self.id, rep.get("verdict")))
        ref = _read_json(self.ref_path)
        ref["verifications"] = {n: ref["verifications"][n]
                                for n in self.verify}
        for key in sorted(set(ref) | set(rep)):
            if key in ("job", "timings"):
                continue
            if rep.get(key) != ref.get(key):
                problems.append("%s: section %r differs from %s" % (
                    self.id, key, os.path.relpath(self.ref_path, ROOT)))
        return problems


class Runner:
    def __init__(self, workload, seed, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.jobs = [Job(workdir, pair, verify, seed)
                     for pair, verify in WORKLOADS[workload]]
        self.env = dict(os.environ)
        # the thread pool is slower for this GIL-bound code; keep it off
        self.env.pop("STRINGYKIT_JOBS", None)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.passes = 0

    def _child(self, args):
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError("time budget of %d s used up" % BUDGET_S)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, PROBE] + args, env=self.env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=left)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("probe %s exited %d: %s" % (
                args[0], proc.returncode, proc.stderr.strip()[-2000:]))
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def setup(self, job):
        """Seconds one fresh process spends setting the job up."""
        info, _ = self._child(["setup", job.path])
        return info["setup_s"]

    def run_pass(self, trace):
        """One pass over the workload's jobs, each in a fresh process."""
        self.passes += 1
        out = {"reports": [], "spans": [], "live": 0, "walls": [],
               "peaks": []}
        for job in self.jobs:
            stem = os.path.join(self.workdir, "p%d.%s" % (self.passes, job.id))
            args = ["job", job.path, stem + ".report.json"]
            if trace:
                args += ["--trace", stem + ".spans.json", "--job-id", job.id]
            info, wall = self._child(args)
            self.attempted += 1
            self._collect(job, info["exit_code"], stem + ".report.json", out)
            if trace:
                out["spans"] += _read_json(stem + ".spans.json")
                out["live"] += info["sheaves_live"]
            out["walls"].append(wall)
            out["peaks"].append(info["peak_rss_mb"])
        out.update(wall_s=sum(out["walls"]), peak_rss_mb=max(out["peaks"]))
        return out

    def _collect(self, job, code, rep_path, out):
        problems = []
        if code != 0:
            problems.append("%s: exit code %s" % (job.id, code))
        try:
            with open(rep_path) as handle:
                text = handle.read()
        except OSError:
            problems.append("%s: no report written" % job.id)
        else:
            problems += job.check(text)
            out["reports"].append(json.loads(text) if not problems
                                  else {})
        if problems:
            self.failed += 1
            self.problems += problems


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _span_items(spans):
    """name -> [(job id, self seconds, counters)], one entry per span."""
    child = defaultdict(float)
    for sid, name, t0, t1, parent, job, attrs in spans:
        if parent >= 0:
            child[(job, parent)] += t1 - t0
    items = defaultdict(list)
    for sid, name, t0, t1, parent, job, attrs in spans:
        items[name].append((job, (t1 - t0) - child[(job, sid)], attrs or {}))
    return items


def layer_metrics(run_out):
    items = _span_items(run_out["spans"])

    def calls(name):
        return len(items[name])

    def self_s(name, where=None):
        return sum(s for _, s, a in items[name]
                   if where is None or a.get(where))

    def total(name, attr):
        return sum(a.get(attr, 0) for _, _, a in items[name])

    def count_if(name, attr):
        return sum(1 for _, _, a in items[name] if a.get(attr))

    def unique_ratio(name):
        """Distinct inputs within a job over calls."""
        keys = {(job, a.get("key")) for job, _, a in items[name]}
        return len(keys) / calls(name) if calls(name) else 0.0

    m = {}
    for verifier in VERIFIERS:
        m["reporting.%s_s" % verifier] = sum(
            rep.get("timings", {}).get(verifier, 0.0)
            for rep in run_out["reports"])
    for fn in ("connection_on_hb", "curvature_report"):
        m["gkz.%s.calls" % fn] = calls("gkz." + fn)
        m["gkz.%s_s" % fn] = self_s("gkz." + fn)
    m["gkz.directions"] = sum(
        block.get("parameters", 0) for rep in run_out["reports"]
        for block in rep.get("verifications", {}).get("flatness", {})
        .get("blocks", []))
    hat = "jacobian.HatModel"
    m[hat + ".builds"] = calls(hat)
    m[hat + ".dual_builds"] = count_if(hat, "dual")
    m[hat + "_s"] = self_s(hat)
    m[hat + ".points"] = total(hat, "points")
    m[hat + ".ideal_rank"] = total(hat, "ideal_rank")
    gq = "jacobian.GradedQuotient"
    m[gq + ".builds"] = calls(gq)
    m[gq + "_s"] = self_s(gq)
    m[gq + ".unique_ratio"] = unique_ratio(gq)
    for fn in ("r1", "r1_hat", "is_nondegenerate"):
        name = "jacobian." + fn
        m[name + ".calls"] = calls(name)
        m[name + "_s"] = self_s(name)
        m[name + ".unique_ratio"] = unique_ratio(name)
    m["koszul.v_basis.calls"] = calls("koszul.v_basis")
    m["koszul.v_basis.elements"] = total("koszul.v_basis", "elements")
    m["koszul.v_basis_s"] = self_s("koszul.v_basis")
    m["koszul.d_column.calls"] = calls("koszul.d_column")
    m["koszul.dhat_column.calls"] = calls("koszul.dhat_column")
    m["koszul.cohomology_d_s"] = self_s("koszul.cohomology_d")
    m["koszul.cohomology_dhat_s"] = self_s("koszul.cohomology_dhat")
    rank = "linalg.exact_rank"
    m[rank + ".calls"] = calls(rank)
    m[rank + "_s"] = self_s(rank)
    for attr in ("rows", "nnz", "rank"):
        m["%s.%s" % (rank, attr)] = total(rank, attr)
    ins = "linalg.Echelon.insert"
    m[ins + ".calls"] = calls(ins)
    m[ins + "_s"] = self_s(ins)
    m[ins + ".dual_s"] = self_s(ins, "dual")
    for fn in ("Echelon.reduce", "kernel_basis"):
        m["linalg.%s.calls" % fn] = calls("linalg." + fn)
        m["linalg.%s_s" % fn] = self_s("linalg." + fn)
    sheaf = "sheaves.MinimalSheaf"
    m[sheaf + ".builds"] = calls(sheaf)
    m[sheaf + "_s"] = self_s(sheaf)
    m[sheaf + ".generators"] = total(sheaf, "generators")
    m[sheaf + ".live"] = run_out["live"]
    m["sheaves.verify_theorem_key_s"] = self_s("sheaves.verify_theorem_key")
    m["sheaves.verify_prop_maincoro.calls"] = calls(
        "sheaves.verify_prop_maincoro")
    m["sheaves.verify_prop_maincoro_s"] = self_s(
        "sheaves.verify_prop_maincoro")
    pts = "lattice.points_at_degree"
    m[pts + ".calls"] = calls(pts)
    m[pts + "_s"] = self_s(pts)
    m[pts + ".points"] = total(pts, "points")
    m["lattice.faces.calls"] = calls("lattice.faces")
    m["lattice.make_gorenstein_pair_s"] = self_s(
        "lattice.make_gorenstein_pair")
    return m


# ---------------------------------------------------------------------------


def _tail(values):
    """Median and the highest percentile with ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "values": values}
    if n > 10:
        q = sorted(values)
        out["p%d" % int(100 * (n - 10) / n)] = q[n - 11]
    return out


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines():
    n = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name)) as handle:
                    n += sum(1 for _ in handle)
    return n


def metadata(args):
    return {
        "workload": args.workload, "seed": args.seed,
        "coefficients": "random:seed=%d/%d" % coefficient_seeds(args.seed),
        "seconds": args.seconds,
        "trace": args.trace, "commit": _git_commit(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(), "src_lines": _src_lines(),
    }


def timed_run(runner, seconds):
    runner.setup(runner.jobs[0])  # warms bytecode caches
    setups = defaultdict(list)
    passes = []
    rounds = []
    start = time.monotonic()
    while True:
        # set-ups sit between the passes, so both see the same host speed
        t0 = time.monotonic()
        for _ in range(SETUP_PER_PASS):
            for job in runner.jobs:
                setups[job.id].append(runner.setup(job))
        passes.append(runner.run_pass(trace=False))
        now = time.monotonic()
        rounds.append(now - t0)
        round_s = statistics.median(rounds)
        if len(passes) >= MIN_PASSES and now + round_s > start + seconds:
            break
        if now + 1.5 * round_s > runner.deadline - 5:
            break

    def median(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "verdict_wall_s": (median("wall_s"), "s"),
        "setup_s": (sum(statistics.median(v) for v in setups.values()), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }
    samples = {
        "passes": len(passes),
        "verdict_wall_s": _tail([p["wall_s"] for p in passes]),
        "job_wall_s": _tail([t for p in passes for t in p["walls"]]),
        "setup_s": {k: _tail(v) for k, v in setups.items()},
    }
    return metrics, samples


def traced_run(runner):
    plain = runner.run_pass(trace=False)
    traced = [runner.run_pass(trace=True) for _ in range(2)]
    layers = [layer_metrics(t) for t in traced]
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")}
              for m in layers]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        runner.problems.append("work counters differ between two traced "
                               "passes: %s" % ", ".join(diff))
    metrics = {}
    for name, value in layers[0].items():
        if name.endswith("_s"):
            value = (value + layers[1][name]) / 2
            metrics[name] = (value, "s")
        else:
            metrics[name] = (value, "ratio" if name.endswith("_ratio")
                             else "count")
    overhead = statistics.median(t["wall_s"] for t in traced) \
        - plain["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = {"untraced_wall_s": plain["wall_s"],
               "traced_wall_s": [t["wall_s"] for t in traced],
               "spans": len(traced[0]["spans"])}
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.exists(os.path.join(ROOT, "src", "stringykit", "cli.py")):
        print("perfbench: no stringykit sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    meta = metadata(args)
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = os.path.join(scratch, "%s-%d" % (args.workload, os.getpid()))
    os.mkdir(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir, deadline)
        if args.trace:
            metrics, samples = traced_run(runner)
        else:
            metrics, samples = timed_run(runner, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for line in runner.problems:
        print("perfbench: FAIL %s" % line, file=sys.stderr)
    print(json.dumps({"meta": meta, "samples": samples}))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 1 if runner.problems else 0


if __name__ == "__main__":
    sys.exit(main())
