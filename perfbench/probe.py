"""Child process of the benchmark: one job, or one set-up probe.

    python3 perfbench/probe.py job JOB.json REPORT.json \
        [--trace SPANS.json --job-id ID]
    python3 perfbench/probe.py setup JOB.json

``job`` runs ``stringykit report`` through the console-script entry point
(``stringykit.cli:main``), then prints a JSON line with its exit code and
peak RSS.  ``setup`` times what
a job pays before its first verifier: importing stringykit, parsing the
job, building the pair and building certified coefficients.

With ``--trace`` the public callables of every layer are wrapped from
outside: each call becomes one span (name, start, end, parent span, job
id, and a few counters read from arguments and results).  Spans stay in
memory and are written to SPANS.json when the process ends.
"""

import functools
import gc
import json
import os
import resource
import sys
import time
import weakref
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# tracing


def _dual(scalars):
    """True when a scalar outside Q (a dual number) is among them."""
    return not all(isinstance(v, (int, Fraction)) for v in scalars)


def _coeff_key(face, f, D):
    """A per-face input: the face key, the coefficient values and D."""
    if D is None:
        D = face.dim + 2
    return hash((face.key(), f.lam, f.values, D))


def _a_r1(args, kw, out):
    D = args[2] if len(args) > 2 else kw.get("D")
    return {"key": _coeff_key(args[0], args[1], D)}


def _a_graded_quotient(args, kw, out):
    D = args[3] if len(args) > 3 else kw.get("D")
    return {"key": _coeff_key(args[1], args[2], D)}


def _a_nondegenerate(args, kw, out):
    f = args[1]
    return {"key": hash((f.lam, f.values))}


def _a_hat_model(args, kw, out):
    self, g = args[0], args[2]
    return {"points": len(self.points), "ideal_rank": self.ideal.rank,
            "dual": _dual(v for _, v in g.values)}


def _a_insert(args, kw, out):
    return {"dual": _dual(args[1].values())}


def _a_exact_rank(args, kw, out):
    rows = args[0]
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows),
            "rank": out}


def _a_v_basis(args, kw, out):
    return {"elements": sum(len(v) for v in out.values())}


def _a_points(args, kw, out):
    return {"points": len(out)}


def _a_sheaf(args, kw, out):
    self = args[0]
    _LIVE_SHEAVES.add(self)
    return {"generators": sum(len(v) for v in self.gens.values())}


_LIVE_SHEAVES = weakref.WeakSet()

# (module, attribute path, counter reader).  A class entry names the method
# that is wrapped; "Class.__init__" spans are reported as builds of Class.
TRACED = [
    ("gkz", "connection_on_hb", None),
    ("gkz", "curvature_report", None),
    ("jacobian", "is_nondegenerate", _a_nondegenerate),
    ("jacobian", "GradedQuotient.__init__", _a_graded_quotient),
    ("jacobian", "r1", _a_r1),
    ("jacobian", "r1_hat", _a_r1),
    ("jacobian", "HatModel.__init__", _a_hat_model),
    ("koszul", "v_basis", _a_v_basis),
    ("koszul", "d_column", None),
    ("koszul", "dhat_column", None),
    ("koszul", "cohomology_d", None),
    ("koszul", "cohomology_dhat", None),
    ("linalg", "exact_rank", _a_exact_rank),
    ("linalg", "Echelon.insert", _a_insert),
    ("linalg", "Echelon.reduce", None),
    ("linalg", "kernel_basis", None),
    ("sheaves", "MinimalSheaf.__init__", _a_sheaf),
    ("sheaves", "verify_theorem_key", None),
    ("sheaves", "verify_prop_maincoro", None),
    ("lattice", "points_at_degree", _a_points),
    ("lattice", "faces", None),
    ("lattice", "make_gorenstein_pair", None),
]


class Tracer:
    """Span recorder; one instance per process, spans kept in memory."""

    def __init__(self, job_id):
        self.job = job_id
        self.spans = []
        self.stack = []
        self.next_id = 0

    def wrap(self, name, fn, reader):
        tracer = self

        def traced(*args, **kw):
            sid = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            t0 = time.perf_counter()
            out = None
            done = False
            try:
                out = fn(*args, **kw)
                done = True
                return out
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                attrs = reader(args, kw, out) \
                    if done and reader is not None else None
                tracer.spans.append((sid, name, t0, t1, parent, tracer.job,
                                     attrs))

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every callable of TRACED that exists at run time.

        A function is looked up by its module attribute name and replaced
        in every stringykit module that bound it by import; a method is
        replaced on its class.  A missing name is skipped, so its counters
        read 0.
        """
        import stringykit.cli  # noqa: F401  (loads every layer)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "stringykit" or n.startswith("stringykit."))
                   and m is not None]
        for mod_name, path, reader in TRACED:
            mod = sys.modules.get("stringykit." + mod_name)
            if mod is None:
                continue
            name = mod_name + "." + path.replace(".__init__", "")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None or (meth == "__init__"
                                  and fn is object.__init__):
                    continue
                setattr(cls, meth, self.wrap(name, fn, reader))
                continue
            fn = getattr(mod, path, None)
            if fn is None:
                continue
            traced = self.wrap(name, fn, reader)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, traced)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


# ---------------------------------------------------------------------------
# modes


def mode_job(argv):
    job_path, out_path = argv[0], argv[1]
    tracer = None
    if "--trace" in argv:
        tracer = Tracer(argv[argv.index("--job-id") + 1])
        tracer.install()
    from stringykit.cli import main
    extra = ["--timings"] if tracer else []
    code = main(["report", job_path, "--output", out_path] + extra)
    info = {"exit_code": code, "peak_rss_mb": _peak_rss_mb()}
    if tracer:
        gc.collect()
        info["sheaves_live"] = len(_LIVE_SHEAVES)
        tracer.dump(argv[argv.index("--trace") + 1])
    print(json.dumps(info))
    return 0


def mode_setup(argv):
    t0 = time.perf_counter()
    from stringykit import jacobian, lattice, reporting
    with open(argv[0]) as handle:
        job = reporting.parse_input(json.load(handle))
    if job.cone_kind == "rays":
        cone = lattice.cone_from_rays(job.cone_data)
    else:
        cone = lattice.cone_over_polytope(job.cone_data)
    pair = lattice.make_gorenstein_pair(cone)
    for side, (kind, seed) in (("f", job.f_source), ("g", job.g_source)):
        if kind != "random":
            raise SystemExit("set-up probe needs random coefficient sources")
        jacobian.random_coefficients(pair, side, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    modes = {"job": mode_job, "setup": mode_setup}
    sys.exit(modes[sys.argv[1]](sys.argv[2:]))
