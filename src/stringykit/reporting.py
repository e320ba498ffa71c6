"""Job parsing, verification orchestration, and versioned JSON reports.

Reports are deterministic: identical jobs (including seeds) produce
byte-identical output.  Rationals travel as strings, dimension tables as
{grading: dim} objects tagged with their certification window; wall
clock timings are added only on request since they would break report
determinism.

A job runs in one ``jacobian.Context``: the pair, the certified f and g,
every per-face quotient, R1 dims and certified hat model, the fan and
the cohomology of each minimal sheaf on it.  Every verifier reads it, or
its ``swap()`` for the A side; none builds twice.
"""

import json
import os
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import (DegenerateCoefficients, ParseError, StringyKitError,
                     ValidationError)
from .gkz import connection_on_hb, curvature_report
from .jacobian import Context, coefficient_function, random_coefficients
from .koszul import (cohomology_d, cohomology_dhat, decomposition_dims,
                     hb_assemble)
from .lattice import (annihilator_face, cone_from_rays, cone_over_polytope,
                      make_gorenstein_pair)
from .sheaves import verify_prop_maincoro, verify_theorem_key

SCHEMA_VERSION = "1"
VERIFICATION_NAMES = ("thm-key", "thm-main", "prop-maincoro", "bhiso",
                      "flatness", "maingkz")


def _is_int(value):
    """A JSON integer: bool is an int subclass, but true is no integer."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_rational(value, location):
    try:
        if isinstance(value, str):
            return Fraction(value)
        if _is_int(value):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError("expected a rational like '3/2'", location)


def _fmt_rational(q):
    q = Fraction(q)
    return str(q)


@dataclass
class JobSpec:
    """Validated description of one verification run."""
    cone_kind: str                  # "rays" or "polytope_vertices"
    cone_data: tuple
    f_source: tuple                 # ("random", seed) or ("explicit", map)
    g_source: tuple
    max_degree: int = 6
    n_cap: int = 8
    verify: tuple = VERIFICATION_NAMES
    output: str = None
    timings: bool = False

    def echo(self):
        def side(src):
            kind, payload = src
            if kind == "random":
                return "random:seed=%d" % payload
            return sorted([list(p), _fmt_rational(v)]
                          for p, v in payload.items())
        return {
            self.cone_kind: [list(v) for v in self.cone_data],
            "f": side(self.f_source),
            "g": side(self.g_source),
            "max_degree": self.max_degree,
            "n_cap": self.n_cap,
            "verify": list(self.verify),
        }


_KNOWN_KEYS = {"rays", "polytope_vertices", "f", "g", "max_degree",
               "n_cap", "verify", "output"}


def _parse_side(doc, name, default_seed):
    raw = doc.get(name)
    if raw is None:
        return ("random", default_seed)
    if isinstance(raw, str):
        if raw == "random":
            return ("random", default_seed)
        if raw.startswith("random:seed="):
            try:
                return ("random", int(raw[len("random:seed="):]))
            except ValueError:
                raise ParseError("bad seed", name)
        raise ParseError("expected 'random:seed=N' or a coefficient list",
                         name)
    if isinstance(raw, dict):
        raw = raw.get("values")
    if not isinstance(raw, list):
        raise ParseError("expected a list of [point, value] pairs", name)
    mapping = {}
    for i, item in enumerate(raw):
        loc = "%s[%d]" % (name, i)
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], list)):
            raise ParseError("expected [point, value]", loc)
        point = tuple(item[0])
        if not all(_is_int(x) for x in point):
            raise ParseError("point coordinates must be integers", loc)
        if point in mapping:
            raise ParseError("repeated point %s" % list(point), loc)
        mapping[point] = _parse_rational(item[1], loc)
    return ("explicit", mapping)


def parse_input(doc, default_seed=0):
    """Validate a job document (a parsed JSON object)."""
    if not isinstance(doc, dict):
        raise ParseError("job document must be an object", "top level")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ParseError("unknown keys: %s" % sorted(unknown), "top level")
    has_rays = "rays" in doc
    has_poly = "polytope_vertices" in doc
    if has_rays == has_poly:
        raise ParseError(
            "exactly one of 'rays' and 'polytope_vertices' is required",
            "top level")
    kind = "rays" if has_rays else "polytope_vertices"
    data = doc[kind]
    if (not isinstance(data, list) or not data
            or not all(isinstance(row, list) and row
                       and all(_is_int(x) for x in row)
                       for row in data)):
        raise ParseError("expected a nonempty list of integer vectors", kind)
    if len(set(len(row) for row in data)) != 1:
        raise ParseError("vectors of mixed length", kind)
    if kind == "rays" and not all(any(row) for row in data):
        raise ParseError("a ray must be nonzero", kind)
    verify = doc.get("verify", list(VERIFICATION_NAMES))
    if isinstance(verify, str):
        verify = [verify]
    if not isinstance(verify, list) or not verify:
        raise ParseError("expected a nonempty list of verification names",
                         "verify")
    for name in verify:
        if name != "all" and name not in VERIFICATION_NAMES:
            raise ParseError("unknown verification %r" % name, "verify")
    if len(set(verify)) != len(verify):
        raise ParseError("repeated verification name", "verify")
    if "all" in verify:
        verify = list(VERIFICATION_NAMES)
    max_degree = doc.get("max_degree", 6)
    n_cap = doc.get("n_cap", 8)
    if not _is_int(max_degree) or max_degree < 1:
        raise ParseError("max_degree must be a positive integer",
                         "max_degree")
    if not _is_int(n_cap) or n_cap < 2:
        raise ParseError("n_cap must be an integer >= 2", "n_cap")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ParseError("output must be a path string", "output")
    if output and not os.path.isdir(os.path.dirname(output) or "."):
        raise ParseError("the output directory does not exist", "output")
    return JobSpec(
        cone_kind=kind,
        cone_data=tuple(tuple(row) for row in data),
        f_source=_parse_side(doc, "f", default_seed),
        g_source=_parse_side(doc, "g", default_seed + 1),
        max_degree=max_degree,
        n_cap=n_cap,
        verify=tuple(verify),
        output=output,
    )


def _build_pair(job):
    if job.cone_kind == "rays":
        cone = cone_from_rays(job.cone_data)
    else:
        cone = cone_over_polytope(job.cone_data)
    return make_gorenstein_pair(cone)


def _build_coefficients(pair, side, source, ctx):
    kind, payload = source
    if kind == "random":
        return random_coefficients(pair, side, payload, ctx=ctx)
    delta = set(pair.delta() if side == "f" else pair.delta_dual())
    extra = [p for p in payload if p not in delta]
    if extra:
        raise ValidationError(
            "coefficient point %s is not a degree-one point"
            % list(extra[0]))
    full = {p: payload.get(p, Fraction(0)) for p in delta}
    fn = coefficient_function(pair, side, full)
    if not ctx.is_nondegenerate(fn):
        raise DegenerateCoefficients(
            "explicit %s coefficients fail the nondegeneracy certificate"
            % side)
    return fn


def _job_context(job):
    """The job's pair and its certified f and g, in one context."""
    pair = _build_pair(job)
    ctx = Context(pair)
    ctx.set_coefficients(_build_coefficients(pair, "f", job.f_source, ctx),
                         _build_coefficients(pair, "g", job.g_source, ctx))
    return ctx


def _dims_table(dims):
    return {str(k): dims[k] for k in sorted(dims) if dims[k]}


def pair_summary(pair):
    by_dim, dual_by_dim = {}, {}
    for counts, poset in ((by_dim, pair.poset()),
                          (dual_by_dim, pair.dual_poset())):
        for face in poset:
            counts[face.dim] = counts.get(face.dim, 0) + 1
    return {
        "rank": pair.rank,
        "deg": list(pair.deg),
        "deg_dual": list(pair.deg_dual),
        "degree_one_points": len(pair.delta()),
        "dual_degree_one_points": len(pair.delta_dual()),
        "face_counts_by_dim": {str(k): v for k, v in sorted(by_dim.items())},
        "dual_face_counts_by_dim": {str(k): v
                                    for k, v in sorted(dual_by_dim.items())},
    }


def _verify_thm_key(ctx, job):
    return verify_theorem_key(ctx, ctx.pair.cone, D=job.max_degree)


def _verify_thm_main(ctx, job):
    rep = cohomology_d(ctx, D=job.max_degree)
    deco = decomposition_dims(ctx)
    match = all(rep.dims[k] == deco["total"].get(k, 0)
                for k in range(job.max_degree))
    return {
        "verdict": "pass" if match else "fail",
        "window": rep.window,
        "cohomology_dims": _dims_table(rep.dims),
        "decomposition_dims": _dims_table(deco["total"]),
    }


def _verify_prop_maincoro(ctx, job):
    fan = ctx.fan(ctx.pair.cone)
    D = min(job.max_degree, 5)
    cases = []
    verdict = "pass"
    for theta0 in fan.poset:
        tstar = annihilator_face(theta0, fan.dual_poset)
        for sigma0 in fan.dual_poset:
            if not fan.dual_poset.leq(sigma0, tstar):
                continue
            rep = verify_prop_maincoro(ctx, fan, theta0, sigma0, D=D)
            if rep["verdict"] != "pass":
                verdict = "fail"
            cases.append({
                "theta0_dim": theta0.dim,
                "sigma0_dim": sigma0.dim,
                "case": rep["case"],
                "verdict": rep["verdict"],
            })
    return {"verdict": verdict, "window": {"max_total_degree": D - 1},
            "origins_checked": len(cases), "cases": cases}


def _verify_bhiso(ctx, job):
    records = []
    verdict = "pass"
    for side, label in ((ctx, "dual"), (ctx.swap(), "primal")):
        for sigma in side.pair.dual_poset():
            graded = side.r1(sigma, side.g)
            try:
                hat = side.r1_hat(sigma, side.g)
                ok = hat == graded
            except StringyKitError:
                hat = None
                ok = False
            if not ok:
                verdict = "fail"
            records.append({
                "side": label,
                "face_dim": sigma.dim,
                "graded_dims": _dims_table(graded),
                "hat_dims": _dims_table(hat) if hat is not None else None,
                "equal": ok,
            })
    return {"verdict": verdict, "faces_checked": len(records),
            "faces": records}


def _verify_flatness(ctx, job):
    blocks = connection_on_hb(ctx)
    out = []
    verdict = "pass"
    for block in blocks:
        if not block.matrices:
            out.append({"face_dim": block.sigma.dim, "dim": block.dim(),
                        "parameters": 0, "flat": True})
            continue
        rep = curvature_report(block)
        if not rep["flat"]:
            verdict = "fail"
        out.append({
            "face_dim": block.sigma.dim,
            "dim": block.dim(),
            "parameters": len(block.matrices),
            "flat": rep["flat"],
            "pairs_checked": rep["pairs_checked"],
            "matrices_commute": rep["commuting"],
            "plain_derivative_symmetry": rep["derivative_symmetry"],
        })
    return {"verdict": verdict, "blocks": out}


def _verify_maingkz(ctx, job):
    rep = cohomology_dhat(ctx, D=2 * ctx.pair.rank, p_max=job.n_cap)
    hb = hb_assemble(ctx)
    got = {k: v for k, v in rep.dims.items() if v}
    if rep.flags:
        verdict = "not-stabilized"
    elif got == hb["total"]:
        verdict = "pass"
    else:
        verdict = "fail"
    return {
        "verdict": verdict,
        "window": rep.window,
        "hb_dims": _dims_table(rep.dims),
        "assembled_dims": _dims_table(hb["total"]),
        "not_stabilized_gradings": sorted(rep.flags),
    }


_VERIFIERS = {
    "thm-key": _verify_thm_key,
    "thm-main": _verify_thm_main,
    "prop-maincoro": _verify_prop_maincoro,
    "bhiso": _verify_bhiso,
    "flatness": _verify_flatness,
    "maingkz": _verify_maingkz,
}


def run(job):
    """Execute a job; returns (report dict, exit code)."""
    try:
        ctx = _job_context(job)
    except StringyKitError as exc:
        report = {
            "schema_version": SCHEMA_VERSION,
            "job": job.echo(),
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "exit_code": 2,
        }
        return report, 2

    names = list(job.verify)
    results = {}
    timings = {}

    for name in names:
        t0 = time.monotonic()
        results[name] = _VERIFIERS[name](ctx, job)
        timings[name] = time.monotonic() - t0

    verdicts = [results[n]["verdict"] for n in names]
    if any(v == "fail" for v in verdicts):
        code = 1
    elif any(v == "not-stabilized" for v in verdicts):
        code = 3
    else:
        code = 0
    report = {
        "schema_version": SCHEMA_VERSION,
        "job": job.echo(),
        "pair": pair_summary(ctx.pair),
        "verifications": {n: results[n] for n in sorted(results)},
        "verdict": ("pass" if code == 0 else
                    "not-stabilized" if code == 3 else "fail"),
        "exit_code": code,
    }
    if job.timings:
        report["timings"] = {n: round(timings[n], 3) for n in sorted(timings)}
    return report, code


def render_report(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def inspect_pair(job):
    pair = _build_pair(job)
    return {"schema_version": SCHEMA_VERSION, "job": job.echo(),
            "pair": pair_summary(pair)}


def _face_tables(job, row):
    """Per-face records row(ctx, face, fn) over both sides of the job."""
    ctx = _job_context(job)
    sides = []
    for label, poset, fn in (("primal", ctx.pair.poset(), ctx.f),
                             ("dual", ctx.pair.dual_poset(), ctx.g)):
        sides.append({"side": label,
                      "faces": [row(ctx, face, fn) for face in poset]})
    return {"schema_version": SCHEMA_VERSION, "job": job.echo(),
            "sides": sides}


def hilbert_tables(job):
    def row(ctx, face, fn):
        q = ctx.quotient(face, fn)
        return {"dim": face.dim,
                "point_counts": [len(level) for level in q.levels],
                "quotient_dims": [q.dims[k] for k in range(q.D + 1)]}
    return _face_tables(job, row)


def r1_tables(job):
    def row(ctx, face, fn):
        return {"dim": face.dim,
                "r1_dims": _dims_table(ctx.r1(face, fn))}
    return _face_tables(job, row)


def cohomology_table(job, differential="d"):
    ctx = _job_context(job)
    if differential == "d":
        rep = cohomology_d(ctx, D=job.max_degree)
        verdict = "pass"
    elif differential == "dhat":
        rep = cohomology_dhat(ctx, D=2 * ctx.pair.rank, p_max=job.n_cap)
        verdict = "not-stabilized" if rep.flags else "pass"
    else:
        raise ParseError("differential must be 'd' or 'dhat'",
                         "--differential")
    return {
        "schema_version": SCHEMA_VERSION,
        "job": job.echo(),
        "differential": differential,
        "dims": _dims_table(rep.dims),
        "window": rep.window,
        "flags": {str(k): v for k, v in sorted(rep.flags.items())},
        "verdict": verdict,
    }, (3 if verdict == "not-stabilized" else 0)
