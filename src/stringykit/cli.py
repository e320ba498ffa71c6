"""Command line interface: batch verification of the structural theorems
attached to a pair of dual reflexive Gorenstein cones."""

import argparse
import json
import sys

from .errors import ParseError, StringyKitError
from .reporting import (SCHEMA_VERSION, VERIFICATION_NAMES,
                        cohomology_table, hilbert_tables, inspect_pair,
                        parse_input, r1_tables, render_report, run)


def _add_common(sub):
    sub.add_argument("job", help="path to a JSON job document")
    sub.add_argument("--max-degree", type=int, default=None,
                     help="truncation degree for complexes (default 6)")
    sub.add_argument("--n-cap", type=int, default=None,
                     help="largest n-degree cap for the deformed "
                          "differential (default 8)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for 'random' coefficient sources that do "
                          "not carry their own")
    sub.add_argument("--output", default=None,
                     help="write the JSON result to this path instead of "
                          "stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stringykit",
        description=__doc__,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser(
        "inspect", help="cone pair summary: rank, degree points, faces"))
    _add_common(subs.add_parser(
        "hilbert", help="per-face point counts and quotient dimensions"))
    _add_common(subs.add_parser(
        "r1", help="per-face graded dimensions of the interior image"))
    cohom = subs.add_parser(
        "cohomology", help="cohomology dimensions of the double Koszul "
                           "complex")
    cohom.add_argument("--differential", choices=("d", "dhat"), default="d")
    _add_common(cohom)
    verify = subs.add_parser(
        "verify", help="run one verification or all of them")
    verify.add_argument("which", choices=VERIFICATION_NAMES + ("all",))
    _add_common(verify)
    report = subs.add_parser(
        "report", help="full verification report (same as verify all)")
    report.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (reports are no "
                             "longer byte-reproducible)")
    _add_common(report)
    return parser


def _load_job(args, verify_override=None, timings=False):
    try:
        with open(args.job, "r", encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ParseError("invalid JSON: %s" % exc, args.job)
    except OSError as exc:
        raise ParseError("cannot read job file: %s" % exc, args.job)
    if isinstance(doc, dict):
        # command-line values pass the same checks as the document's own
        for key in ("max_degree", "n_cap", "output"):
            if getattr(args, key) is not None:
                doc[key] = getattr(args, key)
    job = parse_input(doc, default_seed=args.seed)
    if verify_override:
        job.verify = tuple(verify_override)
    job.timings = timings
    return job


def _emit(payload, job):
    text = render_report(payload)
    if job.output:
        with open(job.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            which = (list(VERIFICATION_NAMES) if args.which == "all"
                     else [args.which])
            job = _load_job(args, verify_override=which)
        elif args.command == "report":
            job = _load_job(args, timings=args.timings)
        else:
            job = _load_job(args)
        if args.command in ("verify", "report"):
            report, code = run(job)
            _emit(report, job)
            return code
        if args.command == "inspect":
            _emit(inspect_pair(job), job)
            return 0
        if args.command == "hilbert":
            _emit(hilbert_tables(job), job)
            return 0
        if args.command == "r1":
            _emit(r1_tables(job), job)
            return 0
        if args.command == "cohomology":
            payload, code = cohomology_table(job, args.differential)
            _emit(payload, job)
            return code
    except StringyKitError as exc:
        sys.stdout.write(render_report(
            {"schema_version": SCHEMA_VERSION,
             "error": {"type": type(exc).__name__, "message": str(exc)},
             "exit_code": 2}))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
