"""Command-line front end.

Subcommands: ``validate`` (parse and check an instance file), ``audit``
(run a law suite over instances), ``linearize`` (field extraction or
split-model quotient pipeline), ``generate`` (emit instance files).

Exit codes: 0 all checks pass, 1 mathematical violation, hypothesis
failure (counterexample payload on stdout) or another error such as a cap
exceeded, 2 malformed input or usage error; an audit exits 2 if any
instance was malformed and 1 if any other instance failed.  ``main`` alone
maps errors to exit codes.  Reports are machine-readable JSON first; the
human summary goes to stderr.  ENDOKAT_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import audits, config, jsonio
from .dimension import is_minimal_bimodule
from .endogeny import induced_action
from .errors import EndokatError, InvalidInput
from .groups import canonicalize_group, subgroup_from_generators
from .instances import fixture_nonliftable, matrix_bimodule, random_endogeny, split_bimodule
from .linearize import extract_field


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


class _UsageError(Exception):
    pass


def _emit(doc, out_path=None):
    text = jsonio.dumps(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _apply_caps(args):
    if args.max_order is not None:
        config.MAX_ORDER = args.max_order


def cmd_validate(args):
    kind, value = jsonio.read_document(_load(args.file))
    _emit(jsonio.write_document(kind, value))
    return 0


def _tags(cls):
    """The tags of ``cls`` and of its subclasses at every depth."""
    return {cls.tag}.union(*(_tags(sub) for sub in cls.__subclasses__()))


def cmd_audit(args):
    if args.instances:
        descriptors = jsonio.audit_descriptors_from_json(_load(args.instances))
    else:
        descriptors = audits.make_descriptors(
            args.suite, args.random, args.seed, max_order=min(64, config.MAX_ORDER)
        )
    report = audits.run_suite(
        args.suite, descriptors, use_oracle=args.oracle, workers=args.workers
    )
    _emit(report, args.report)
    n_viol = len(report["violations"])
    errors = report["errors"]
    print(
        f"suite={args.suite} instances={report['instances_run']} "
        f"checks={report['checks']} violations={n_viol} errors={len(errors)}",
        file=sys.stderr,
    )
    if any(e["tag"] in _tags(InvalidInput) for e in errors):
        raise InvalidInput("malformed audit instances, listed in the report's errors")
    return 0 if n_viol == 0 and not errors else 1


def _linearize_matrix(inst):
    rep = extract_field(inst["p"], inst["n"], inst["gamma_generators"], inst["delta_generators"])
    out = jsonio.field_report_to_json(rep)
    truth = inst["ground_truth"]
    if truth:
        ok = rep.order == truth["field_order"] and rep.vs_dimension == truth["vs_dimension"]
        out["ground_truth_match"] = ok
        if not ok:
            print("ground truth mismatch", file=sys.stderr)
            return out, 1
    return out, 0


def _linearize_split(instance):
    sg, gset, dset, info = instance
    minimal, witness = is_minimal_bimodule(sg, gset, dset)
    if not minimal and not info.get("planted_subspace"):
        return {
            "format_version": jsonio.FORMAT_VERSION,
            "kind": "diagnostic",
            "error": "bi-module is not minimal",
            "witness_order": witness.order,
            "witness_generators": [list(c) for c in witness.gen_columns()],
        }, 1
    q, proj, ghoms, dhoms = induced_action(gset, dset)
    out = {
        "format_version": jsonio.FORMAT_VERSION,
        "kind": "split_report",
        "split_group": jsonio.split_group_to_json(sg),
        "minimal": minimal,
        "joint_katakernel_order": gset.ambient.order // q.order,
        "quotient": jsonio.group_to_json(q),
        "induced_gamma": [[list(r) for r in h.matrix] for h in ghoms],
        "induced_delta": [[list(r) for r in h.matrix] for h in dhoms],
    }
    if not minimal:
        out["witness_generators"] = [list(c) for c in witness.gen_columns()]
    return out, 0


_LINEARIZERS = {"matrix_bimodule": _linearize_matrix, "split_bimodule": _linearize_split}


def cmd_linearize(args):
    kind, value = jsonio.read_document(_load(args.file))
    if kind not in _LINEARIZERS:
        raise _UsageError(f"linearize does not handle kind {kind!r}")
    try:
        out, code = _LINEARIZERS[kind](value)
    except EndokatError as exc:
        # the diagnostic payload goes to the report; main maps the error
        payload = {"format_version": jsonio.FORMAT_VERSION, "kind": "diagnostic", "error": str(exc)}
        if hasattr(exc, "witness"):
            payload["witness"] = _jsonable(exc.witness)
        _emit(payload, args.report)
        raise
    _emit(out, args.report)
    return code


def _jsonable(x):
    if x is None or isinstance(x, (int, str, bool)):
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return repr(x)


def _random_endogeny(args):
    a = canonicalize_group(args.group)
    return random_endogeny(a, subgroup_from_generators(a, []), args.seed)


# kind -> (required flags, build from the parsed arguments, file kind)
GENERATORS = {
    "matrix_bimodule": (("p", "k", "m"), lambda a: matrix_bimodule(a.p, a.k, a.m, a.seed), "matrix_bimodule"),
    "split_bimodule": (
        ("p", "n"),
        lambda a: split_bimodule(a.p, a.n, a.torsion or [], a.seed, a.plant_witness),
        "split_bimodule",
    ),
    "random_endogeny": (("group",), _random_endogeny, "endogeny"),
    "fixture_nonliftable": ((), lambda a: fixture_nonliftable(a.p or 2)[1], "endogeny"),
}


def cmd_generate(args):
    required, build, kind = GENERATORS[args.kind]
    missing = [f"--{flag}" for flag in required if getattr(args, flag) is None]
    if missing:
        raise _UsageError(f"--kind {args.kind} needs {' and '.join(missing)}")
    _emit(jsonio.write_document(kind, build(args)), args.output)
    return 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _int_list(text):
    return [int(x) for x in text.split(",")] if text else []


def build_parser():
    ap = argparse.ArgumentParser(
        prog="endokat",
        allow_abbrev=False,
        description="Blurred-relation calculus over finite abelian groups "
        "with machine-checked laws and bi-module linearization.",
    )
    ap.add_argument("--max-order", type=_positive_int, default=None, help="group order cap")
    # argparse runs a string default through ``type``, so a malformed
    # ENDOKAT_SEED is a usage error
    seed = os.environ.get("ENDOKAT_SEED", "0")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse and validate an instance file")
    v.add_argument("file")
    v.set_defaults(func=cmd_validate)

    a = sub.add_parser("audit", help="run a law suite")
    a.add_argument("--suite", required=True, choices=audits.SUITES)
    a.add_argument("--instances", help="JSON file with an 'instances' list")
    a.add_argument("--random", type=_nonnegative_int, default=0, help="number of random instances")
    a.add_argument("--seed", type=int, default=seed)
    a.add_argument("--oracle", action="store_true", help="cross-validate against enumeration")
    a.add_argument("--report", help="write the JSON report here")
    a.add_argument("--workers", type=_positive_int, default=None)
    a.set_defaults(func=cmd_audit)

    l = sub.add_parser("linearize", help="field extraction / split-model pipeline")
    l.add_argument("file")
    l.add_argument("--report", help="write the JSON report here")
    l.set_defaults(func=cmd_linearize)

    g = sub.add_parser("generate", help="emit a deterministic instance file")
    g.add_argument("--kind", required=True, choices=list(GENERATORS))
    g.add_argument("--seed", type=int, default=seed)
    g.add_argument("--p", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--torsion", type=_int_list, help="comma-separated invariant factors")
    g.add_argument("--group", type=_int_list, help="comma-separated invariant factors")
    g.add_argument("--plant-witness", action="store_true")
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_generate)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    _apply_caps(args)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"invalid input: {exc.tag}: {exc}", file=sys.stderr)
        return 2
    except EndokatError as exc:
        print(f"error: {exc.tag}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
