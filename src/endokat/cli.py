"""Command-line front end.

Subcommands: ``validate`` (parse and check an instance file), ``audit``
(run a law suite over instances), ``linearize`` (field extraction or
split-model quotient pipeline), ``generate`` (emit instance files).

Exit codes: 0 all checks pass, 1 mathematical violation or hypothesis
failure (counterexample payload on stdout), 2 malformed input or usage
error.  Reports are machine-readable JSON first; the human summary goes to
stderr.  ENDOKAT_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import audits, config, jsonio
from .dimension import is_minimal_bimodule
from .endogeny import bikat, induced_action
from .errors import EndokatError, HypothesisViolation, InvalidInput
from .instances import InstanceSpec, fixture_nonliftable, matrix_bimodule, split_bimodule
from .linearize import extract_field


def _default_seed():
    try:
        return int(os.environ.get("ENDOKAT_SEED", "0"))
    except ValueError:
        return 0


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
    if getattr(args, "max_order", None):
        config.MAX_ORDER = args.max_order
    if getattr(args, "max_closure", None):
        config.CLOSURE_CAP = args.max_closure


def cmd_validate(args):
    doc = _load(args.file)
    kind = doc.get("kind")
    try:
        if kind == "endogeny":
            e = jsonio.endogeny_from_json(doc)
            _emit(jsonio.endogeny_instance_to_json(e))
        elif kind == "matrix_bimodule":
            inst = jsonio.matrix_instance_from_json(doc)
            _emit(jsonio.matrix_instance_to_json(inst))
        elif kind == "split_bimodule":
            sg, gset, dset, info = jsonio.split_instance_from_json(doc)
            _emit(jsonio.split_instance_to_json(sg, gset, dset, info))
        elif kind == "group":
            g = jsonio.group_from_json(doc)
            out = jsonio.group_to_json(g)
            out["format_version"] = jsonio.FORMAT_VERSION
            out["kind"] = "group"
            _emit(out)
        else:
            raise _UsageError(f"unknown instance kind {kind!r}")
    except EndokatError as exc:
        print(f"invalid instance: {exc.tag}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_audit(args):
    if args.instances:
        doc = _load(args.instances)
        descriptors = doc.get("instances", [])
        if not isinstance(descriptors, list):
            raise _UsageError("instance file must carry an 'instances' list")
    else:
        descriptors = audits.make_descriptors(
            args.suite, args.random, args.seed, max_order=min(64, config.MAX_ORDER)
        )
    report = audits.run_suite(
        args.suite, descriptors, use_oracle=args.oracle, workers=args.workers
    )
    _emit(report, args.report)
    n_viol = len(report["violations"])
    print(
        f"suite={args.suite} instances={report['instances_run']} "
        f"checks={report['checks']} violations={n_viol}",
        file=sys.stderr,
    )
    return 0 if n_viol == 0 else 1


def cmd_linearize(args):
    doc = _load(args.file)
    kind = doc.get("kind")
    try:
        if kind == "matrix_bimodule":
            inst = jsonio.matrix_instance_from_json(doc)
            rep = extract_field(
                inst["p"], inst["n"], inst["gamma_generators"], inst["delta_generators"]
            )
            out = jsonio.field_report_to_json(rep)
            truth = inst.get("ground_truth")
            if truth:
                ok = (
                    rep.order == truth["field_order"]
                    and rep.vs_dimension == truth["vs_dimension"]
                )
                out["ground_truth_match"] = ok
                if not ok:
                    _emit(out, args.report)
                    print("ground truth mismatch", file=sys.stderr)
                    return 1
            _emit(out, args.report)
            return 0
        if kind == "split_bimodule":
            sg, gset, dset, info = jsonio.split_instance_from_json(doc)
            minimal, witness = is_minimal_bimodule(sg, gset, dset)
            if not minimal and not info.get("planted_subspace"):
                payload = {
                    "format_version": jsonio.FORMAT_VERSION,
                    "kind": "diagnostic",
                    "error": "bi-module is not minimal",
                    "witness_order": witness.order,
                    "witness_generators": [list(c) for c in witness.gen_columns()],
                }
                _emit(payload, args.report)
                return 1
            k = bikat(gset, dset)
            q, proj, ghoms, dhoms = induced_action(gset, dset)
            out = {
                "format_version": jsonio.FORMAT_VERSION,
                "kind": "split_report",
                "split_group": jsonio.split_group_to_json(sg),
                "minimal": minimal,
                "joint_katakernel_order": k.order,
                "quotient": jsonio.group_to_json(q),
                "induced_gamma": [[list(r) for r in h.matrix] for h in ghoms],
                "induced_delta": [[list(r) for r in h.matrix] for h in dhoms],
            }
            if not minimal:
                out["witness_generators"] = [list(c) for c in witness.gen_columns()]
            _emit(out, args.report)
            return 0
        raise _UsageError(f"linearize does not handle kind {kind!r}")
    except HypothesisViolation as exc:
        payload = {
            "format_version": jsonio.FORMAT_VERSION,
            "kind": "diagnostic",
            "error": str(exc),
            "witness": _jsonable(exc.witness),
        }
        _emit(payload, args.report)
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 1
    except InvalidInput:
        raise
    except EndokatError as exc:
        payload = {
            "format_version": jsonio.FORMAT_VERSION,
            "kind": "diagnostic",
            "error": str(exc),
        }
        _emit(payload, args.report)
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _jsonable(x):
    if x is None or isinstance(x, (int, str, bool)):
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return repr(x)


def cmd_generate(args):
    params = {}
    for key in ("p", "k", "m", "n"):
        v = getattr(args, key, None)
        if v is not None:
            params[key] = v
    if args.torsion:
        params["torsion"] = [int(x) for x in args.torsion.split(",")]
    if args.plant_witness:
        params["plant_witness"] = True
    if args.group:
        params["group"] = [int(x) for x in args.group.split(",")]
    if args.kind == "fixture_nonliftable":
        a, e = fixture_nonliftable(args.p or 2)
        _emit(jsonio.endogeny_instance_to_json(e), args.output)
        return 0
    if args.kind == "matrix_bimodule":
        inst = matrix_bimodule(params["p"], params["k"], params["m"], args.seed)
        _emit(jsonio.matrix_instance_to_json(inst), args.output)
        return 0
    if args.kind == "split_bimodule":
        sg, gset, dset, info = split_bimodule(
            params["p"], params["n"], params.get("torsion", []), args.seed,
            params.get("plant_witness", False),
        )
        _emit(jsonio.split_instance_to_json(sg, gset, dset, info), args.output)
        return 0
    if args.kind == "random_endogeny":
        spec = InstanceSpec("random_endogeny", args.seed, params)
        from .instances import generate

        e = generate(spec)
        _emit(jsonio.endogeny_instance_to_json(e), args.output)
        return 0
    raise _UsageError(f"unknown kind {args.kind!r}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="endokat",
        allow_abbrev=False,
        description="Blurred-relation calculus over finite abelian groups "
        "with machine-checked laws and bi-module linearization.",
    )
    ap.add_argument("--max-order", type=int, default=None, help="group order cap")
    ap.add_argument("--max-closure", type=int, default=None, help="closure size cap")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse and validate an instance file")
    v.add_argument("file")
    v.set_defaults(func=cmd_validate)

    a = sub.add_parser("audit", help="run a law suite")
    a.add_argument("--suite", required=True, choices=audits.SUITES)
    a.add_argument("--instances", help="JSON file with an 'instances' list")
    a.add_argument("--random", type=int, default=0, help="number of random instances")
    a.add_argument("--seed", type=int, default=_default_seed())
    a.add_argument("--oracle", action="store_true", help="cross-validate against enumeration")
    a.add_argument("--report", help="write the JSON report here")
    a.add_argument("--workers", type=int, default=None)
    a.set_defaults(func=cmd_audit)

    l = sub.add_parser("linearize", help="field extraction / split-model pipeline")
    l.add_argument("file")
    l.add_argument("--report", help="write the JSON report here")
    l.set_defaults(func=cmd_linearize)

    g = sub.add_parser("generate", help="emit a deterministic instance file")
    g.add_argument("--kind", required=True)
    g.add_argument("--seed", type=int, default=_default_seed())
    g.add_argument("--p", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--torsion", help="comma-separated invariant factors")
    g.add_argument("--group", help="comma-separated invariant factors")
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
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except EndokatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
