"""JSON encodings for every value that crosses the CLI boundary.

All documents carry ``format_version``; the schemas are described in
docs/formats.md.  Encoders emit canonical data (sorted keys are applied at
serialization time by the CLI) so identical inputs produce identical bytes.

Every document the CLI reads has one reader here: the instance files by
kind (:data:`FILE_KINDS`), and the audit instance file with its three
descriptor shapes.  A reader raises :class:`InvalidInput` on a non-object
document, a missing key or a wrongly typed value, before the constructors
of the values it builds run their own checks.
"""

from __future__ import annotations

import json

from .dimension import SplitGroup
from .endogeny import Endogeny, EndogenySet, NegligibilityBound
from .errors import InvalidInput
from .groups import AbelianGroup, FinAbGroup, Subgroup, canonicalize_group, subgroup_from_generators
from .linearize import FieldReport, check_matrix_bimodule

FORMAT_VERSION = "1"


def _object(doc, what):
    if not isinstance(doc, dict):
        raise InvalidInput(f"malformed {what}: expected an object, got {type(doc).__name__}")
    return doc


def _key(doc, key, what):
    doc = _object(doc, what)
    if key not in doc:
        raise InvalidInput(f"malformed {what}: missing key {key!r}")
    return doc[key]


def _list(x, what, length=None):
    if not isinstance(x, (list, tuple)) or length not in (None, len(x)):
        shape = "a list" if length is None else f"a list of {length}"
        raise InvalidInput(f"malformed {what}: expected {shape}, got {x!r}")
    return x


def _int(x, what):
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidInput(f"malformed {what}: expected an integer, got {x!r}")
    return x


def _ints(x, what):
    return tuple(_int(v, what) for v in _list(x, what))


def _vectors(x, what):
    return [_ints(v, what) for v in _list(x, what)]


def group_to_json(g: AbelianGroup) -> dict:
    return {"invariant_factors": list(g.moduli)}


def group_from_json(doc) -> FinAbGroup:
    return FinAbGroup(_ints(_key(doc, "invariant_factors", "group"), "group"))


def subgroup_to_json(h: Subgroup) -> dict:
    return {"generators": [list(c) for c in h.gen_columns()]}


def subgroup_from_json(group: AbelianGroup, doc) -> Subgroup:
    return Subgroup.from_generators(group, _vectors(_key(doc, "generators", "subgroup"), "subgroup"))


def endogeny_to_json(e: Endogeny) -> dict:
    r1 = e.source.rank
    pairs = []
    for col in e.graph.gen_columns():
        pairs.append([list(col[:r1]), list(col[r1:])])
    return {
        "source": group_to_json(e.source),
        "target": group_to_json(e.target),
        "graph_generators": pairs,
        "n_max": subgroup_to_json(e.bound.n_max),
    }


def endogeny_from_json(doc, ambient: AbelianGroup | None = None) -> Endogeny:
    what = "endogeny"
    src = ambient if ambient is not None else group_from_json(_key(doc, "source", what))
    tgt = ambient if ambient is not None else group_from_json(_key(doc, "target", what))
    pairs = [
        tuple(_ints(v, what) for v in _list(pair, what, 2))
        for pair in _list(_key(doc, "graph_generators", what), what)
    ]
    bound = NegligibilityBound(tgt, subgroup_from_json(tgt, _key(doc, "n_max", what)))
    return Endogeny.from_pairs(src, tgt, pairs, bound)


def endogeny_set_to_json(s: EndogenySet) -> dict:
    return {
        "ambient": group_to_json(s.ambient),
        "n_max": subgroup_to_json(s.bound.n_max),
        "generators": [endogeny_to_json(e) for e in s.elements],
    }


def endogeny_set_from_json(doc, ambient: AbelianGroup | None = None) -> EndogenySet:
    what = "endogeny set"
    amb = ambient if ambient is not None else group_from_json(_key(doc, "ambient", what))
    bound = NegligibilityBound(amb, subgroup_from_json(amb, _key(doc, "n_max", what)))
    gens = [endogeny_from_json(d, ambient=amb) for d in _list(_key(doc, "generators", what), what)]
    return EndogenySet(amb, bound, gens)


def split_group_to_json(sg: SplitGroup) -> dict:
    return {
        "p": sg.p,
        "n": sg.n,
        "torsion": group_to_json(sg.torsion),
    }


def split_group_from_json(doc) -> SplitGroup:
    what = "split group"
    p = _int(_key(doc, "p", what), what)
    n = _int(_key(doc, "n", what), what)
    return SplitGroup(p, n, group_from_json(_key(doc, "torsion", what)))


def matrix_instance_to_json(inst: dict) -> dict:
    return {
        "p": inst["p"],
        "n": inst["n"],
        "gamma_generators": [[list(r) for r in m] for m in inst["gamma_generators"]],
        "delta_generators": [[list(r) for r in m] for m in inst["delta_generators"]],
        "ground_truth": inst.get("ground_truth"),
    }


def matrix_instance_from_json(doc) -> dict:
    """The instance as :func:`instances.matrix_bimodule` returns it, with the
    entries as given (unreduced), after :func:`check_matrix_bimodule`."""
    what = "matrix instance"
    p = _int(_key(doc, "p", what), what)
    n = _int(_key(doc, "n", what), what)
    gamma, delta = (
        [tuple(_ints(row, what) for row in _list(m, what)) for m in _list(_key(doc, key, what), what)]
        for key in ("gamma_generators", "delta_generators")
    )
    truth = doc.get("ground_truth")
    if truth:
        for key in ("field_order", "vs_dimension"):
            _int(_key(truth, key, "ground truth"), "ground truth")
    check_matrix_bimodule(p, n, gamma, delta)
    return {"p": p, "n": n, "gamma_generators": gamma, "delta_generators": delta, "ground_truth": truth}


def split_instance_to_json(instance) -> dict:
    """``instance`` is ``(split_group, gamma_set, delta_set, info)``, as
    :func:`instances.split_bimodule` returns it."""
    sg, gset, dset, info = instance
    return {
        "split_group": split_group_to_json(sg),
        "gamma": endogeny_set_to_json(gset),
        "delta": endogeny_set_to_json(dset),
        "info": {k: (list(map(list, v)) if k == "planted_subspace" else v) for k, v in info.items()},
    }


def split_instance_from_json(doc):
    what = "split instance"
    sg = split_group_from_json(_key(doc, "split_group", what))
    gset = endogeny_set_from_json(_key(doc, "gamma", what), ambient=sg.ambient)
    dset = endogeny_set_from_json(_key(doc, "delta", what), ambient=sg.ambient)
    info = _object(doc.get("info", {}), "split instance info")
    if "planted_subspace" in info:
        _vectors(info["planted_subspace"], "split instance info")
    return sg, gset, dset, info


FILE_KINDS = {
    "endogeny": (endogeny_from_json, endogeny_to_json),
    "matrix_bimodule": (matrix_instance_from_json, matrix_instance_to_json),
    "split_bimodule": (split_instance_from_json, split_instance_to_json),
    "group": (group_from_json, group_to_json),
}


def read_document(doc):
    """``(kind, value)`` of an instance file, read by its kind's reader."""
    kind = _key(doc, "kind", "instance file")
    if not isinstance(kind, str) or kind not in FILE_KINDS:
        raise InvalidInput(f"unknown instance kind {kind!r}")
    return kind, FILE_KINDS[kind][0](doc)


def write_document(kind, value) -> dict:
    """The instance file of ``value``, the inverse of :func:`read_document`."""
    return {"format_version": FORMAT_VERSION, "kind": kind, **FILE_KINDS[kind][1](value)}


def audit_descriptors_from_json(doc) -> list:
    """The descriptor list of an audit instance file."""
    what = "audit instance file"
    return _list(_object(doc, what).get("instances", []), what)


def group_descriptor_from_json(desc):
    """``(group, n_max, seed)`` of a group-suite descriptor."""
    what = "group descriptor"
    g = canonicalize_group(_ints(_key(desc, "group", what), what))
    n_max = subgroup_from_generators(g, _vectors(_key(desc, "n_max", what), what))
    return g, n_max, _int(_key(desc, "seed", what), what)


def split_descriptor_from_json(desc):
    """``(p, n, torsion, seed)`` of a split-suite descriptor."""
    what = "split descriptor"
    p, n = (_int(_key(desc, key, what), what) for key in ("p", "n"))
    return p, n, _ints(_key(desc, "torsion", what), what), _int(_key(desc, "seed", what), what)


def pair_descriptor_from_json(desc):
    """The two endogenies of a ``sharp`` pair descriptor."""
    what = "pair descriptor"
    return tuple(endogeny_from_json(d) for d in _list(_key(desc, "pair", what), what, 2))


def field_report_to_json(rep: FieldReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "field_report",
        "p": rep.p,
        "n": rep.n,
        "field_basis": [[list(r) for r in m] for m in rep.field_basis],
        "order": rep.order,
        "vs_dimension": rep.vs_dimension,
        "k_basis_of_v": [list(v) for v in rep.k_basis_of_v],
    }


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"

