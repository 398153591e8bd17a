"""The benchmark's workloads: inputs made from a seed, ops and their checks.

Importing this module imports the package; ``worker.py`` times that import
as part of set-up.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math

from endokat import audits, instances, linearize, oracle

from tracer import Patch

ORACLE_SUITES = ("prering", "equivalence", "sharp")
ORACLE_COMPARISONS = ("endog_add", "endog_compose", "endog_kat", "endog_equivalent", "endog_sharp")

# field-extract repeats a cycle of five ops: four n=4 quartic twists (as in
# acceptance criterion 8) and one from the n=6..8 tail, which rotates through
# a rational, a cubic (at p=3) and a quartic field.  With a fifth of the ops
# in the tail, p90 falls in the middle of the tail and p50 among the n=4 ops.
TWIST = (2, 2, 2)
TAIL = ((2, 1, 6), (3, 3, 2), (2, 4, 2))

# Functions each workload is built to exercise; the traced run fails its
# correctness gate if one of them is never called.
TARGETS = {
    "audit-lattice": (
        "kernel.hnf_kernel", "kernel.box_reduce",
        "groups.subgroup_from_generators", "groups.subgroup_sum",
        "groups.subgroup_intersect", "groups.quotient", "snf.smith_normal_form",
        "endogeny.endo_add", "endogeny.endo_compose", "endogeny.Endogeny.apply_set",
        "endogeny.Endogeny.kat", "endogeny.equivalent", "endogeny.sharp_commutes",
        "endogeny.global_kat", "endogeny.induced_action",
        "dimension.SplitGroup.dim", "dimension.SplitGroup.dimension_lemma_check",
        "dimension.SplitGroup.connectedness_lemma_check",
        "audits.run_instance", "instances.random_group", "instances.random_endogeny",
    ),
    "audit-oracle": (
        "groups.Subgroup.elements", "groups.AbelianGroup.add",
        "oracle.DenseGroup.close", "oracle.graph_set", "oracle.endog_add",
        "oracle.endog_compose", "oracle.endog_equivalent", "oracle.endog_sharp",
        "audits.run_instance",
    ),
    "field-extract": (
        "kernel.mat_mul", "kernel.mat_vec", "kernel.rref", "kernel.spin",
        "fp.add", "fp.scalar", "fp.mul", "fp.nullspace", "fp.spin_subspace",
        "linearize.centralizer", "linearize.invariant_subspace", "linearize.lines",
        "linearize.decompose", "linearize.projection_onto_line",
        "linearize.lift_endomorphism", "linearize.is_field",
        "linearize.MatrixAlgebra.elements", "instances.matrix_bimodule",
    ),
}

# Functions reported one by one; every other public function still counts
# towards its layer's totals.
REPORTED = sorted(set(k for ks in TARGETS.values() for k in ks))


def digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class AuditWorkload:
    """``run_instance`` over descriptors of several suites, interleaved."""

    def __init__(self, suites, use_oracle, max_order, pool_rate, trace_ops):
        self.suites = suites
        self.use_oracle = use_oracle
        self.max_order = max_order
        self.pool_rate = pool_rate  # inputs built per measured second
        self.trace_ops = trace_ops
        self.cycle = len(suites)
        self.oracle_calls = 0
        if use_oracle:
            self._count_oracle_comparisons()

    def inputs(self, rng, count):
        per_suite = math.ceil(count / len(self.suites))
        descs = [
            audits.make_descriptors(s, per_suite, rng.getrandbits(63), max_order=self.max_order)
            for s in self.suites
        ]
        return [(self.suites[i % self.cycle], descs[i % self.cycle][i // self.cycle]) for i in range(count)]

    def _count_oracle_comparisons(self):
        """Count each oracle comparison an audit makes, so that an op that
        skips its oracle branch fails the gate instead of looking faster.
        A comparison is an outermost call: the oracle's functions call each
        other."""
        depth = 0

        def counted(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                nonlocal depth
                self.oracle_calls += depth == 0
                depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth -= 1

            return call

        Patch().functions({getattr(oracle, n): counted(getattr(oracle, n)) for n in ORACLE_COMPARISONS})

    def run(self, op):
        """Returns (ok, output digest, law checks)."""
        suite, desc = op
        before = self.oracle_calls
        res = audits.run_instance(suite, desc, use_oracle=self.use_oracle)
        ok = not res["violations"]
        if self.use_oracle and res["checks"] and self.oracle_calls == before:
            ok = False
        return ok, digest(json.dumps(res, sort_keys=True)), res["checks"]


class FieldWorkload:
    """``extract_field`` on distinct seeded matrix bi-modules."""

    cycle = 5
    oracle_calls = 0

    def __init__(self, pool_rate, trace_ops):
        self.pool_rate = pool_rate
        self.trace_ops = trace_ops

    def inputs(self, rng, count):
        out = []
        seen = set()
        for i in range(count):
            p, k, m = TAIL[(i // 5) % len(TAIL)] if i % 5 == 4 else TWIST
            twist = rng.getrandbits(63)
            while twist in seen:
                twist = rng.getrandbits(63)
            seen.add(twist)
            out.append(instances.matrix_bimodule(p, k, m, twist))
        return out

    def run(self, inst):
        rep = linearize.extract_field(inst["p"], inst["n"], inst["gamma_generators"], inst["delta_generators"])
        truth = inst["ground_truth"]
        ok = (rep.order, rep.vs_dimension) == (truth["field_order"], truth["vs_dimension"])
        return ok, digest((rep.order, rep.vs_dimension, rep.field_basis)), 0


# audit-oracle runs at max_order 32, not the CLI's 64: at 64 one op costs
# from 2 ms to 0.7 s depending on |G|*|N_max| (coefficient of variation
# 1.8), so one run's op mix differs too much from the next seed's.
WORKLOADS = {
    "audit-lattice": lambda: AuditWorkload(audits.SUITES, False, 64, pool_rate=400, trace_ops=1400),
    "audit-oracle": lambda: AuditWorkload(ORACLE_SUITES, True, 32, pool_rate=150, trace_ops=500),
    "field-extract": lambda: FieldWorkload(pool_rate=15, trace_ops=40),
}
