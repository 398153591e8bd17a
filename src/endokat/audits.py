"""Law-audit suites: run a named family of algebraic checks over instances.

Each suite consumes JSON-able instance descriptors (seeds and parameters,
never live objects), so runs are reproducible and instances can be farmed
out to worker processes and merged back by index without changing the
report.  A violation carries the law name, the instance descriptor, and
counterexample data; the laws are theorems, so any violation is a library
bug and makes the audit fail.  An instance that raises an error (a
malformed descriptor, a cap) is reported under ``errors`` by its tag and
message, and the other instances still run.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor

from . import config, jsonio, oracle
from .endogeny import (
    Endogeny,
    NegligibilityBound,
    endo_add,
    endo_compose,
    endo_neg,
    equivalent,
    fully_invariant,
    global_kat,
    induced_action,
    orbit_closure,
    preceq,
    restrict,
    sharp_commutes,
    weakly_invariant,
)
from .errors import EndokatError, InvalidInput
from .groups import Subgroup, subgroup_isomorphism
from .instances import (
    polynomial,
    random_endogeny,
    random_group,
    random_homomorphism,
    random_subgroup_of,
    split_bimodule,
)
from .rng import SplitMix64

SUITES = (
    "prering",
    "equivalence",
    "sharp",
    "invariance",
    "katakernel",
    "dimension",
    "connectedness",
)

_GROUP_SUITES = ("prering", "equivalence", "sharp", "invariance")


def make_descriptors(suite, count, seed, max_order=64):
    """Seeded instance descriptors for a suite."""
    if suite not in SUITES:
        raise InvalidInput(f"unknown suite {suite!r}")
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        sub = rng.next_u64()
        if suite in _GROUP_SUITES:
            g = random_group(sub, max_order=max_order)
            grng = SplitMix64(sub ^ 0xA5A5A5A5)
            n_max = random_subgroup_of(Subgroup.full(g), grng)
            out.append(
                {
                    "group": list(g.moduli),
                    "n_max": [list(c) for c in n_max.gen_columns()],
                    "seed": sub,
                }
            )
        else:
            prng = SplitMix64(sub)
            p = (2, 3)[prng.below(2)]
            n = 1 + prng.below(3)
            torsion = [(3, 5, 9, 27)[prng.below(4)]] if p == 2 else [(2, 4, 8)[prng.below(3)]]
            out.append({"p": p, "n": n, "torsion": torsion, "seed": sub})
    return out


def _endo_triple(desc):
    g, n_max, seed = jsonio.group_descriptor_from_json(desc)
    return g, n_max, [random_endogeny(g, n_max, SplitMix64(seed).fork(i).state) for i in range(3)]


def _sharp_family(desc):
    """gamma (optionally a plain morphism), and two partners sharply
    commuting with it, built as blurred polynomials in one endomorphism."""
    g, n_max, seed = jsonio.group_descriptor_from_json(desc)
    bound = NegligibilityBound(g, n_max)
    rng = SplitMix64(seed)
    for _ in range(64):
        base = random_homomorphism(g, g, rng)
        morphs = [polynomial(base, [rng.below(3) for _ in range(3)]) for _ in range(3)]
        blurs = [random_subgroup_of(n_max, rng) for _ in range(3)]
        try:
            endos = [
                endo_add(Endogeny.from_morphism(m, bound), Endogeny.blur(f, bound))
                for m, f in zip(morphs, blurs)
            ]
        except EndokatError:
            continue
        gamma, d1, d2 = endos
        if sharp_commutes(gamma, d1) and sharp_commutes(gamma, d2):
            return g, n_max, bound, morphs[0], gamma, d1, d2
    return None


def _split_objects(desc):
    return split_bimodule(*jsonio.split_descriptor_from_json(desc))


def _blur_unchecked(g, s, bound):
    """A x S as an endogeny carrying the given bound without validation
    (audits compare raw relations; laws are bound-independent)."""
    e = Endogeny.blur(s, NegligibilityBound.everything(g))
    return Endogeny(g, g, e.graph, bound, _checked=True)


class Laws:
    """What one instance's audit found: :meth:`check` counts one law and
    records it, with its counterexample data, when it fails; ``notes``
    collects what is reported but not asserted.

    :meth:`add` and :meth:`comp` build each unchecked sum and composite of
    the instance once (laws are bound-independent), memoised by operand
    identity.  The memo holds the operands, so no id is reused while it
    lives.  Two sides built by different operations never share a term, so
    each law still compares independently built sides.
    """

    def __init__(self, desc):
        self.desc = desc
        self.checks = 0
        self.violations = []
        self.notes = []
        self._terms = {}

    def check(self, law, holds, data=None):
        self.checks += 1
        if not holds:
            self.record(law, data)

    def record(self, law, data=None):
        """A violation that counts no law: a step the laws need failed."""
        self.violations.append({"law": law, "instance": self.desc, "counterexample": data or {}})

    def add(self, x, y):
        return self._term(endo_add, x, y)

    def comp(self, x, y):
        return self._term(endo_compose, x, y)

    def _term(self, op, x, y):
        key = (op, id(x), id(y))
        if key not in self._terms:
            self._terms[key] = (x, y, op(x, y, unchecked=True))
        return self._terms[key][2]


# ---------------------------------------------------------------------------
# Suite bodies.  Each records its instance's laws and notes in ``laws``.


def _same_relation(laws, law, x, y):
    laws.check(law, x.graph == y.graph, {"lhs_order": x.graph.order, "rhs_order": y.graph.order})


def prering_laws(laws, g, a, b, c):
    """All prering laws on one triple."""
    add, comp = laws.add, laws.comp
    zero = Endogeny.zero(g, a.bound)
    one = Endogeny.identity(g, a.bound)
    _same_relation(laws, "add_assoc", add(add(a, b), c), add(a, add(b, c)))
    _same_relation(laws, "add_comm", add(a, b), add(b, a))
    _same_relation(laws, "add_zero", add(a, zero), a)
    _same_relation(laws, "comp_assoc", comp(comp(a, b), c), comp(a, comp(b, c)))
    _same_relation(laws, "comp_one_left", comp(one, a), a)
    _same_relation(laws, "comp_one_right", comp(a, one), a)
    _same_relation(laws, "right_dist", comp(a, add(b, c)), add(comp(a, b), comp(a, c)))
    # left distributivity: containment one way, correction term the other
    lhs = comp(add(a, b), c)
    rhs = add(comp(a, c), comp(b, c))
    laws.check("left_dist_lower", lhs.graph.leq(rhs.graph), {"lhs": lhs.graph.order, "rhs": rhs.graph.order})
    corr_b = _blur_unchecked(g, b.apply_set(c.kat()), lhs.bound)
    corr_a = _blur_unchecked(g, a.apply_set(c.kat()), lhs.bound)
    laws.check("left_dist_upper", rhs.graph.leq(add(lhs, corr_b).graph), {"correction": "second"})
    laws.check("left_dist_upper_alt", rhs.graph.leq(add(lhs, corr_a).graph), {"correction": "first"})


def kat_identity_laws(laws, a, b):
    """kat(a+b) = kat a + kat b and kat(a b) = a[kat b] on one pair."""
    laws.check("kat_add", laws.add(a, b).kat() == (a.kat() | b.kat()))
    laws.check("kat_comp", laws.comp(a, b).kat() == a.apply_set(b.kat()))


def _run_prering(laws, desc, use_oracle):
    g, n_max, (a, b, c) = _endo_triple(desc)
    prering_laws(laws, g, a, b, c)
    kat_identity_laws(laws, a, b)
    if use_oracle and g.order <= config.ORACLE_CAP:
        sa, sb = oracle.graph_set(a), oracle.graph_set(b)
        laws.check("oracle_add", oracle.endog_add(sa, sb, g) == oracle.graph_set(laws.add(a, b)))
        laws.check("oracle_compose", oracle.endog_compose(sa, sb) == oracle.graph_set(laws.comp(a, b)))
        laws.check("oracle_kat", oracle.endog_kat(sa) == oracle.subgroup_set(a.kat()))


def equivalence_laws(laws, g, a, b, c, f1, f2):
    """Congruence of equivalence under sum/composition, distributivity
    modulo equivalence, and the preorder laws, on one triple with two
    blur witnesses."""
    add, comp = laws.add, laws.comp
    a2 = add(a, _blur_unchecked(g, f1, a.bound))
    b2 = add(b, _blur_unchecked(g, f2, a.bound))
    laws.check("equiv_reflexive", equivalent(a, a))
    laws.check("equiv_blur", equivalent(a, a2))
    laws.check("cong_add", equivalent(add(a, b), add(a2, b2)))
    laws.check("cong_comp", equivalent(comp(a, b), comp(a2, b2)))
    laws.check("dist_mod_equiv", equivalent(comp(add(a, b), c), add(comp(a, c), comp(b, c))))
    laws.check(
        "preceq_sym_is_equiv",
        (preceq(a, a2) and preceq(a2, a)) == equivalent(a, a2)
        and (preceq(a, b) and preceq(b, a)) == equivalent(a, b),
    )
    laws.check("preceq_blur_up", preceq(a, a2))


def _run_equivalence(laws, desc, use_oracle):
    g, n_max, (a, b, c) = _endo_triple(desc)
    rng = SplitMix64(desc["seed"] ^ 0x5F5F)
    f1 = random_subgroup_of(n_max, rng)
    f2 = random_subgroup_of(n_max, rng)
    equivalence_laws(laws, g, a, b, c, f1, f2)
    if use_oracle and g.order <= 256:
        sa, sb = oracle.graph_set(a), oracle.graph_set(b)
        laws.check("oracle_equivalent", oracle.endog_equivalent(sa, sb, g) == equivalent(a, b))


def _run_sharp(laws, desc, use_oracle):
    if isinstance(desc, dict) and "pair" in desc:
        # explicit pair instance: record the verdict; closure laws apply
        # only to sharply commuting pairs
        e1, e2 = jsonio.pair_descriptor_from_json(desc)
        is_sharp = sharp_commutes(e1, e2)
        laws.notes.append({"sharp_commutes": is_sharp})
        laws.check("sharp_verdict", True)  # a note, never a violation
        if is_sharp:
            laws.check("sharp_blur_image", e2.apply_set(e1.kat()).leq(e1.kat() | e2.kat()))
            laws.check("sharp_neg", sharp_commutes(e1, endo_neg(e2)))
        return
    fam = _sharp_family(desc)
    if fam is None:
        laws.notes.append({"note": "no sharp family within budget", "instance": desc})
        return
    g, n_max, bound, morph0, gamma, d1, d2 = fam
    laws.check("sharp_add", sharp_commutes(gamma, laws.add(d1, d2)))
    laws.check("sharp_neg", sharp_commutes(gamma, endo_neg(d1)))
    laws.check("sharp_comp", sharp_commutes(gamma, laws.comp(d1, d2)))
    laws.check("sharp_blur_image", d1.apply_set(gamma.kat()).leq(gamma.kat() | d1.kat()))
    laws.notes.append({"sharp_commutes_d1_d2": sharp_commutes(d1, d2)})
    if use_oracle and g.order <= 64:
        # _sharp_family has established that gamma and d1 commute sharply
        laws.check("oracle_sharp", oracle.endog_sharp(oracle.graph_set(gamma), oracle.graph_set(d1), g))


def _run_invariance(laws, desc, use_oracle):
    fam = _sharp_family(desc)
    if fam is None:
        laws.notes.append({"note": "no sharp family within budget", "instance": desc})
        return
    g, n_max, bound, morph0, gamma, d1, d2 = fam
    rng = SplitMix64(desc["seed"] ^ 0x1111)
    b0 = random_subgroup_of(Subgroup.full(g), rng)
    b = orbit_closure(b0 | gamma.kat(), [gamma])
    laws.check("setup_weakly_invariant", weakly_invariant(b, gamma))
    laws.check("invariance_lemma", weakly_invariant(d1.apply_set(b), gamma))
    b1 = orbit_closure(random_subgroup_of(Subgroup.full(g), rng), [gamma])
    laws.check("weak_sum_closed", weakly_invariant(b | b1, gamma))
    laws.check("kat_weakly_invariant", weakly_invariant(gamma.kat(), d1))
    gm = Endogeny.from_morphism(morph0, bound)
    if sharp_commutes(gm, d1):
        laws.check("morphism_kernel_fully_invariant", fully_invariant(d1.ker(), gm))
    bb = orbit_closure(b, [gamma, d1])
    if weakly_invariant(bb, gamma) and weakly_invariant(bb, d1):
        try:
            rg = restrict(gamma, bb)
            rd = restrict(d1, bb)
            _, _, from_b = subgroup_isomorphism(bb)
            katcap = gamma.kat() & bb
            laws.check(
                "restriction_kat_bound",
                all(katcap.contains(from_b(col)) for col in rg.kat().gen_columns()),
            )
            laws.check("restriction_commutes_mod_equiv", equivalent(laws.comp(rg, rd), laws.comp(rd, rg)))
        except EndokatError as exc:
            laws.record("restriction_failed", {"error": str(exc)})


def _run_katakernel(laws, desc, use_oracle):
    sg, gset, dset, info = _split_objects(desc)
    kg = global_kat(gset)
    kd = global_kat(dset)
    k = kg | kd
    for g in gset:
        laws.check("kat_gamma_fully_gamma_invariant", fully_invariant(kg, g))
        laws.check("bikat_fully_gamma_invariant", fully_invariant(k, g))
    for d in dset:
        laws.check("bikat_fully_delta_invariant", fully_invariant(k, d))
    for g in gset:
        pre = g.preimage(k)
        for d in dset:
            laws.check("preimage_fully_delta_invariant", fully_invariant(pre, d))
    try:
        q, proj, ghoms, dhoms = induced_action(gset, dset)
        laws.check("induced_commute", all(h1.compose(h2) == h2.compose(h1) for h1 in ghoms for h2 in dhoms))
        # each induced endomorphism tracks its relation through the quotient
        for fam, homs in ((gset, ghoms), (dset, dhoms)):
            for g, h in zip(fam, homs):
                laws.check(
                    "induced_agrees_with_relation",
                    all(h(proj(e)) == proj(g.apply(e).rep) for e in sg.ambient.generators()),
                )
    except EndokatError as exc:
        laws.record("induced_action_failed", {"error": str(exc)})


def _run_dimension(laws, desc, use_oracle):
    sg, gset, dset, info = _split_objects(desc)
    rng = SplitMix64(desc["seed"] ^ 0xD13)
    endos = list(gset) + list(dset)
    for i in range(3):
        endos.append(random_endogeny(sg.ambient, sg.bound.n_max, rng.next_u64()))
    for e in endos:
        dk, di, da, ok = sg.dimension_lemma_check(e)
        laws.check("dimension_lemma", ok, {"dims": [dk, di, da]})
    h1 = random_subgroup_of(Subgroup.full(sg.ambient), rng)
    h2 = random_subgroup_of(Subgroup.full(sg.ambient), rng)
    laws.check("dim_subadditive", sg.dim(h1 | h2) <= sg.dim(h1) + sg.dim(h2))
    hp, ht = sg.split(h1)
    laws.check("split_direct", (hp | ht) == h1 and (hp & ht).is_trivial)


def _run_connectedness(laws, desc, use_oracle):
    sg, gset, dset, info = _split_objects(desc)
    rng = SplitMix64(desc["seed"] ^ 0xC0C0)
    endos = list(gset) + list(dset)
    endos.append(random_endogeny(sg.ambient, sg.bound.n_max, rng.next_u64()))
    for e in endos:
        b = random_subgroup_of(Subgroup.full(sg.ambient), rng)
        laws.check("connectedness_lemma", sg.connectedness_lemma_check(e, b))
    # conjectured, not asserted: the connected part of a kernel is weakly
    # invariant under sharp partners; counterexamples are reported as notes
    for g in gset:
        for d in dset:
            kerp = sg.connected_component(g.ker())
            if not weakly_invariant(kerp, d):
                laws.notes.append({"conjecture_counterexample": desc})


_RUNNERS = {
    "prering": _run_prering,
    "equivalence": _run_equivalence,
    "sharp": _run_sharp,
    "invariance": _run_invariance,
    "katakernel": _run_katakernel,
    "dimension": _run_dimension,
    "connectedness": _run_connectedness,
}


def run_instance(suite, desc, use_oracle=False):
    laws = Laws(desc)
    _RUNNERS[suite](laws, desc, use_oracle)
    return {"checks": laws.checks, "violations": laws.violations, "notes": laws.notes}


def _pool_entry(args):
    """One instance's result, or its error as ``{"error": {tag, message}}``:
    an instance that cannot run does not stop the others."""
    suite, idx, desc, use_oracle = args
    try:
        return idx, run_instance(suite, desc, use_oracle)
    except EndokatError as exc:
        return idx, {"error": {"tag": exc.tag, "message": str(exc)}}


def run_suite(suite, descriptors, use_oracle=False, workers=None):
    """Run every descriptor, merging results and errors by instance index."""
    if suite not in SUITES:
        raise InvalidInput(f"unknown suite {suite!r}")
    start = time.monotonic()
    results = [None] * len(descriptors)
    jobs = [(suite, i, d, use_oracle) for i, d in enumerate(descriptors)]
    # never more processes than jobs or CPUs, whatever ``workers`` asks
    workers = min(len(jobs) if workers is None else workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # workers start from the parent's caps, not from their import-time
        # defaults, so spawn/forkserver pools check what a serial run checks
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=config.set_caps,
            initargs=(config.caps(),),
        ) as pool:
            for idx, res in pool.map(_pool_entry, jobs):
                results[idx] = res
    else:
        for job in jobs:
            idx, res = _pool_entry(job)
            results[idx] = res
    violations = []
    notes = []
    errors = []
    checks = 0
    for i, res in enumerate(results):
        if "error" in res:
            errors.append({"instance_index": i, **res["error"]})
            continue
        checks += res["checks"]
        for v in res["violations"]:
            v = dict(v)
            v["instance_index"] = i
            violations.append(v)
        notes.extend(res["notes"])
    return {
        "format_version": jsonio.FORMAT_VERSION,
        "kind": "audit_report",
        "suite": suite,
        "instances_run": len(descriptors),
        "checks": checks,
        "violations": violations,
        "notes": notes,
        "errors": errors,
        "runtime_ms": int((time.monotonic() - start) * 1000),
    }
