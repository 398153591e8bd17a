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
from .groups import Subgroup
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


def _v(law, desc, data):
    return {"law": law, "instance": desc, "counterexample": data}


def _blur_unchecked(g, s, bound):
    """A x S as an endogeny carrying the given bound without validation
    (audits compare raw relations; laws are bound-independent)."""
    e = Endogeny.blur(s, NegligibilityBound.everything(g))
    return Endogeny(g, g, e.graph, bound, _checked=True)


# ---------------------------------------------------------------------------
# Suite bodies.  Each returns (checks, violations, notes).


def prering_law_violations(g, a, b, c):
    """All prering laws on one triple: list of (law, data); empty when the
    laws hold.  Operations run unchecked because laws are bound-independent."""
    out = []

    def eq(law, x, y):
        if x.graph != y.graph:
            out.append((law, {"lhs_order": x.graph.order, "rhs_order": y.graph.order}))

    add = lambda x, y: endo_add(x, y, unchecked=True)
    comp = lambda x, y: endo_compose(x, y, unchecked=True)
    zero = Endogeny.zero(g, a.bound)
    one = Endogeny.identity(g, a.bound)
    eq("add_assoc", add(add(a, b), c), add(a, add(b, c)))
    eq("add_comm", add(a, b), add(b, a))
    eq("add_zero", add(a, zero), a)
    eq("comp_assoc", comp(comp(a, b), c), comp(a, comp(b, c)))
    eq("comp_one_left", comp(one, a), a)
    eq("comp_one_right", comp(a, one), a)
    eq("right_dist", comp(a, add(b, c)), add(comp(a, b), comp(a, c)))
    # left distributivity: containment one way, correction term the other
    lhs = comp(add(a, b), c)
    rhs = add(comp(a, c), comp(b, c))
    if not lhs.graph.leq(rhs.graph):
        out.append(("left_dist_lower", {"lhs": lhs.graph.order, "rhs": rhs.graph.order}))
    corr_b = _blur_unchecked(g, b.apply_set(c.kat()), lhs.bound)
    corr_a = _blur_unchecked(g, a.apply_set(c.kat()), lhs.bound)
    if not rhs.graph.leq(add(lhs, corr_b).graph):
        out.append(("left_dist_upper", {"correction": "second"}))
    if not rhs.graph.leq(add(lhs, corr_a).graph):
        out.append(("left_dist_upper_alt", {"correction": "first"}))
    return out


PRERING_LAW_COUNT = 10


def kat_identity_violations(g, a, b):
    """kat(a+b) = kat a + kat b and kat(a b) = a[kat b] on one pair."""
    out = []
    if endo_add(a, b, unchecked=True).kat() != (a.kat() | b.kat()):
        out.append(("kat_add", {}))
    if endo_compose(a, b, unchecked=True).kat() != a.apply_set(b.kat()):
        out.append(("kat_comp", {}))
    return out


def _run_prering(desc, use_oracle):
    g, n_max, (a, b, c) = _endo_triple(desc)
    vs = []
    checks = PRERING_LAW_COUNT + 2
    for law, data in prering_law_violations(g, a, b, c):
        vs.append(_v(law, desc, data))
    for law, data in kat_identity_violations(g, a, b):
        vs.append(_v(law, desc, data))
    notes = []
    if use_oracle and g.order <= config.ORACLE_CAP:
        add = lambda x, y: endo_add(x, y, unchecked=True)
        comp = lambda x, y: endo_compose(x, y, unchecked=True)
        sa, sb = oracle.graph_set(a), oracle.graph_set(b)
        checks += 3
        if oracle.endog_add(sa, sb, g) != oracle.graph_set(add(a, b)):
            vs.append(_v("oracle_add", desc, {}))
        if oracle.endog_compose(sa, sb) != oracle.graph_set(comp(a, b)):
            vs.append(_v("oracle_compose", desc, {}))
        if oracle.endog_kat(sa) != oracle.subgroup_set(a.kat()):
            vs.append(_v("oracle_kat", desc, {}))
    return checks, vs, notes


def equivalence_law_violations(g, a, b, c, f1, f2):
    """Congruence of equivalence under sum/composition, distributivity
    modulo equivalence, and the preorder laws, on one triple with two
    blur witnesses."""
    out = []
    bound = a.bound
    add = lambda x, y: endo_add(x, y, unchecked=True)
    comp = lambda x, y: endo_compose(x, y, unchecked=True)
    a2 = add(a, _blur_unchecked(g, f1, bound))
    b2 = add(b, _blur_unchecked(g, f2, bound))

    def chk(law, cond):
        if not cond:
            out.append((law, {}))

    chk("equiv_reflexive", equivalent(a, a))
    chk("equiv_blur", equivalent(a, a2))
    chk("cong_add", equivalent(add(a, b), add(a2, b2)))
    chk("cong_comp", equivalent(comp(a, b), comp(a2, b2)))
    chk("dist_mod_equiv", equivalent(comp(add(a, b), c), add(comp(a, c), comp(b, c))))
    chk(
        "preceq_sym_is_equiv",
        (preceq(a, a2) and preceq(a2, a)) == equivalent(a, a2)
        and (preceq(a, b) and preceq(b, a)) == equivalent(a, b),
    )
    chk("preceq_blur_up", preceq(a, a2))
    return out


EQUIVALENCE_LAW_COUNT = 7


def _run_equivalence(desc, use_oracle):
    g, n_max, (a, b, c) = _endo_triple(desc)
    rng = SplitMix64(desc["seed"] ^ 0x5F5F)
    f1 = random_subgroup_of(n_max, rng)
    f2 = random_subgroup_of(n_max, rng)
    vs = []
    checks = EQUIVALENCE_LAW_COUNT
    for law, data in equivalence_law_violations(g, a, b, c, f1, f2):
        vs.append(_v(law, desc, data))
    notes = []
    if use_oracle and g.order <= 256:
        checks += 1
        if oracle.endog_equivalent(oracle.graph_set(a), oracle.graph_set(b), g) != equivalent(a, b):
            vs.append(_v("oracle_equivalent", desc, {}))
    return checks, vs, notes


def _run_sharp(desc, use_oracle):
    if isinstance(desc, dict) and "pair" in desc:
        # explicit pair instance: record the verdict; closure laws apply
        # only to sharply commuting pairs
        e1, e2 = jsonio.pair_descriptor_from_json(desc)
        is_sharp = sharp_commutes(e1, e2)
        notes = [{"sharp_commutes": is_sharp}]
        vs = []
        checks = 1
        if is_sharp:
            checks += 2
            if not e2.apply_set(e1.kat()).leq(e1.kat() | e2.kat()):
                vs.append(_v("sharp_blur_image", desc, {}))
            if not sharp_commutes(e1, endo_neg(e2)):
                vs.append(_v("sharp_neg", desc, {}))
        return checks, vs, notes
    fam = _sharp_family(desc)
    if fam is None:
        return 0, [], [{"note": "no sharp family within budget", "instance": desc}]
    g, n_max, bound, morph0, gamma, d1, d2 = fam
    vs = []
    checks = 0

    def chk(law, cond, data=None):
        nonlocal checks
        checks += 1
        if not cond:
            vs.append(_v(law, desc, data or {}))

    chk("sharp_add", sharp_commutes(gamma, endo_add(d1, d2, unchecked=True)))
    chk("sharp_neg", sharp_commutes(gamma, endo_neg(d1)))
    chk("sharp_comp", sharp_commutes(gamma, endo_compose(d1, d2, unchecked=True)))
    chk(
        "sharp_blur_image",
        d1.apply_set(gamma.kat()).leq(gamma.kat() | d1.kat()),
    )
    notes = [{"sharp_commutes_d1_d2": sharp_commutes(d1, d2)}]
    if use_oracle and g.order <= 64:
        checks += 1
        if oracle.endog_sharp(oracle.graph_set(gamma), oracle.graph_set(d1), g) != sharp_commutes(gamma, d1):
            vs.append(_v("oracle_sharp", desc, {}))
    return checks, vs, notes


def _run_invariance(desc, use_oracle):
    fam = _sharp_family(desc)
    if fam is None:
        return 0, [], [{"note": "no sharp family within budget", "instance": desc}]
    g, n_max, bound, morph0, gamma, d1, d2 = fam
    rng = SplitMix64(desc["seed"] ^ 0x1111)
    vs = []
    checks = 0

    def chk(law, cond, data=None):
        nonlocal checks
        checks += 1
        if not cond:
            vs.append(_v(law, desc, data or {}))

    b0 = random_subgroup_of(Subgroup.full(g), rng)
    b = orbit_closure(b0 | gamma.kat(), [gamma])
    chk("setup_weakly_invariant", weakly_invariant(b, gamma))
    chk("invariance_lemma", weakly_invariant(d1.apply_set(b), gamma))
    b1 = orbit_closure(random_subgroup_of(Subgroup.full(g), rng), [gamma])
    chk("weak_sum_closed", weakly_invariant(b | b1, gamma))
    chk("kat_weakly_invariant", weakly_invariant(gamma.kat(), d1))
    gm = Endogeny.from_morphism(morph0, bound)
    if sharp_commutes(gm, d1):
        chk("morphism_kernel_fully_invariant", fully_invariant(d1.ker(), gm))
    bb = orbit_closure(b, [gamma, d1])
    if weakly_invariant(bb, gamma) and weakly_invariant(bb, d1):
        try:
            from .groups import subgroup_isomorphism

            rg = restrict(gamma, bb)
            rd = restrict(d1, bb)
            _, _, from_b = subgroup_isomorphism(bb)
            katcap = gamma.kat() & bb
            chk(
                "restriction_kat_bound",
                all(katcap.contains(from_b(col)) for col in rg.kat().gen_columns()),
            )
            chk(
                "restriction_commutes_mod_equiv",
                equivalent(
                    endo_compose(rg, rd, unchecked=True),
                    endo_compose(rd, rg, unchecked=True),
                ),
            )
        except EndokatError as exc:
            vs.append(_v("restriction_failed", desc, {"error": str(exc)}))
    return checks, vs, []


def _run_katakernel(desc, use_oracle):
    sg, gset, dset, info = _split_objects(desc)
    vs = []
    checks = 0

    def chk(law, cond, data=None):
        nonlocal checks
        checks += 1
        if not cond:
            vs.append(_v(law, desc, data or {}))

    kg = global_kat(gset)
    kd = global_kat(dset)
    k = kg | kd
    for g in gset:
        chk("kat_gamma_fully_gamma_invariant", fully_invariant(kg, g))
        chk("bikat_fully_gamma_invariant", fully_invariant(k, g))
    for d in dset:
        chk("bikat_fully_delta_invariant", fully_invariant(k, d))
    for g in gset:
        pre = g.preimage(k)
        for d in dset:
            chk("preimage_fully_delta_invariant", fully_invariant(pre, d))
    try:
        q, proj, ghoms, dhoms = induced_action(gset, dset)
        checks += 1
        for h1 in ghoms:
            for h2 in dhoms:
                if h1.compose(h2) != h2.compose(h1):
                    vs.append(_v("induced_commute", desc, {}))
        # each induced endomorphism tracks its relation through the quotient
        for fam, homs in ((gset, ghoms), (dset, dhoms)):
            for g, h in zip(fam, homs):
                checks += 1
                agree = all(
                    h(proj(e)) == proj(g.apply(e).rep) for e in sg.ambient.generators()
                )
                if not agree:
                    vs.append(_v("induced_agrees_with_relation", desc, {}))
    except EndokatError as exc:
        vs.append(_v("induced_action_failed", desc, {"error": str(exc)}))
    return checks, vs, []


def _run_dimension(desc, use_oracle):
    sg, gset, dset, info = _split_objects(desc)
    rng = SplitMix64(desc["seed"] ^ 0xD13)
    vs = []
    checks = 0
    endos = list(gset) + list(dset)
    for i in range(3):
        e = random_endogeny(sg.ambient, sg.bound.n_max, rng.next_u64())
        endos.append(e)
    for e in endos:
        dk, di, da, ok = sg.dimension_lemma_check(e)
        checks += 1
        if not ok:
            vs.append(_v("dimension_lemma", desc, {"dims": [dk, di, da]}))
    h1 = random_subgroup_of(Subgroup.full(sg.ambient), rng)
    h2 = random_subgroup_of(Subgroup.full(sg.ambient), rng)
    checks += 2
    if sg.dim(h1 | h2) > sg.dim(h1) + sg.dim(h2):
        vs.append(_v("dim_subadditive", desc, {}))
    hp, ht = sg.split(h1)
    if (hp | ht) != h1 or not (hp & ht).is_trivial:
        vs.append(_v("split_direct", desc, {}))
    return checks, vs, []


def _run_connectedness(desc, use_oracle):
    sg, gset, dset, info = _split_objects(desc)
    rng = SplitMix64(desc["seed"] ^ 0xC0C0)
    vs = []
    notes = []
    checks = 0
    endos = list(gset) + list(dset)
    endos.append(random_endogeny(sg.ambient, sg.bound.n_max, rng.next_u64()))
    for e in endos:
        b = random_subgroup_of(Subgroup.full(sg.ambient), rng)
        checks += 1
        if not sg.connectedness_lemma_check(e, b):
            vs.append(_v("connectedness_lemma", desc, {}))
    # conjectured, not asserted: the connected part of a kernel is weakly
    # invariant under sharp partners; counterexamples are reported as notes
    for g in gset:
        for d in dset:
            kerp = sg.connected_component(g.ker())
            if not weakly_invariant(kerp, d):
                notes.append({"conjecture_counterexample": desc})
    return checks, vs, notes


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
    checks, violations, notes = _RUNNERS[suite](desc, use_oracle)
    return {"checks": checks, "violations": violations, "notes": notes}


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
