"""Acceptance suite: one test per criterion, each printing a PASS line.

Sampling plan for the law criteria: every abelian group of order <= 32 is
exercised; the relation pool per group is exhaustive whenever the full count
fits the pool budget (and relations always satisfy the graph-size cap at
these orders), otherwise it is a seeded covering sample around the
structured corner relations, and triples are exhausted when their count fits
the triple budget.  The random masses use the stated sizes verbatim.
"""

import json
import subprocess
import sys
import time
from itertools import product as iproduct

from endokat import audits, oracle
from endokat.dimension import SplitGroup
from endokat.endogeny import (
    Endogeny,
    NegligibilityBound,
    endo_add,
    endo_compose,
    endo_neg,
    equivalent,
    fully_invariant,
    sharp_commutes,
    weakly_invariant,
)
from endokat.groups import (
    Subgroup,
    canonicalize_group,
    subgroup_from_generators,
)
from endokat.instances import (
    fixture_nonliftable,
    matrix_bimodule,
    random_endogeny,
    random_group,
    random_subgroup_of,
)
from endokat.linearize import centralizer, decompose, extract_field
from endokat.rng import SplitMix64

from oracle_enumeration import (
    EnumeratedGroup,
    count_endogenies,
    endog_ker,
    enumerate_endogeny_pairs,
    enumerate_homomorphisms,
    naive_quotient_factors,
    unpack,
)
from references import all_abelian_groups, blur, coset_elements, random_sharp_pair, weak_invariance_intersection_witness

SEED = 0xE17D0
GRAPH_CAP = 1024
POOL_CAP = 600  # exhaustive relation pool up to this many relations (44/55 groups)
SAMPLE_POOL = 16  # sampled pool size beyond the cap (plus corners)
TRIPLE_BUDGET = 4000  # exhaustive tuples up to this count
SAMPLE_TRIPLES = 48  # sampled tuples per group beyond the budget
RANDOM_TRIPLES = 500
SHARP_SEEDS = 200
SPLIT_INSTANCES = 200
DIMENSION_MASS = 500

_count_memo = {}


def _endogeny_count(g):
    key = g.moduli
    if key not in _count_memo:
        _count_memo[key] = count_endogenies(g, Subgroup.full(g))
    return _count_memo[key]


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _pool(g, seed):
    """Relation pool on g with the everything-bound: exhaustive when small,
    else corners plus a seeded sample."""
    n_max = Subgroup.full(g)
    bound = NegligibilityBound(g, n_max)
    count = _endogeny_count(g)
    pool = []
    if count <= POOL_CAP:
        for pairs, _ in enumerate_endogeny_pairs(g, n_max):
            e = Endogeny.from_pairs(g, g, pairs, bound)
            if e.graph.order <= GRAPH_CAP:
                pool.append(e)
        return pool, True
    one = Endogeny.identity(g, bound)
    pool = [Endogeny.zero(g, bound), one, endo_neg(one)]
    rng = SplitMix64(seed)
    for _ in range(3):
        f = random_subgroup_of(n_max, rng)
        if g.order * f.order <= GRAPH_CAP:
            pool.append(blur(f, bound))
    tries = 0
    while len(pool) < SAMPLE_POOL + 3 and tries < 10 * SAMPLE_POOL:
        tries += 1
        e = random_endogeny(g, n_max, rng.next_u64())
        if e.graph.order <= GRAPH_CAP:
            pool.append(e)
    return pool, False


def _triples(pool, seed):
    n = len(pool)
    if n**3 <= TRIPLE_BUDGET:
        yield from iproduct(pool, pool, pool)
        return
    rng = SplitMix64(seed)
    for _ in range(SAMPLE_TRIPLES):
        yield pool[rng.below(n)], pool[rng.below(n)], pool[rng.below(n)]


def _random_triple_stream(count, seed, max_order):
    rng = SplitMix64(seed)
    for _ in range(count):
        g = random_group(rng.next_u64(), max_order=max_order)
        n_max = random_subgroup_of(Subgroup.full(g), rng)
        bound_seed = rng.next_u64()
        trip = [random_endogeny(g, n_max, SplitMix64(bound_seed).fork(i).state) for i in range(3)]
        yield g, n_max, trip


def _law_violations(law_fn, *args):
    """The violations that one call of an audits law function records."""
    laws = audits.Laws(None)
    law_fn(laws, *args)
    return laws.violations


def test_criterion_1_prering_laws():
    start = time.monotonic()
    violations = []
    groups = all_abelian_groups(32)
    triples_run = 0
    for g in groups:
        pool, exhaustive = _pool(g, SEED ^ g.order)
        for a, b, c in _triples(pool, SEED ^ (g.order * 31)):
            triples_run += 1
            violations.extend(_law_violations(audits.prering_laws, g, a, b, c))
    for g, n_max, (a, b, c) in _random_triple_stream(RANDOM_TRIPLES, SEED + 1, 4096):
        triples_run += 1
        violations.extend(_law_violations(audits.prering_laws, g, a, b, c))
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 60.0
    report(
        "criterion 1 (prering laws)",
        ok,
        f"{len(groups)} groups, {triples_run} triples, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )


def test_criterion_2_katakernel_identities():
    violations = []
    pairs_run = 0
    for g in all_abelian_groups(32):
        pool, _ = _pool(g, SEED ^ (g.order * 7))
        rng = SplitMix64(SEED ^ (g.order * 13))
        n = len(pool)
        pairs = (
            list(iproduct(pool, pool))
            if n * n <= TRIPLE_BUDGET
            else [(pool[rng.below(n)], pool[rng.below(n)]) for _ in range(SAMPLE_TRIPLES)]
        )
        for a, b in pairs:
            pairs_run += 1
            violations.extend(_law_violations(audits.kat_identity_laws, a, b))
    for g, n_max, (a, b, _) in _random_triple_stream(RANDOM_TRIPLES, SEED + 2, 4096):
        pairs_run += 1
        violations.extend(_law_violations(audits.kat_identity_laws, a, b))
    report(
        "criterion 2 (katakernel identities)",
        not violations,
        f"{pairs_run} pairs, {len(violations)} violations",
    )


def test_criterion_3_quotient_ring():
    violations = []
    runs = 0
    for g in all_abelian_groups(32):
        pool, _ = _pool(g, SEED ^ (g.order * 17))
        rng = SplitMix64(SEED ^ (g.order * 19))
        n = len(pool)
        n_max = Subgroup.full(g)
        for _ in range(min(10, n * n)):
            a = pool[rng.below(n)]
            b = pool[rng.below(n)]
            c = pool[rng.below(n)]
            f1 = random_subgroup_of(n_max, rng)
            f2 = random_subgroup_of(n_max, rng)
            runs += 1
            violations.extend(_law_violations(audits.equivalence_laws, g, a, b, c, f1, f2))
    for g, n_max, (a, b, c) in _random_triple_stream(RANDOM_TRIPLES, SEED + 3, 4096):
        rng = SplitMix64(g.order)
        f1 = random_subgroup_of(n_max, rng)
        f2 = random_subgroup_of(n_max, rng)
        runs += 1
        violations.extend(_law_violations(audits.equivalence_laws, g, a, b, c, f1, f2))
    # the blurred fixture is equivalent to no endomorphism, exhaustively
    fixture_ok = True
    for p in (2, 3):
        a, e = fixture_nonliftable(p)
        homs = enumerate_homomorphisms(a, a)
        if any(equivalent(e, Endogeny.from_morphism(h, e.bound)) for h in homs):
            fixture_ok = False
    ok = not violations and fixture_ok
    report(
        "criterion 3 (quotient ring + nonliftable fixture)",
        ok,
        f"{runs} triples, {len(violations)} violations, fixture_ok={fixture_ok}",
    )


def test_criterion_4_sharp_commutation_mass():
    rng = SplitMix64(SEED + 4)
    closure_fail = invariance_fail = inverse_fail = 0
    morphism_cases = 0
    produced = 0
    for _ in range(SHARP_SEEDS):
        g = random_group(rng.next_u64(), max_order=64)
        n_max = random_subgroup_of(Subgroup.full(g), rng)
        try:
            gamma, delta = random_sharp_pair(g, n_max, rng.next_u64())
        except Exception:
            continue
        produced += 1
        dd = endo_add(delta, delta, unchecked=True)
        if not (
            sharp_commutes(gamma, dd)
            and sharp_commutes(gamma, endo_neg(delta))
            and sharp_commutes(gamma, endo_compose(delta, delta, unchecked=True))
        ):
            closure_fail += 1
        b = random_subgroup_of(Subgroup.full(g), rng) | gamma.kat()
        while True:
            nxt = b | gamma.apply_set(b)
            if nxt == b:
                break
            b = nxt
        if weakly_invariant(b, gamma) and not weakly_invariant(
            delta.apply_set(b), gamma
        ):
            invariance_fail += 1
        if gamma.kat().is_trivial:
            morphism_cases += 1
            if not fully_invariant(delta.ker(), gamma):
                inverse_fail += 1
    witness = weak_invariance_intersection_witness(64)
    ok = (
        produced >= SHARP_SEEDS * 3 // 4
        and closure_fail == 0
        and invariance_fail == 0
        and inverse_fail == 0
        and morphism_cases > 10
        and witness is not None
        and witness[0].order <= 64
    )
    report(
        "criterion 4 (sharp commutation closure + invariance + witness)",
        ok,
        f"{produced} pairs, closure_fail={closure_fail}, "
        f"invariance_fail={invariance_fail}, inverse_fail={inverse_fail} "
        f"on {morphism_cases} morphism cases, witness on order "
        f"{witness[0].order if witness else '-'}",
    )


def test_criterion_5_katakernel_lemma():
    descs = audits.make_descriptors("katakernel", SPLIT_INSTANCES, SEED + 5)
    rep = audits.run_suite("katakernel", descs, workers=1)
    ok = (
        rep["instances_run"] == SPLIT_INSTANCES
        and not rep["violations"]
        and not rep["errors"]
    )
    report(
        "criterion 5 (katakernel lemma + induced action)",
        ok,
        f"{rep['instances_run']} split instances, {rep['checks']} checks, "
        f"{len(rep['violations'])} violations, {len(rep['errors'])} errors",
    )


def test_criterion_6_dimension_and_connectedness():
    rng = SplitMix64(SEED + 6)
    torsions = {2: [[3], [5], [27], [3, 3], [25]], 3: [[2], [4], [2, 2], [8], [16]]}
    dim_fail = conn_fail = 0
    for _ in range(DIMENSION_MASS):
        p = (2, 3)[rng.below(2)]
        n = 1 + rng.below(4)
        tor = torsions[p][rng.below(5)]
        sg = SplitGroup(p, n, canonicalize_group(tor))
        e = random_endogeny(sg.ambient, sg.bound.n_max, rng.next_u64())
        if not sg.dimension_lemma_check(e)[3]:
            dim_fail += 1
        b = random_subgroup_of(Subgroup.full(sg.ambient), rng)
        if not sg.connectedness_lemma_check(e, b):
            conn_fail += 1
    ok = dim_fail == 0 and conn_fail == 0
    report(
        "criterion 6 (dimension + connectedness laws)",
        ok,
        f"{DIMENSION_MASS} relations, dim_fail={dim_fail}, conn_fail={conn_fail}",
    )


def _oracle_group_check(g, seed):
    """Subgroup and relation operations against enumeration on one group."""
    rng = SplitMix64(seed)
    dg = EnumeratedGroup(g)
    pk = dg.packing
    mism = []

    def rand_sub():
        gens = [tuple(rng.below(m) for m in g.moduli) for _ in range(2)]
        return subgroup_from_generators(g, gens)

    h1, h2 = rand_sub(), rand_sub()
    s1 = oracle.subgroup_set(h1)
    s2 = oracle.subgroup_set(h2)
    if oracle.subgroup_set(h1 | h2) != dg.close(s1 | s2):
        mism.append("sum")
    if oracle.subgroup_set(h1 & h2) != (s1 & s2):
        mism.append("intersect")
    probe = dg.elements[rng.below(len(dg.elements))]
    if h1.contains(unpack(pk, probe)) != (probe in s1):
        mism.append("membership")
    if h1.order != len(s1):
        mism.append("order")
    if g.order <= 256:
        from endokat.groups import quotient as _quotient

        q, _ = _quotient(g, h1)
        if naive_quotient_factors(dg, s1) != list(q.moduli):
            mism.append("quotient")
    # relations with a small blur
    x = tuple(rng.below(m) for m in g.moduli)
    k = g.element_order(x)
    small = 1
    for d in (4, 3, 2):
        if k % d == 0:
            small = d
            break
    n_max = subgroup_from_generators(g, [g.scalar_mul(k // small, x)])
    e1 = random_endogeny(g, n_max, rng.next_u64())
    e2 = random_endogeny(g, n_max, rng.next_u64())
    g1, g2 = oracle.graph_set(e1), oracle.graph_set(e2)
    if oracle.endog_add(g1, g2, g) != oracle.graph_set(endo_add(e1, e2, unchecked=True)):
        mism.append("add")
    if oracle.endog_compose(g1, g2) != oracle.graph_set(endo_compose(e1, e2, unchecked=True)):
        mism.append("compose")
    if oracle.endog_kat(g1) != oracle.subgroup_set(e1.kat()):
        mism.append("kat")
    if oracle.endog_im(g1) != oracle.subgroup_set(e1.im()):
        mism.append("im")
    if endog_ker(g1) != oracle.subgroup_set(e1.ker()):
        mism.append("ker")
    if oracle.endog_equivalent(g1, g2, g) != equivalent(e1, e2):
        mism.append("equivalent")
    if oracle.endog_sharp(g1, g2, g) != sharp_commutes(e1, e2):
        mism.append("sharp")
    a = unpack(pk, probe)
    if oracle.endog_apply(g1, probe) != frozenset(map(pk.pack, coset_elements(e1.apply(a)))):
        mism.append("apply")
    return mism


def test_criterion_7_oracle_equivalence():
    mismatches = []
    groups = all_abelian_groups(256)
    for g in groups:
        mism = _oracle_group_check(g, SEED ^ (g.order * 37) ^ hash(g.moduli) % 2**30)
        if mism:
            mismatches.append((g.moduli, mism))
    rng = SplitMix64(SEED + 7)
    extra = 0
    while extra < 200:
        g = random_group(rng.next_u64(), max_order=4096)
        if g.order > 4096:
            continue
        extra += 1
        mism = _oracle_group_check(g, rng.next_u64())
        if mism:
            mismatches.append((g.moduli, mism))
    report(
        "criterion 7 (oracle equivalence)",
        not mismatches,
        f"{len(groups)} groups <= 256 plus 200 random <= 4096, "
        f"{len(mismatches)} mismatches",
    )


MATRIX_CASES = [
    # (p, k, m, seed, expected_order, expected_dim)
    (2, 1, 2, 0, 2, 2),
    (2, 1, 3, 0, 2, 3),
    (3, 1, 2, 0, 3, 2),
    (2, 2, 1, 0, 4, 1),
]
TWIST_SEEDS = list(range(20))


def _all_matrix_instances():
    for p, k, m, seed, eo, ed in MATRIX_CASES:
        yield p, k, m, seed, eo, ed
    for s in TWIST_SEEDS:
        yield 2, 2, 2, s, 4, 2


def test_criterion_8_field_extraction():
    worst = 0.0
    failures = []
    runs = 0
    for p, k, m, seed, eo, ed in _all_matrix_instances():
        inst = matrix_bimodule(p, k, m, seed)
        t0 = time.monotonic()
        try:
            rep = extract_field(p, k * m, inst["gamma_generators"], inst["delta_generators"])
            rep.verify(inst["gamma_generators"], inst["delta_generators"])
            if (rep.order, rep.vs_dimension) != (eo, ed):
                failures.append((p, k, m, seed, rep.order, rep.vs_dimension))
        except Exception as exc:  # noqa: BLE001 - recorded as a failure
            failures.append((p, k, m, seed, repr(exc)))
        worst = max(worst, time.monotonic() - t0)
        runs += 1
    ok = not failures and worst < 5.0
    report(
        "criterion 8 (field extraction ground truths)",
        ok,
        f"{runs} instances, failures={failures}, worst {worst:.2f}s",
    )


def test_criterion_9_decomposition_invariants():
    failures = []
    for p, k, m, seed, eo, ed in _all_matrix_instances():
        inst = matrix_bimodule(p, k, m, seed)
        n = k * m
        galg = centralizer(inst["delta_generators"], p=p, n=n)
        dalg = centralizer(galg.basis, p=p, n=n)
        try:
            dec = decompose(galg, dalg.basis)
            dec.verify(dalg.basis)
            if len(dec.lines) != m or any(line.dim != k for line in dec.lines):
                failures.append((p, k, m, seed, [line.dim for line in dec.lines]))
        except Exception as exc:  # noqa: BLE001
            failures.append((p, k, m, seed, repr(exc)))
    report(
        "criterion 9 (decomposition invariants + line counts)",
        not failures,
        f"{4 + len(TWIST_SEEDS)} instances, failures={failures}",
    )


def _strip_runtime(text):
    doc = json.loads(text)
    doc.pop("runtime_ms", None)
    return json.dumps(doc, sort_keys=True)


def test_criterion_10_cli_end_to_end(tmp_path):
    cli = [sys.executable, "-m", "endokat.cli"]
    start = time.monotonic()

    def run_pipeline(workdir):
        outputs = []
        m = workdir / "matrix.json"
        s = workdir / "split.json"
        fx = workdir / "fixture.json"
        cmds = [
            ["generate", "--kind", "matrix_bimodule", "--p", "2", "--k", "2",
             "--m", "2", "--seed", "1", "-o", str(m)],
            ["generate", "--kind", "split_bimodule", "--p", "2", "--n", "2",
             "--torsion", "3", "--seed", "5", "-o", str(s)],
            ["generate", "--kind", "fixture_nonliftable", "--p", "2", "-o", str(fx)],
            ["validate", str(m)],
            ["validate", str(s)],
            ["validate", str(fx)],
            ["audit", "--suite", "prering", "--random", "10", "--seed", "7",
             "--workers", "1"],
            ["audit", "--suite", "sharp", "--random", "8", "--seed", "9",
             "--workers", "1"],
            ["audit", "--suite", "katakernel", "--random", "8", "--seed", "11",
             "--workers", "1"],
            ["linearize", str(m)],
            ["linearize", str(s)],
        ]
        for cmd in cmds:
            r = subprocess.run(cli + cmd, capture_output=True, text=True)
            if r.returncode != 0:
                return None, (cmd, r.returncode, r.stderr)
            outputs.append(_strip_runtime(r.stdout) if cmd[0] == "audit" else r.stdout)
        return outputs, None

    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    d1.mkdir()
    d2.mkdir()
    out1, err1 = run_pipeline(d1)
    out2, err2 = run_pipeline(d2)
    elapsed = time.monotonic() - start
    ok = err1 is None and err2 is None and out1 == out2 and elapsed < 300.0
    report(
        "criterion 10 (CLI end-to-end, deterministic)",
        ok,
        f"errors={err1 or err2}, identical={out1 == out2}, {elapsed:.1f}s",
    )
