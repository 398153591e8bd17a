"""CLI contract: exit codes, determinism, report shapes."""

import json
import subprocess
import sys

import pytest

from endokat import cli, endogeny
from endokat.instances import split_bimodule

CLI = [sys.executable, "-m", "endokat.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


def test_generate_validate_roundtrip(tmp_path):
    f = tmp_path / "m.json"
    r = run("generate", "--kind", "matrix_bimodule", "--p", "2", "--k", "2", "--m", "2",
            "--seed", "1", "-o", str(f))
    assert r.returncode == 0
    r2 = run("validate", str(f))
    assert r2.returncode == 0
    echoed = json.loads(r2.stdout)
    assert echoed["kind"] == "matrix_bimodule"


def test_generate_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        r = run("generate", "--kind", "split_bimodule", "--p", "2", "--n", "2",
                "--torsion", "3", "--seed", "7", "-o", str(f))
        assert r.returncode == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_validate_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("validate", str(bad)).returncode == 2
    nonglobal = tmp_path / "ng.json"
    nonglobal.write_text(json.dumps({
        "format_version": "1",
        "kind": "endogeny",
        "source": {"invariant_factors": [4]},
        "target": {"invariant_factors": [4]},
        "graph_generators": [[[2], [1]]],
        "n_max": {"generators": []},
    }))
    r = run("validate", str(nonglobal))
    assert r.returncode == 1
    assert "not-global" in r.stderr


def test_audit_exit_codes(tmp_path):
    rep = tmp_path / "rep.json"
    r = run("audit", "--suite", "prering", "--random", "5", "--seed", "11",
            "--workers", "1", "--report", str(rep))
    assert r.returncode == 0
    doc = json.loads(rep.read_text())
    assert doc["suite"] == "prering" and doc["instances_run"] == 5
    assert doc["violations"] == []
    # empty instance list exits 0 with zero instances
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"format_version": "1", "instances": []}))
    r2 = run("audit", "--suite", "prering", "--instances", str(empty), "--workers", "1")
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["instances_run"] == 0


def test_audit_deterministic_modulo_runtime(tmp_path):
    outs = []
    for _ in range(2):
        r = run("audit", "--suite", "sharp", "--random", "4", "--seed", "3",
                "--workers", "1")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        doc.pop("runtime_ms")
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]


def test_audit_workers_match_serial():
    r1 = run("audit", "--suite", "dimension", "--random", "6", "--seed", "5",
             "--workers", "1")
    r2 = run("audit", "--suite", "dimension", "--random", "6", "--seed", "5",
             "--workers", "2")
    assert r1.returncode == 0 and r2.returncode == 0
    d1, d2 = json.loads(r1.stdout), json.loads(r2.stdout)
    assert d1["errors"] == []
    d1.pop("runtime_ms")
    d2.pop("runtime_ms")
    assert d1 == d2


def test_linearize_matrix(tmp_path):
    f = tmp_path / "m.json"
    run("generate", "--kind", "matrix_bimodule", "--p", "2", "--k", "1", "--m", "2",
        "--seed", "0", "-o", str(f))
    r = run("linearize", str(f))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["order"] == 2 and doc["vs_dimension"] == 2
    assert doc["ground_truth_match"] is True


def test_linearize_matrix_with_the_families_swapped(tmp_path):
    """The scalar action as the first family and the matrix ring as the
    second: the field and dimension are the same."""
    f = tmp_path / "m.json"
    run("generate", "--kind", "matrix_bimodule", "--p", "2", "--k", "2", "--m", "2",
        "--seed", "3", "-o", str(f))
    inst = json.loads(f.read_text())
    inst["gamma_generators"], inst["delta_generators"] = inst["delta_generators"], inst["gamma_generators"]
    f.write_text(json.dumps(inst))
    r = run("linearize", str(f))
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["order"] == 4 and doc["vs_dimension"] == 2
    assert doc["ground_truth_match"] is True


def test_linearize_split(tmp_path):
    f = tmp_path / "s.json"
    run("generate", "--kind", "split_bimodule", "--p", "2", "--n", "2",
        "--torsion", "3", "--seed", "5", "-o", str(f))
    r = run("linearize", str(f))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["kind"] == "split_report"
    assert doc["minimal"] is True


@pytest.mark.parametrize("p, n, torsion, seed", [(2, 2, [3], 5), (2, 2, [9], 11), (3, 1, [2], 2), (2, 3, [5], 7)])
def test_split_report_katakernel_from_the_quotient(p, n, torsion, seed, monkeypatch):
    """The split report's joint katakernel order is |ambient| / |quotient|,
    with one global_kat fixpoint per family: the joint katakernel is
    computed once, inside induced_action."""
    sg, gset, dset, info = split_bimodule(p, n, torsion, seed, plant_witness=seed == 7)
    joint = endogeny.bikat(gset, dset)
    calls = []
    fixpoint = endogeny.global_kat

    def counted(gens):
        calls.append(gens)
        return fixpoint(gens)

    monkeypatch.setattr(endogeny, "global_kat", counted)
    out, code = cli._linearize_split((sg, gset, dset, info))
    assert code == 0 and out["joint_katakernel_order"] == joint.order
    assert len(calls) == 2


def test_linearize_reducible_plant(tmp_path):
    f = tmp_path / "p.json"
    run("generate", "--kind", "split_bimodule", "--p", "2", "--n", "3",
        "--torsion", "5", "--seed", "7", "--plant-witness", "-o", str(f))
    # planted instances linearize with the witness reported, since the plant
    # is declared; an undeclared reducible instance exits 1
    doc = json.loads(f.read_text())
    doc["info"] = {}
    f2 = tmp_path / "p2.json"
    f2.write_text(json.dumps(doc))
    r = run("linearize", str(f2))
    assert r.returncode == 1
    diag = json.loads(r.stdout)
    assert "witness_order" in diag or "witness" in diag


IDENTITY2 = [[[1, 0], [0, 1]]]
IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _matrix_doc(**doc):
    return {"format_version": "1", "kind": "matrix_bimodule", **doc}


BAD_MATRIX_DOCS = {
    "composite-p": _matrix_doc(p=4, n=2, gamma_generators=IDENTITY2, delta_generators=IDENTITY2),
    "n-zero": _matrix_doc(p=2, n=0, gamma_generators=[[]], delta_generators=[[]]),
    "n-missing": _matrix_doc(p=2, gamma_generators=IDENTITY2, delta_generators=IDENTITY2),
    "json-list": [_matrix_doc(p=2, n=2, gamma_generators=IDENTITY2, delta_generators=IDENTITY2)],
    "p-string": _matrix_doc(p="two", n=2, gamma_generators=IDENTITY2, delta_generators=IDENTITY2),
    "3x3-in-n-2": _matrix_doc(p=2, n=2, gamma_generators=[IDENTITY3], delta_generators=IDENTITY2),
}


@pytest.mark.parametrize(
    "command, name",
    [(c, name) for c in ("linearize", "validate") for name in BAD_MATRIX_DOCS],
    ids=[
        name if c == "linearize" else f"{c}-{name}"
        for c in ("linearize", "validate")
        for name in BAD_MATRIX_DOCS
    ],
)
def test_linearize_invalid_input_exit_2(tmp_path, command, name):
    """validate and linearize run the same reader, so they reject the same
    documents, with exit 2 and no traceback."""
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(BAD_MATRIX_DOCS[name]))
    r = run(command, str(f))
    assert r.returncode == 2
    assert "invalid input" in r.stderr
    assert "Traceback" not in r.stderr


def test_audit_malformed_descriptor_exit_2(tmp_path):
    """A descriptor without n_max is an error entry of the report; the
    other instance still runs, and the exit code says invalid input."""
    f = tmp_path / "inst.json"
    f.write_text(json.dumps({"format_version": "1", "instances": [
        {"group": [4], "seed": 3},
        {"group": [4], "n_max": [[2]], "seed": 3},
    ]}))
    r = run("audit", "--suite", "prering", "--instances", str(f), "--workers", "1")
    assert r.returncode == 2
    assert "invalid input" in r.stderr and "Traceback" not in r.stderr
    doc = json.loads(r.stdout)
    assert [(e["instance_index"], e["tag"]) for e in doc["errors"]] == [(0, "invalid-input")]
    assert "n_max" in doc["errors"][0]["message"]
    assert doc["checks"] > 0 and doc["violations"] == []


@pytest.mark.parametrize("args, flag", [
    (["--kind", "matrix_bimodule", "--p", "2"], "--k"),
    (["--kind", "split_bimodule", "--p", "2"], "--n"),
    (["--kind", "random_endogeny"], "--group"),
], ids=["matrix_bimodule", "split_bimodule", "random_endogeny"])
def test_generate_missing_flag_exit_2(args, flag):
    r = run("generate", *args)
    assert r.returncode == 2
    assert "usage error" in r.stderr and flag in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("flag", ["--max-order"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_cap_flags_must_be_positive(flag, value):
    r = run(f"{flag}={value}", "audit", "--suite", "prering", "--random", "2", "--workers", "1")
    assert r.returncode == 2
    assert flag in r.stderr and "positive" in r.stderr
    assert "Traceback" not in r.stderr


def test_oracle_flag(tmp_path):
    r = run("audit", "--suite", "prering", "--random", "3", "--seed", "2",
            "--oracle", "--workers", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["violations"] == []


def test_env_seed(tmp_path):
    import os

    env = dict(os.environ)
    env["ENDOKAT_SEED"] = "99"
    f1 = tmp_path / "e1.json"
    r = subprocess.run(
        CLI + ["generate", "--kind", "matrix_bimodule", "--p", "2", "--k", "1",
               "--m", "2", "-o", str(f1)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0
    f2 = tmp_path / "e2.json"
    run("generate", "--kind", "matrix_bimodule", "--p", "2", "--k", "1", "--m", "2",
        "--seed", "99", "-o", str(f2))
    assert f1.read_bytes() == f2.read_bytes()
