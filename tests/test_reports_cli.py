import json
from fractions import Fraction

import pytest

from hopfadjoint.constructions import comodule_algebra_K
from hopfadjoint.cyclotomic import make_field
from hopfadjoint.linalg import Matrix
from hopfadjoint.reports import VerificationReport, document, emit_json
from hopfadjoint import cli
from hopfadjoint.cli import cli_main, field_axiom_spotcheck
from support import from_rows


def test_field_document_fragment():
    ctx = make_field(2)
    doc = document(ctx, "test", {})
    assert doc["field"] == {"conductor": 2, "cyclotomic_poly": ["1", "1"]}
    assert doc["schema_version"] == 1


def test_scalar_and_matrix_round_trip():
    ctx = make_field(4)
    s = ctx.scalar([Fraction(3, 2), Fraction(-1)])
    blob = json.loads(emit_json(s))
    assert blob == ["3/2", "-1"]
    assert ctx.scalar(blob) == s

    m = from_rows(ctx, [[ctx.one(), s], [ctx.zero(), ctx.from_rational(7)]])
    blob = json.loads(emit_json(m))
    assert blob["rows"] == 2 and blob["cols"] == 2
    rebuilt = Matrix(ctx, 2, 2, [(u // 2, u % 2, ctx.scalar(e))
                                 for u, e in enumerate(blob["entries"])])
    assert rebuilt == m


def test_emit_json_sorted_and_compact():
    data = emit_json({"b": 1, "a": [Fraction(1, 3)]})
    assert data == b'{"a":["1/3"],"b":1}'


def test_report_invariants():
    rep = VerificationReport()
    rep.add("one", True)
    with pytest.raises(ValueError):
        rep.add("one", True)
    rep.add("two", False, {"why": "because"})
    assert not rep.ok
    assert rep.failures()[0].witness == {"why": "because"}
    rep2 = VerificationReport()
    rep2.add("two", False)  # witness defaults to {} on failure
    assert rep2.failures()[0].witness == {}


def test_skipped_claims_share_the_duplicate_id_check():
    rep = VerificationReport()
    rep.add("one", True)
    with pytest.raises(ValueError):
        rep.add_skipped("one", "already checked")
    rep.add_skipped("two", "not applicable")
    with pytest.raises(ValueError):
        rep.add_skipped("two", "not applicable")
    with pytest.raises(ValueError):
        rep.check("two", iter(()))
    assert [c.status for c in rep.claims] == ["pass", "skipped"]


def test_check_takes_the_first_witness_and_stops():
    seen = []

    def witnesses():
        for i in range(5):
            seen.append(i)
            if i >= 2:
                yield {"index": i}

    rep = VerificationReport()
    rep.check("search", witnesses())
    rep.check("empty", iter(()))
    rep.check("empty-witness", iter([{}]))
    assert seen == [0, 1, 2]
    assert [(c.claim_id, c.status, c.witness) for c in rep.claims] == [
        ("search", "fail", {"index": 2}),
        ("empty", "pass", None),
        ("empty-witness", "fail", {}),
    ]


def test_field_spotcheck_deterministic():
    ctx = make_field(3)
    a = field_axiom_spotcheck(ctx, seed=7)
    b = field_axiom_spotcheck(ctx, seed=7)
    assert emit_json(a) == emit_json(b)
    assert a.ok


def test_cli_verify_exit_zero(capsys):
    rc = cli_main(["verify", "--suite", "rmatrix", "--n", "2,3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert '"status":"pass"' in out


def test_cli_runs_are_byte_identical(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["verify", "--suite", "hopf", "--n", "2", "--out", str(f1)]) == 0
    assert cli_main(["verify", "--suite", "hopf", "--n", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_cli_adjoint_dimension_examples(tmp_path):
    out = tmp_path / "adj.json"
    rc = cli_main(["adjoint", "--n", "2", "--d", "2", "--xi", "0",
                   "--conditions", "ad1,ad3", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_bytes())
    assert data["dim"] == 4
    assert data["report"]["ok"] is True

    out1 = tmp_path / "adj1.json"
    rc = cli_main(["adjoint", "--n", "1", "--d", "1", "--xi", "0",
                   "--conditions", "ad1,ad2,ad3", "--out", str(out1)])
    assert rc == 0
    assert json.loads(out1.read_bytes())["dim"] == 1


def test_cli_adjoint_suite_runs_transport_and_dinaturality(tmp_path):
    out = tmp_path / "suite.json"
    assert cli_main(["verify", "--suite", "adjoint", "--n", "2,3", "--out", str(out)]) == 0
    status = {c["claim_id"]: c["status"] for c in json.loads(out.read_bytes())["report"]["claims"]}
    for n in (2, 3):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            transport = f"n{n}/module-variant-K({d},0)/transport/"
            assert status[transport + "componentwise-product"] == "pass"
            assert {s for c, s in status.items() if c.startswith(transport)} <= {"pass", "skipped"}
        for v in ("regular", "trivial"):
            assert status[f"n{n}/relative-K({n},0)/kC{n}-{v}/dinaturality/wedge-identity"] == "pass"


def test_cli_adjoint_suite_builds_each_K_once(monkeypatch, tmp_path):
    # the module-variant loop ends at d = n, and the fully-constrained
    # solve reuses that K(n, n, 0)
    built = []

    def counted(n, d, xi):
        built.append((n, d, xi))
        return comodule_algebra_K(n, d, xi)

    monkeypatch.setattr(cli, "comodule_algebra_K", counted)
    out = tmp_path / "suite.json"
    assert cli_main(["verify", "--suite", "adjoint", "--n", "2,4", "--out", str(out)]) == 0
    assert built == [(2, 1, 0), (2, 2, 0), (4, 1, 0), (4, 2, 0), (4, 4, 0)]


def test_cli_negative_xi_fraction_after_equals_sign(tmp_path):
    # argparse reads a separate -1/2 as an option, so the value follows "="
    out = tmp_path / "adj.json"
    assert cli_main(["adjoint", "--n", "2", "--d", "1", "--xi=-1/2", "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["algebra"]["problem"]["comodule_algebra"] == "K(1,-1/2)"


def test_cli_braided_adjoint(tmp_path):
    out = tmp_path / "ba.json"
    rc = cli_main(["braided-adjoint", "--n", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_bytes())
    assert data["report"]["ok"] is True


def test_cli_taft(tmp_path):
    out = tmp_path / "taft.json"
    rc = cli_main(["taft", "--n", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_bytes())
    assert data["hopf"]["dim"] == 4
    assert data["report"]["ok"] is True


def test_cli_report_replays_and_sets_exit(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert cli_main(["taft", "--n", "2", "--out", str(good)]) == 0
    assert cli_main(["report", "--json", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"report": {"ok": False, "claims": [
        {"claim_id": "synthetic/failure", "status": "fail", "witness": {"k": 1}}]}}))
    assert cli_main(["report", "--json", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "synthetic/failure" in out and "witness" in out


@pytest.mark.parametrize("argv", [
    pytest.param(["verify", "--suite", "bogus", "--n", "2"], id="unknown-suite"),
    pytest.param(["taft", "--n", "0"], id="n-zero"),
    pytest.param(["adjoint", "--n", "3", "--d", "2"], id="d-not-dividing-n"),
    pytest.param(["adjoint", "--n", "2", "--d", "0"], id="d-zero"),
    pytest.param(["adjoint", "--n", "2", "--d", "2", "--conditions", "ad9"], id="unknown-condition"),
    # the six sets outside the two variants ad1,ad3 and ad1,ad2,ad3
    *[pytest.param(["adjoint", "--n", str(n), "--d", "1", "--conditions", conditions],
                   id=f"conditions-{conditions or 'none'}-n{n}")
      for n in (1, 2) for conditions in ("", "ad1", "ad2", "ad1,ad2", "ad3", "ad2,ad3")],
    pytest.param(["adjoint", "--n", "2", "--d", "2", "--xi", "abc"], id="xi-not-rational"),
    pytest.param(["adjoint", "--n", "2", "--d", "2", "--xi", "1/0"], id="xi-zero-denominator"),
    pytest.param(["adjoint", "--n", "2", "--d", "2", "--reduced"], id="reduced-flag-removed"),
    pytest.param(["adjoint", "--n", "3", "--d", "1", "--xi", "0", "--rbar"], id="rbar-flag-removed"),
    pytest.param(["adjoint", "--n", "2", "--d", "2", "--conditions", "ad1", "--full"], id="full-flag-removed"),
    pytest.param(["verify", "--suite", "hopf", "--n", "2,x"], id="n-list-not-integers"),
    pytest.param(["verify", "--suite", "all", "--n", ","], id="n-list-empty"),
    pytest.param(["verify", "--suite", "hopf", "--n", "2,2"], id="n-list-repeated"),
    pytest.param(["taft", "--n", "2", "--out", "/nonexistent/x.json"], id="out-path-unwritable"),
    pytest.param(["report", "--json", "/nonexistent/report.json"], id="missing-report"),
    # --modules is gone: a once-valid value, an unknown one and an empty list all exit 2
    pytest.param(["braided-adjoint", "--n", "2", "--modules", "regular"], id="modules-flag-removed"),
    pytest.param(["braided-adjoint", "--n", "2", "--modules", "bogus"], id="unknown-module"),
    pytest.param(["braided-adjoint", "--n", "2", "--modules", ","], id="modules-empty"),
])
def test_cli_usage_error_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli_main(argv)
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith("hopfadjoint") and "error: " in lines[-1]
    assert not any("Traceback" in line for line in lines)


@pytest.mark.parametrize("text", ["{not json", "[1,2]", '{"report": 5}', '{"claims": [1]}', '{"claims": 3}',
                                  '{"claims": [{"status": 5}]}', '{"claims": [{"status": null}]}',
                                  '{"report": {"claims": [{"status": ["x"]}]}}',
                                  '{"claims": [{"claim_id": "a"}]}', '{"claims": [{"status": "PASS"}]}',
                                  '{"foo": 1}', '{}', '{"report": {}}'],
                         ids=["not-json", "list", "report-not-object", "claim-not-object", "claims-not-list",
                              "status-number", "status-null", "status-list", "status-missing",
                              "status-unknown", "claims-missing", "empty-object", "report-without-claims"])
def test_cli_report_rejects_malformed_json(text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(SystemExit) as err:
        cli_main(["report", "--json", str(bad)])
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "Traceback" not in errors[0]


def test_emit_json_rejects_unknown():
    with pytest.raises(TypeError):
        emit_json(object())
    with pytest.raises(TypeError):
        emit_json({"nested": [1, object()]})
