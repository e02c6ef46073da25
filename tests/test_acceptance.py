"""Acceptance suite: every criterion is checked at exact equality and
prints one pass/fail line.  Shared solves live in a module fixture so
the expensive grid points are computed once."""

import time

import pytest

from hopfadjoint.braiding import check_rmatrix, regular_module, trivial_module
from hopfadjoint.constructions import (
    braided_line,
    check_braided_hopf,
    check_hopf_morphism,
    comodule_algebra_K,
    group_algebra_cn,
    r_matrix_cn,
    regular_comodule_algebra,
    taft_model,
    taft_presentation_check,
)
from hopfadjoint.hopf import check_hopf
from hopfadjoint.adjoint import (
    chi0_crosscheck,
    connectedness,
    dinaturality_sample,
    full_pipeline_basis,
    phi_structure_transport,
    problem_for,
    solve_adjoint,
    verify_braided_commutative,
    verify_center_algebra,
    verify_relative_center,
    verify_yd,
)
from hopfadjoint.braided_adjoint import build_h_ad, regular_case_iso, pi_dinatural_check, verify_h_ad
from hopfadjoint.linalg import coords_of_terms

GRID = [(2, 1, 0), (2, 2, 0), (2, 2, 1), (3, 1, 0), (3, 3, 0), (4, 2, 1)]
CHI0_POINTS = [(2, 1, 0), (2, 2, 0), (3, 3, 0)]


def record(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}", flush=True)
    assert ok, f"{criterion}{suffix}"


@pytest.fixture(scope="module")
def solved():
    group_algebra_cn.cache_clear()
    r_matrix_cn.cache_clear()
    braided_line.cache_clear()
    taft_model.cache_clear()
    data = {"module_variant": {}, "module_variant_seconds": {}, "relative": {},
            "relative_regular": {}, "models": {}}
    for (n, d, xi) in GRID:
        model = taft_model(n)
        data["models"][n] = model
        k = comodule_algebra_K(n, d, xi)
        t0 = time.perf_counter()
        alg = solve_adjoint(problem_for(model, k, {"ad1", "ad3"}))
        data["module_variant_seconds"][(n, d, xi)] = time.perf_counter() - t0
        data["module_variant"][(n, d, xi)] = alg
        data["relative"][(n, d, xi)] = solve_adjoint(
            problem_for(model, k, {"ad1", "ad2", "ad3"}))
    for n in (2, 3):
        model = taft_model(n)
        data["relative_regular"][n] = solve_adjoint(
            problem_for(model, regular_comodule_algebra(n), {"ad1", "ad2", "ad3"}))
    return data


def test_criterion_01_hopf_axiom_suite():
    worst = 0.0
    for n in (2, 3, 4):
        t0 = time.perf_counter()
        model = taft_model(n)
        rep = check_hopf(model.taft)
        assert rep.ok, (n, [c.claim_id for c in rep.failures()])
        rep = taft_presentation_check(model.taft, n)
        assert rep.ok, (n, [c.claim_id for c in rep.failures()])
        rep = check_braided_hopf(model.line)
        assert rep.ok, (n, [c.claim_id for c in rep.failures()])
        rep = check_hopf_morphism(model.taft, model.t_hopf, model.pi)
        assert rep.ok, (n, [c.claim_id for c in rep.failures()])
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert elapsed < 5.0, f"n={n} took {elapsed:.1f}s"
    record("criterion 1: Hopf axiom suite for n in 2..4", True, f"worst {worst:.2f}s")


def test_criterion_02_rmatrix_suite():
    t0 = time.perf_counter()
    for n in range(1, 7):
        rep = check_rmatrix(r_matrix_cn(n))
        assert rep.ok, (n, [c.claim_id for c in rep.failures()])
        assert any(c.claim_id.endswith("antipode-left") and c.status == "pass"
                   for c in rep.claims)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    record("criterion 2: R-matrix suite for n in 1..6", True, f"{elapsed:.2f}s")


def test_criterion_03_dimension_table(solved):
    for (n, d, xi) in GRID:
        alg = solved["module_variant"][(n, d, xi)]
        assert alg.dim == n * n, (n, d, xi, alg.dim)
        seconds = solved["module_variant_seconds"][(n, d, xi)]
        bound = 600.0 if n == 4 else 30.0
        assert seconds < bound, (n, d, xi, seconds)
    detail = ", ".join(f"({n},{d},{xi})->{n*n}" for (n, d, xi) in GRID)
    record("criterion 3: module-variant dimension table", True, detail)


def test_criterion_04_structure_transport(solved):
    findings = []
    for (n, d, xi) in GRID:
        rep = phi_structure_transport(solved["module_variant"][(n, d, xi)])
        assert rep.ok, (n, d, xi, [c.claim_id for c in rep.failures()])
        conv = [c for c in rep.claims if c.claim_id.endswith("index-convention")][0]
        assert conv.witness["shifted_holds"] is True
        findings.append(f"({n},{d},{xi}):unshifted={conv.witness['unshifted_holds']}")
    record("criterion 4: structure transport with index-convention finding", True,
           "; ".join(findings))


def test_criterion_05_relative_regular(solved):
    for n in (2, 3):
        alg = solved["relative_regular"][n]
        assert alg.dim == n, (n, alg.dim)
        had = build_h_ad(solved["models"][n])
        rep = regular_case_iso(alg, had)
        assert rep.ok, (n, [c.claim_id for c in rep.failures()])
    record("criterion 5: regular-case dimension and carrier isomorphism", True,
           "dim = n and phi is an algebra isomorphism for n = 2, 3")


def test_criterion_06_universal_structure(solved):
    algebras = []
    for key, alg in solved["module_variant"].items():
        algebras.append((f"module-variant {key}", alg, False))
    for key, alg in solved["relative"].items():
        algebras.append((f"relative {key}", alg, True))
    for n, alg in solved["relative_regular"].items():
        algebras.append((f"relative regular n={n}", alg, True))
    for label, alg, relative in algebras:
        assert verify_yd(alg).ok, label
        assert verify_center_algebra(alg).ok, label
        assert verify_braided_commutative(alg).ok, label
        assert connectedness(alg) == 1, label
        if relative:
            model = solved["models"][alg.problem.base.dim]
            v = regular_module(model.t_hopf.algebra)
            assert verify_relative_center(alg, v).ok, label
    record("criterion 6: universal structural properties", True,
           f"{len(algebras)} algebras checked")


def test_criterion_07_isotypic_crosscheck(solved):
    readings = []
    for (n, d, xi) in CHI0_POINTS:
        rep = chi0_crosscheck(solved["relative"][(n, d, xi)])
        assert rep.ok, (n, d, xi, [c.claim_id for c in rep.failures()])
        dims = [c for c in rep.claims if c.claim_id.endswith("dims")][0].witness
        match = [c for c in rep.claims if "isomorphism" in c.claim_id][0].witness
        readings.append(f"({n},{d},{xi}): rel={dims['relative_dim']} "
                        f"K0={dims['isotypic_K']} tuple0={dims['isotypic_tuple']} "
                        f"matches={match['matches']}")
        assert "tuple-algebra" in match["matches"]
    record("criterion 7: trivial-isotypic cross-check", True, "; ".join(readings))


def test_criterion_08_braided_adjoint(solved):
    for n in (2, 3):
        model = solved["models"][n]
        had = build_h_ad(model)
        mods = {"trivial": trivial_module(model.taft),
                "regular": regular_module(model.taft.algebra)}
        rep = verify_h_ad(had, mods)
        assert rep.ok, (n, [c.claim_id for c in rep.failures()])
        for x in mods.values():
            for v in (trivial_module(model.t_hopf), regular_module(model.t_hopf.algebra)):
                rep = pi_dinatural_check(had, x, v)
                assert rep.ok, (n, [c.claim_id for c in rep.failures()])
    record("criterion 8: braided adjoint algebra and dinatural family", True,
           "n = 2, 3 with trivial and regular modules")


def test_criterion_09_solver_self_consistency(solved):
    model = taft_model(2)
    k = comodule_algebra_K(2, 2, 0)
    for conds in ({"ad1", "ad3"}, {"ad1", "ad2", "ad3"}):
        a = solve_adjoint(problem_for(model, k, conds), with_structure=False)
        b = full_pipeline_basis(problem_for(model, k, conds))
        assert a.basis.pivots == b.pivots
        assert a.basis.rows == b.rows
    for key in GRID:
        sh = solved["module_variant"][key]
        rel = solved["relative"][key]
        for v in rel.basis.rows:
            assert coords_of_terms(v, sh.basis) is not None, key
    record("criterion 9: pipeline agreement and monotonicity", True,
           "identical bases at (2,2,0); relative space inside module variant on all grid points")


def test_criterion_10_dinaturality_sampling(solved):
    model = taft_model(2)
    k = comodule_algebra_K(2, 2, 0)
    rel = solve_adjoint(problem_for(model, k, {"ad1", "ad2", "ad3"}), with_structure=False)
    mreg = regular_module(k.algebra)
    rep = dinaturality_sample(rel, mreg, regular_module(model.t_hopf.algebra))
    assert rep.ok, [c.claim_id for c in rep.failures()]
    rep = dinaturality_sample(rel, mreg, trivial_module(model.t_hopf))
    assert rep.ok, [c.claim_id for c in rep.failures()]
    record("criterion 10: dinaturality sampling", True,
           "regular and collapsed instances")
