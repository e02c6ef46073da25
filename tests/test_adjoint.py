import dataclasses

import pytest

from math import gcd

from hopfadjoint.braiding import ComoduleAlgebra, ModuleRep, check_yd, regular_module, trivial_module
from hopfadjoint.constructions import comodule_algebra_K, regular_comodule_algebra, taft_model
from hopfadjoint.adjoint import (
    VARIANTS,
    AdjointAlgebra,
    ClosureFailure,
    chi0_crosscheck,
    condition_system,
    condition_system_reduced,
    connectedness,
    dinaturality_failures,
    dinaturality_sample,
    invariant_coinvariant_dim,
    phi_structure_transport,
    problem_for,
    solve_adjoint,
    verify_braided_commutative,
    verify_center_algebra,
    verify_conditions_direct,
    verify_relative_center,
    verify_yd,
)
from hopfadjoint.hopf import FinDimAlgebra
from hopfadjoint.linalg import Matrix, SubspaceBasis, coords_of_terms, kernel_basis, lincomb
from hopfadjoint.reports import emit_json
from support import (_hom_columns, coideal_comodule_algebra, full_pipeline_basis, trivial_comodule_algebra,
                     trivial_r_matrix)


def test_empty_conditions_give_full_hom_space():
    m = taft_model(2)
    k = comodule_algebra_K(2, 2, 0)
    p = dataclasses.replace(problem_for(m, k, {"ad1", "ad3"}), conditions=frozenset())
    system = condition_system(p)
    assert system.rows == 0
    assert kernel_basis(system).dim == m.taft.dim * k.dim * k.dim


def test_trivial_k_without_comodule_condition_is_full_dual():
    for n in (2, 3):
        m = taft_model(n)
        k1 = trivial_comodule_algebra(n)
        alg = solve_adjoint(problem_for(m, k1, {"ad1", "ad3"}), with_structure=False)
        assert alg.dim == n * n


def test_trivial_k_with_trivial_r_keeps_full_dual():
    # the comodule condition trivialises when the problem's R is 1 x 1
    for n in (2, 3):
        m = taft_model(n)
        k1 = trivial_comodule_algebra(n)
        p = dataclasses.replace(problem_for(m, k1, {"ad1", "ad2", "ad3"}),
                                rmatrix=trivial_r_matrix(m.t_hopf))
        alg = solve_adjoint(p, with_structure=False)
        assert alg.dim == n * n


# comodule algebras by name: (n, builder)
COMODULE_ALGEBRAS = {
    "K(2,2,0)": (2, lambda: comodule_algebra_K(2, 2, 0)),
    "K(2,2,1)": (2, lambda: comodule_algebra_K(2, 2, 1)),
    "K(3,1,1)": (3, lambda: comodule_algebra_K(3, 1, 1)),
    "K(3,3,0)": (3, lambda: comodule_algebra_K(3, 3, 0)),
    "regular(2)": (2, lambda: regular_comodule_algebra(2)),
}


@pytest.mark.parametrize("conds", ["ad1,ad3", "ad1,ad2,ad3"])
@pytest.mark.parametrize("name", ["K(2,2,0)", "K(2,2,1)", "regular(2)", "K(3,1,1)", "K(3,3,0)"])
def test_full_and_reduced_pipelines_agree(name, conds):
    n, build = COMODULE_ALGEBRAS[name]
    p = problem_for(taft_model(n), build(), conds.split(","))
    a = solve_adjoint(p, with_structure=False)
    b = full_pipeline_basis(p)
    assert a.basis.dim == b.dim
    assert a.basis.pivots == b.pivots
    assert a.basis.rows == b.rows
    # spread over the Hom-space, the abar basis is the full kernel's echelon basis
    assert ([a.hom_columns(i) for i in range(a.dim)]
            == [_hom_columns(p, row) for row in kernel_basis(condition_system(p)).rows])
    if name == "K(2,2,0)":
        # with structure maps, both algebras emit the same canonical JSON
        full = AdjointAlgebra(p, b)
        full.compute_structure()
        a.compute_structure()
        assert emit_json(a) == emit_json(full)


def test_reduced_requires_right_multiplicativity():
    # the reduced system solves the two variants only
    p = problem_for(taft_model(2), comodule_algebra_K(2, 2, 0), {"ad1", "ad3"})
    with pytest.raises(ValueError):
        condition_system_reduced(dataclasses.replace(p, conditions=frozenset({"ad1"})))


@pytest.mark.parametrize("n,d,xi", [(2, 1, 0), (2, 2, 0), (2, 2, 1), (3, 1, 0), (3, 3, 0)])
def test_module_variant_dimension_is_n_squared(n, d, xi):
    m = taft_model(n)
    k = comodule_algebra_K(n, d, xi)
    alg = solve_adjoint(problem_for(m, k, {"ad1", "ad3"}), with_structure=False)
    assert alg.dim == n * n


@pytest.mark.parametrize("n", [2, 3])
def test_relative_regular_dimension_is_n(n):
    m = taft_model(n)
    alg = solve_adjoint(problem_for(m, regular_comodule_algebra(n), {"ad1", "ad2", "ad3"}),
                        with_structure=False)
    assert alg.dim == n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coideal_dimensions_follow_the_formula(n):
    # kC_d gives what K(d, xi) gives: n^2 for the module variant and
    # n * gcd(d, n/d) for the fully-constrained algebra
    m = taft_model(n)
    for d in (d for d in range(1, n + 1) if n % d == 0):
        k = coideal_comodule_algebra(n, d)
        module = solve_adjoint(problem_for(m, k, {"ad1", "ad3"}), with_structure=False)
        relative = solve_adjoint(problem_for(m, k, {"ad1", "ad2", "ad3"}), with_structure=False)
        assert (module.dim, relative.dim) == (n * n, n * gcd(d, n // d))


def test_monotonicity_relative_inside_module_variant():
    for (n, d, xi) in [(2, 1, 0), (2, 2, 0), (3, 3, 0)]:
        m = taft_model(n)
        k = comodule_algebra_K(n, d, xi)
        sh = solve_adjoint(problem_for(m, k, {"ad1", "ad3"}), with_structure=False)
        rel = solve_adjoint(problem_for(m, k, {"ad1", "ad2", "ad3"}), with_structure=False)
        for v in rel.basis.rows:
            assert coords_of_terms(v, sh.basis) is not None


def test_direct_condition_recheck_is_independent_of_solver():
    m = taft_model(2)
    k = comodule_algebra_K(2, 2, 1)
    alg = solve_adjoint(problem_for(m, k, {"ad1", "ad2", "ad3"}))
    assert verify_conditions_direct(alg.problem, alg.bar_terms).ok


def test_structural_verifications_small_grid():
    m = taft_model(2)
    k = comodule_algebra_K(2, 2, 0)
    alg = solve_adjoint(problem_for(m, k, {"ad1", "ad3"}))
    assert verify_yd(alg).ok
    assert verify_center_algebra(alg).ok
    rep = verify_braided_commutative(alg)
    assert rep.ok
    info = [c for c in rep.claims if "plain" in c.claim_id][0]
    assert info.witness == {"plain_commutative": False}


def test_relative_variant_happens_to_be_plainly_commutative():
    # the braiding acts trivially on the small fully-constrained
    # solution spaces, so plain commutativity holds there as well
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, regular_comodule_algebra(2), {"ad1", "ad2", "ad3"}))
    rep = verify_braided_commutative(alg)
    info = [c for c in rep.claims if "plain" in c.claim_id][0]
    assert info.witness == {"plain_commutative": True}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("conditions", VARIANTS, ids=["module", "fully-constrained"])
def test_solved_structure_is_read_where_it_is_stored(n, conditions):
    # the solved structure is one FinDimAlgebra, ModuleRep and ComoduleRep,
    # and the checks read those objects, not copies taken when they start
    p = problem_for(taft_model(n), comodule_algebra_K(n, n, 0), conditions)
    a = solve_adjoint(p)
    assert isinstance(a.algebra, FinDimAlgebra)
    assert a.module.host is p.hopf.algebra
    assert a.comodule.host is p.hopf.coalgebra
    assert verify_yd(a).ok and verify_center_algebra(a).ok

    action, g, x = a.module.action, 1, n  # g = 1 # g and x = x # 1
    action[g], action[x] = action[x], action[g]
    assert not verify_yd(a).ok
    action[g], action[x] = action[x], action[g]
    assert verify_yd(a).ok

    last, one = a.dim - 1, a.ctx.one()
    a.algebra.mult[last][last] = lincomb([(one, a.algebra.mult[last][last]), (one, [(last, one)])])
    assert not verify_center_algebra(a).ok


def test_unit_is_invariant_under_the_action():
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad3"}))
    eps = m.taft.coalgebra.counit
    for h in range(m.taft.dim):
        img = alg.module.action[h].apply_terms(alg.algebra.unit)
        assert img == ([] if eps[h].is_zero() else [(i, eps[h] * c) for i, c in alg.algebra.unit])


def test_mutated_action_fails_yd():
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad3"}))
    mutated = list(alg.module.action)
    mutated[2] = mutated[2].transpose()  # the action of x # 1 is not symmetric
    bad = ModuleRep(m.taft.algebra, alg.dim, mutated)
    rep = check_yd(m.taft, bad, alg.comodule)
    assert not rep.ok
    assert rep.failures()[0].witness == {"pair": [2, 2]}


def test_relative_center_identity_and_refusal():
    m = taft_model(2)
    k = comodule_algebra_K(2, 2, 0)
    rel = solve_adjoint(problem_for(m, k, {"ad1", "ad2", "ad3"}))
    assert verify_relative_center(rel, regular_module(m.t_hopf.algebra)).ok
    assert verify_relative_center(rel, trivial_module(m.t_hopf)).ok
    sh = solve_adjoint(problem_for(m, k, {"ad1", "ad3"}))
    with pytest.raises(ValueError):
        verify_relative_center(sh, regular_module(m.t_hopf.algebra))


def test_connectedness_one_on_solved_algebras():
    for (n, d, xi, conds) in [(2, 2, 0, {"ad1", "ad3"}), (2, 2, 0, {"ad1", "ad2", "ad3"}),
                              (3, 3, 0, {"ad1", "ad3"})]:
        m = taft_model(n)
        alg = solve_adjoint(problem_for(m, comodule_algebra_K(n, d, xi), conds))
        assert connectedness(alg) == 1


def test_connectedness_two_on_synthetic_direct_sum():
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad2", "ad3"}))
    n = alg.dim
    ctx = alg.ctx
    hopf = m.taft
    two = 2 * n
    action2 = []
    for h in range(hopf.dim):
        terms = alg.module.action[h].terms()
        action2.append(Matrix(ctx, two, two,
                              terms + [(n + r, n + c, e) for r, c, e in terms]))
    coaction = alg.comodule.coaction
    coaction2 = coaction + [[(y, n + r, e) for y, r, e in terms] for terms in coaction]
    assert invariant_coinvariant_dim(hopf, action2, coaction2) == 2


def test_closure_failure_on_truncated_basis():
    # keep a unital corner of the solution space that the coaction
    # still leaves: the closure machinery must refuse, with a witness
    m = taft_model(2)
    p = problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad3"})
    full = solve_adjoint(p, with_structure=False)
    keep = [0, 3]
    truncated = SubspaceBasis(full.basis.ctx, full.basis.ambient_dim,
                              [full.basis.rows[i] for i in keep],
                              tuple(full.basis.pivots[i] for i in keep))
    crippled = AdjointAlgebra(p, truncated)
    with pytest.raises(ClosureFailure) as err:
        crippled.compute_structure()
    assert str(err.value) == "coaction left the solution space"
    assert err.value.witness == {"basis": 1, "hopf_component": 3}


# the six condition sets outside the two variants
OTHER_CONDITIONS = [frozenset(c) for c in ((), ("ad1",), ("ad2",), ("ad1", "ad2"), ("ad3",), ("ad2", "ad3"))]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("conds", OTHER_CONDITIONS, ids=lambda c: ",".join(sorted(c)) or "none")
def test_other_condition_sets_give_no_braided_commutative_algebra(conds, d):
    # without ad3 the Hom-space kernel is not right-K-linear, so it carries
    # no structure maps; with ad3 but without ad1 the structure maps exist
    # and the product is not braided commutative
    p = dataclasses.replace(problem_for(taft_model(2), comodule_algebra_K(2, d, 0), {"ad1", "ad3"}),
                            conditions=conds)
    if "ad3" not in conds:
        with pytest.raises(ClosureFailure) as err:
            full_pipeline_basis(p)
        assert set(err.value.witness) == {"basis", "tuple"}
    else:
        alg = AdjointAlgebra(p, full_pipeline_basis(p))
        alg.compute_structure()
        failed = [c.claim_id for c in verify_braided_commutative(alg).failures()]
        assert failed == ["adjoint-braided/braided-commutative"]


@pytest.mark.parametrize("n,d,xi", [(2, 1, 0), (2, 2, 1), (3, 3, 0)])
def test_structure_transport_passes(n, d, xi):
    m = taft_model(n)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(n, d, xi), {"ad1", "ad3"}))
    rep = phi_structure_transport(alg)
    assert rep.ok, [c.claim_id for c in rep.failures()]
    conv = [c for c in rep.claims if c.claim_id.endswith("index-convention")][0]
    assert conv.witness["shifted_holds"] is True
    if (n, d) != (2, 2):
        # the unshifted reading only survives when m = 1 makes both agree
        assert conv.witness["unshifted_holds"] is False


def test_structure_transport_refuses_wrong_inputs():
    m = taft_model(2)
    rel = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad2", "ad3"}))
    with pytest.raises(ValueError):
        phi_structure_transport(rel)
    reg = solve_adjoint(problem_for(m, regular_comodule_algebra(2), {"ad1", "ad3"}))
    with pytest.raises(ValueError):
        phi_structure_transport(reg)


def test_chi0_crosscheck_dimensions():
    expect = {
        (1, 1, 0): (1, 1, 1),
        (2, 1, 0): (2, 1, 2),
        (2, 2, 0): (2, 2, 2),
    }
    for (n, d, xi), dims in expect.items():
        k = comodule_algebra_K(n, d, xi)
        rep = chi0_crosscheck(solve_adjoint(problem_for(taft_model(n), k, {"ad1", "ad2", "ad3"}),
                                            with_structure=False))
        assert rep.ok
        w = [c for c in rep.claims if c.claim_id.endswith("dims")][0].witness
        assert (w["relative_dim"], w["isotypic_K"], w["isotypic_tuple"]) == dims
        m = [c for c in rep.claims if "isomorphism" in c.claim_id][0].witness
        assert "tuple-algebra" in m["matches"]


def test_chi0_crosscheck_refuses_wrong_inputs():
    m = taft_model(2)
    module = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad3"}),
                           with_structure=False)
    with pytest.raises(ValueError):
        chi0_crosscheck(module)
    reg = solve_adjoint(problem_for(m, regular_comodule_algebra(2), {"ad1", "ad2", "ad3"}),
                        with_structure=False)
    with pytest.raises(ValueError):
        chi0_crosscheck(reg)


@pytest.mark.parametrize("n,d,xi", [(2, 2, 0), (3, 3, 0), (3, 1, 0)])
def test_dinaturality_samples(n, d, xi):
    # at n = 2, q = q^-1 makes R symmetric; n = 3 tells its legs apart
    m = taft_model(n)
    k = comodule_algebra_K(n, d, xi)
    rel = solve_adjoint(problem_for(m, k, {"ad1", "ad2", "ad3"}), with_structure=False)
    mreg = regular_module(k.algebra)
    assert dinaturality_sample(rel, mreg, regular_module(m.t_hopf.algebra)).ok
    assert dinaturality_sample(rel, mreg, trivial_module(m.t_hopf)).ok


def test_dinaturality_rejects_module_variant_element():
    # a module-variant solution outside the relative centre is not dinatural
    m = taft_model(3)
    k = comodule_algebra_K(3, 1, 0)
    module = solve_adjoint(problem_for(m, k, {"ad1", "ad3"}), with_structure=False)
    p = problem_for(m, k, {"ad1", "ad2", "ad3"})
    witness = next(dinaturality_failures(p, module.bar_terms[0], regular_module(k.algebra),
                                         regular_module(m.t_hopf.algebra)), None)
    assert witness is not None


def test_dinaturality_rejects_non_solution():
    m = taft_model(2)
    k = comodule_algebra_K(2, 2, 0)
    p = problem_for(m, k, {"ad1", "ad2", "ad3"})
    ctx = m.ctx
    fake = [[(0, ctx.one())] for _ in range(4)]
    witness = next(dinaturality_failures(p, fake, regular_module(k.algebra),
                                         regular_module(m.t_hopf.algebra)), None)
    assert witness is not None


def test_coaction_roundtrip_through_projection():
    # the projected coaction of every fully-constrained solution agrees
    # with the R-matrix twist of the action, which is exactly what the
    # double-braiding identity asserts against the regular module
    m = taft_model(3)
    alg = solve_adjoint(problem_for(m, regular_comodule_algebra(3), {"ad1", "ad2", "ad3"}))
    assert verify_relative_center(alg, regular_module(m.t_hopf.algebra)).ok


def test_problem_rejects_unknown_conditions():
    m = taft_model(2)
    k = comodule_algebra_K(2, 2, 0)
    for conds in [{"ad1", "ad9"}] + OTHER_CONDITIONS:
        with pytest.raises(ValueError):
            problem_for(m, k, conds)


@pytest.mark.parametrize("name,conds", [("K(2,2,1)", "ad1,ad3"),
                                        ("K(3,3,0)", "ad1,ad2,ad3"),
                                        ("regular(2)", "ad1,ad2,ad3")])
def test_generators_agree_with_exhaustive(name, conds):
    # the same K with no generators declared imposes ad1 on every basis element
    n, build = COMODULE_ALGEBRAS[name]
    m = taft_model(n)
    k = build()
    exhaustive = ComoduleAlgebra(k.hopf, k.algebra, k.coaction, name=k.name)
    p = problem_for(m, k, conds.split(","))
    q = problem_for(m, exhaustive, conds.split(","))
    assert condition_system_reduced(p).rows < condition_system_reduced(q).rows
    a = solve_adjoint(p, with_structure=False)
    b = solve_adjoint(q, with_structure=False)
    assert a.basis.pivots == b.basis.pivots
    assert a.basis.rows == b.basis.rows


def test_comodule_algebra_without_generators_reports_whole_basis():
    k = comodule_algebra_K(2, 2, 0)
    assert k.generators == [k.index(1, 0), k.index(0, 1)]
    assert ComoduleAlgebra(k.hopf, k.algebra, k.coaction).generators == list(range(k.dim))
    assert trivial_comodule_algebra(2).generators == [0]


def test_checkers_read_each_column_once(monkeypatch):
    # check_yd and verify_center_algebra read each column of an action
    # matrix or of the antipode at most once per check
    alg = solve_adjoint(problem_for(taft_model(3), comodule_algebra_K(3, 3, 0), {"ad1", "ad3"}))
    reads = []
    col_terms = Matrix.col_terms

    def counted(m, j):
        reads.append((id(m), j))
        return col_terms(m, j)

    monkeypatch.setattr(Matrix, "col_terms", counted)
    for check in (lambda: check_yd(alg.problem.hopf, alg.module, alg.comodule),
                  lambda: verify_center_algebra(alg)):
        reads.clear()
        assert check().ok
        assert reads and len(reads) == len(set(reads))
