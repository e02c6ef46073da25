"""Golden SHA-256 digests of canonical output.

The digests pin the bytes of the canonical JSON that the CLI writes and
that `emit_json` produces for reports on deliberately corrupted inputs,
so that refactors of the checkers cannot change a claim id, a status or
a witness unnoticed.  Passing runs carry no witnesses; the corrupted
inputs make the checkers report the first failing basis tuple.

Only change a digest when an output is meant to change, and say why in
the commit message.
"""

import dataclasses
import hashlib

import pytest

from hopfadjoint.adjoint import (
    AdjointAlgebra,
    condition_system,
    dinaturality_sample,
    phi_structure_transport,
    problem_for,
    solve_adjoint,
    verify_braided_commutative,
    verify_center_algebra,
    verify_conditions_direct,
    verify_relative_center,
    verify_yd,
)
from hopfadjoint.braided_adjoint import (
    HAdjoint,
    build_h_ad,
    pi_dinatural_check,
    regular_case_iso,
    verify_h_ad,
)
from hopfadjoint.braiding import (
    ComoduleAlgebra,
    ModuleRep,
    RMatrix,
    check_comodule_algebra,
    check_module,
    check_rmatrix,
    check_yd,
    regular_module,
    trivial_module,
)
from hopfadjoint.cli import cli_main
from hopfadjoint.constructions import (
    BraidedHopf,
    bosonization,
    braided_line,
    check_braided_hopf,
    check_hopf_morphism,
    comodule_algebra_K,
    group_algebra_cn,
    regular_comodule_algebra,
    taft_model,
    taft_presentation_check,
)
from hopfadjoint.cyclotomic import zeta_power
from hopfadjoint.hopf import (
    FinDimAlgebra,
    FinDimCoalgebra,
    FinDimHopf,
    check_algebra,
    check_bialgebra,
    check_hopf,
)
from hopfadjoint.linalg import Matrix, SubspaceBasis, kernel_basis, sorted_terms
from support import (_hom_columns, emit_bytes, hom_conditions_direct, perturbed_taft, sparse_maps,
                     trivial_r_matrix)

ADJOINT_N2 = ["adjoint", "--n", "2", "--d", "2", "--xi", "0"]

CLI_DIGESTS = {
    "taft-n3": (
        ["taft", "--n", "3"],
        0,
        "34cbf66e5298d5bae5d08ff384d15d071882b0c04fbdf4d9c88f7655e4e7ab2c",
    ),
    "adjoint-ad1-ad3": (
        ADJOINT_N2 + ["--conditions", "ad1,ad3"],
        0,
        "2fbf12cb4f64f2e34c703c7ab5891763c9cb34922feab98eb8af7397fb34accd",
    ),
    "adjoint-ad1-ad2-ad3": (
        ADJOINT_N2 + ["--conditions", "ad1,ad2,ad3"],
        0,
        "0896619e1e54a3d67108e6a891a2dc4b1ea5b8aeaafed2c1490135cc4654f4a7",
    ),
    "adjoint-n3-K(3,0)-ad1-ad3": (
        ["adjoint", "--n", "3", "--d", "3", "--xi", "0", "--conditions", "ad1,ad3"],
        0,
        "b32b222aa69401dd20afbbb89b95c79c57b3895a0badd477c338a1b770a7886e",
    ),
    "adjoint-n3-K(1,1)-ad1-ad2-ad3": (
        ["adjoint", "--n", "3", "--d", "1", "--xi", "1", "--conditions", "ad1,ad2,ad3"],
        0,
        "814b221dd76d0ba3cedc06a95b58d2a78cda741909abcf584aa29379faaff8b2",
    ),
    "braided-adjoint-n2": (
        ["braided-adjoint", "--n", "2"],
        0,
        "a631034d3b021e2580d4bba126ffe0815f109cf91501fe519f7c961d9a49d59d",
    ),
    "verify-all-n1-n2": (
        ["verify", "--suite", "all", "--n", "1,2"],
        0,
        "054d9263f836cd78a2a22f02d890b720a8c156873e55b7d0a8a0a644f979489b",
    ),
    # dense dim-16 product and coproduct tables
    "taft-n4": (
        ["taft", "--n", "4"],
        0,
        "a058486ebf7015e74522700022a61bbb57f08abc019e7d8ce758fad1321f61a1",
    ),
    # Q(zeta_5) has degree 4: the generic multiplication and inverse
    "taft-n5": (
        ["taft", "--n", "5"],
        0,
        "b8f27fb5971ccf4ae7231779c3b90803339de8e92c698727c971f55123befafb",
    ),
    # Phi_6 = x^2 - x + 1: the only degree-2 field with a nonzero linear term
    "taft-n6": (
        ["taft", "--n", "6"],
        0,
        "94ba74a814c92273f1831ec2464e6da822834382deb79b0d69f78289b3b064e4",
    ),
    # Q(zeta_7) has degree 6: the first pinned field with reduction rows up to x^10
    "taft-n7": (
        ["taft", "--n", "7"],
        0,
        "e39e97f4210f68775ee05e4a5eabc36a3864e2ab836a72880d23b017309851e4",
    ),
    # regular(3) with ad1,ad2,ad3, K(1,0) and K(3,0) with transport, chi0, and
    # dinaturality on the fully-constrained K(3,0)
    "verify-adjoint-n3": (
        ["verify", "--suite", "adjoint", "--n", "3"],
        0,
        "40f4ed524cb62698e36be9dbbe49dd86cd4bb6e1a86f6d9b1a4e877bb090e4b1",
    ),
    # the largest reduced system at n = 4: 1,536 x 256
    "adjoint-n4-K(4,0)-ad1-ad2-ad3": (
        ["adjoint", "--n", "4", "--d", "4", "--xi", "0", "--conditions", "ad1,ad2,ad3"],
        0,
        "981f0559ac8f58bd865b0fe4ba38912972f730170c5bf8ec74a0cb0f90106428",
    ),
    # structure maps, Hom-space checkers and transport at n = 4
    "adjoint-n4-K(2,1)-ad1-ad3": (
        ["adjoint", "--n", "4", "--d", "2", "--xi", "1", "--conditions", "ad1,ad3"],
        0,
        "77761bce7ec37cb301640860d96b0a99e87f6bb85b264ce5b4fd7bdc2f21a523",
    ),
    # the module-n4 benchmark's other job: K(1, 0) has the largest Hom-space checks
    "adjoint-n4-K(1,0)-ad1-ad3": (
        ["adjoint", "--n", "4", "--d", "1", "--xi", "0", "--conditions", "ad1,ad3"],
        0,
        "6c4c31b40fdf2c76d244970ddd959834f0f759d3cf4d6e4aaf8e85400a2885bb",
    ),
    # the fully-constrained variant over Q(zeta_5), degree 4
    "adjoint-n5-K(1,1)-ad1-ad2-ad3": (
        ["adjoint", "--n", "5", "--d", "1", "--xi", "1", "--conditions", "ad1,ad2,ad3"],
        0,
        "f232e87bb140b5c5cedf8c5163b50cb545a858f7ab86b5c1d3b2d63151984ad6",
    ),
    # the fully-constrained variant at n = 6, over Q(zeta_6)
    "adjoint-n6-K(3,0)-ad1-ad2-ad3": (
        ["adjoint", "--n", "6", "--d", "3", "--xi", "0"],
        0,
        "b50d8bae9119ac1087042e599a6d8c179caa8d9299d4e4770ce0c2fd94cc91a3",
    ),
    # a module variant with large emission: dim 36, 1.87 MB of JSON
    "adjoint-n6-K(1,0)-ad1-ad3": (
        ["adjoint", "--n", "6", "--d", "1", "--xi", "0", "--conditions", "ad1,ad3"],
        0,
        "eac9813e22fbe66e774bcb48b237d5e2b1cb6aeebdaa024f0d91b9f1be519845",
    ),
    # H_ad checks, dinaturality and the relative-regular comparison at n = 4
    "braided-adjoint-n4": (
        ["braided-adjoint", "--n", "4"],
        0,
        "c72d024d18215dbab887edf73810b81bcd4c0313c6b3383a5bc0fd499868da1f",
    ),
    # gamma-invertible kernels and the half-braidings at q != q^-1
    "braided-adjoint-n3": (
        ["braided-adjoint", "--n", "3"],
        0,
        "db05d7e9206ae0aa82a39fc7cd5c6e2167a41faa70663f4e5c80f5a6334b0a9c",
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_output_digest(name, tmp_path):
    argv, exit_code, expected = CLI_DIGESTS[name]
    out = tmp_path / "out.json"
    assert cli_main(argv + ["--out", str(out)]) == exit_code
    assert _digest(out.read_bytes()) == expected


# -- reports on corrupted inputs ------------------------------------------


def yd_with_transposed_action():
    """The action of x # 1 transposed: not a Yetter-Drinfeld module."""
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad3"}))
    mutated = list(alg.module.action)
    mutated[2] = mutated[2].transpose()
    return check_yd(m.taft, ModuleRep(m.taft.algebra, alg.dim, mutated), alg.comodule)


def comodule_algebra_with_dropped_term():
    """lambda(w) of K(2, 1) without its g x w term."""
    k = comodule_algebra_K(2, 2, 1)
    m = taft_model(2)
    w = k.index(0, 1)
    coaction = list(k.coaction)
    coaction[w] = [t for t in coaction[w] if t[:2] != (m.x_index(0, 1), w)]
    return check_comodule_algebra(ComoduleAlgebra(m.taft, k.algebra, coaction, name="broken"))


def pi_dinatural_with_scrambled_module():
    """The regular Taft module with the actions of g and x swapped."""
    m = taft_model(2)
    x = regular_module(m.taft.algebra)
    acts = list(x.action)
    acts[1], acts[2] = acts[2], acts[1]
    return pi_dinatural_check(build_h_ad(m), ModuleRep(m.taft.algebra, x.dim, acts),
                              regular_module(m.t_hopf.algebra))


def _bosonization_with_trivial_r():
    t = group_algebra_cn(2)
    return bosonization(braided_line(2), t, trivial_r_matrix(t))


def presentation_with_trivial_r():
    return taft_presentation_check(_bosonization_with_trivial_r(), 2)


def bialgebra_with_trivial_r():
    b = _bosonization_with_trivial_r()
    return check_bialgebra(b.algebra, b.coalgebra)


def adjoint_structure_with_swapped_action():
    """The solved module variant over K(2, 0) with the actions of g and
    x swapped: the Yetter-Drinfeld and centre-algebra suites fail."""
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad3"}))
    alg.module.action[1], alg.module.action[2] = alg.module.action[2], alg.module.action[1]
    rep = verify_yd(alg)
    verify_center_algebra(alg, rep)
    verify_braided_commutative(alg, rep)
    return rep


def _reversed(m: Matrix) -> Matrix:
    return Matrix(m.ctx, m.rows, m.cols,
                  [(m.rows - 1 - i, m.cols - 1 - j, c) for i, j, c in m.terms()])


def _reversed_coaction(coaction, nh: int):
    """The coaction whose (nh * n) x n matrix, rows y * n + i, is that of
    coaction with its entries in reverse order."""
    n = len(coaction)
    return [sorted((nh - 1 - y, n - 1 - i, c) for y, i, c in terms)
            for terms in reversed(coaction)]


def hopf_with_perturbed_constants():
    return check_hopf(perturbed_taft())


def rmatrix_one_tensor_g():
    """R = 1 x g over kC_3: invertible, but not quasitriangular."""
    t = group_algebra_cn(3)
    element = [t.ctx.zero()] * 9
    element[1] = t.ctx.one()
    return check_rmatrix(RMatrix(t, element))


def conditions_against_a_larger_problem():
    """The module-variant solutions and the whole Hom-space, checked
    against the fully-constrained conditions."""
    m = taft_model(2)
    k = comodule_algebra_K(2, 2, 0)
    relative = problem_for(m, k, {"ad1", "ad2", "ad3"})
    module = solve_adjoint(problem_for(m, k, {"ad1", "ad3"}), with_structure=False)
    rep = verify_conditions_direct(relative, module.bar_terms)
    hom = kernel_basis(condition_system(dataclasses.replace(relative, conditions=frozenset())))
    return hom_conditions_direct(relative, [_hom_columns(relative, alpha) for alpha in hom.rows], rep,
                                 prefix="hom")


def transport_with_scrambled_structure():
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad3"}))
    alg.module.action[1], alg.module.action[2] = alg.module.action[2], alg.module.action[1]
    alg.comodule.coaction = _reversed_coaction(alg.comodule.coaction, m.taft.dim)
    alg.algebra.mult = list(reversed(alg.algebra.mult))
    return phi_structure_transport(alg)


def relative_center_with_reversed_coaction():
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, regular_comodule_algebra(2), {"ad1", "ad2", "ad3"}))
    alg.comodule.coaction = _reversed_coaction(alg.comodule.coaction, m.taft.dim)
    return verify_relative_center(alg, regular_module(m.t_hopf.algebra))


def braided_adjoint_with_swapped_action():
    """H_ad with the actions of g and x swapped, and a scrambled
    relative-regular solution compared with it."""
    m = taft_model(2)
    had = build_h_ad(m)
    acts = list(had.ht_module.action)
    acts[1], acts[2] = acts[2], acts[1]
    bad = HAdjoint(m, had.rho_ad, ModuleRep(m.taft.algebra, had.dim, acts))
    rep = verify_h_ad(bad, {"regular": regular_module(m.taft.algebra),
                            "trivial": trivial_module(m.taft)})
    alg = solve_adjoint(problem_for(m, regular_comodule_algebra(2), {"ad1", "ad2", "ad3"}))
    alg.algebra.mult = list(reversed(alg.algebra.mult))
    alg.algebra.unit = [(alg.dim - 1 - i, c) for i, c in reversed(alg.algebra.unit)]
    alg.comodule.coaction = _reversed_coaction(alg.comodule.coaction, m.taft.dim)
    return regular_case_iso(alg, bad, rep)


def line_and_projection_corrupted():
    """The braided line at n = 3 with kC_3 acting trivially, and the
    projection with its entries reversed."""
    line = braided_line(3)
    ctx = line.ctx
    trivial = ModuleRep(line.t_hopf.algebra, 3, [Matrix.identity(ctx, 3)] * 3)
    rep = check_braided_hopf(BraidedHopf(line.algebra, line.coalgebra, trivial,
                                         line.braided_antipode, line.t_hopf, line.rmatrix))
    m = taft_model(3)
    return check_hopf_morphism(m.taft, m.t_hopf, _reversed(m.pi), rep)


def late_map_entry_and_action_entry_corrupted():
    """One entry of the last Hom-space map and one entry of the last
    action matrix of the module variant over K(2, 0) shifted by one: the
    first ad1 and product-module-morphism witnesses are late tuples, so
    the digest pins the loop order of both checkers."""
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad3"}))
    one = alg.ctx.one()
    maps = sparse_maps(alg)
    u = (3 * 4 + 2) * 4 + 3  # alpha_3(e_3, e_2), coefficient of e_3
    maps[3][u] = maps[3].get(u, alg.ctx.zero()) + one
    rep = hom_conditions_direct(alg.problem, [_hom_columns(alg.problem, alpha) for alpha in maps])
    act = alg.module.action[3]
    alg.module.action[3] = act + Matrix(alg.ctx, act.rows, act.cols, [(3, 3, one)])
    verify_yd(alg, rep)
    verify_center_algebra(alg, rep)
    return rep


def late_product_unit_and_coaction_corrupted():
    """The module variant over K(2, 0) with the products a_3 a_3 and
    a_3 * 1 and the last coaction term of a_3 shifted: associativity, the
    unit laws and the comodule-morphism claim of the centre-algebra suite
    each fail first at a late tuple, so the digest pins their loop order."""
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(2, 2, 0), {"ad1", "ad3"}))
    one = alg.ctx.one()
    last = alg.dim - 1
    for j in (last, 0):
        acc = dict(alg.algebra.mult[last][j])
        acc[last] = acc.get(last, alg.ctx.zero()) + one
        alg.algebra.mult[last][j] = sorted_terms(acc)
    *head, (y, v, c) = alg.comodule.coaction[last]
    alg.comodule.coaction = alg.comodule.coaction[:last] + [head + [(y, v, c + c)]]
    return verify_center_algebra(alg)


def late_tuples_at_n3_corrupted():
    """At n = 3: the Taft algebra with the product of its last basis element
    with itself set to that element, and again with the last coproduct term
    of that element doubled; its regular module with one entry of the last
    action matrix shifted; and the module variant over K(3, 0) with one entry
    of the last Hom-space map, one entry of the last action matrix and the
    last coaction term shifted.  The first witnesses of associativity,
    comult-multiplicative (a tensor index among several differing keys),
    action-multiplicative, ad1, Yetter-Drinfeld compatibility and the
    centre algebra's module and comodule morphism claims are late tuples."""
    m = taft_model(3)
    h = m.taft
    ctx = h.ctx
    one = ctx.one()
    last = h.dim - 1
    mult = [list(row) for row in h.algebra.mult]
    mult[last][last] = [(last, one)]
    rep = check_hopf(FinDimHopf(FinDimAlgebra(ctx, h.dim, mult, h.algebra.unit), h.coalgebra, h.antipode),
                     prefix="late-product")
    comult = list(h.coalgebra.comult)
    *head, (j, k, c) = comult[last]
    comult[last] = head + [(j, k, c + c)]
    check_hopf(FinDimHopf(h.algebra, FinDimCoalgebra(ctx, h.dim, comult, h.coalgebra.counit), h.antipode),
               rep, prefix="late-coproduct")
    acts = list(regular_module(h.algebra).action)
    acts[last] = acts[last] + Matrix(ctx, h.dim, h.dim, [(last, last, one)])
    check_module(ModuleRep(h.algebra, h.dim, acts), rep, prefix="late-action")
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(3, 3, 0), {"ad1", "ad3"}))
    maps = sparse_maps(alg)
    u = alg.NH * alg.NK * alg.NK - 1  # alpha_last(e_last, e_last), coefficient of e_last
    maps[-1][u] = maps[-1].get(u, ctx.zero()) + one
    hom_conditions_direct(alg.problem, [_hom_columns(alg.problem, alpha) for alpha in maps], rep)
    act = alg.module.action[-1]
    alg.module.action[-1] = act + Matrix(ctx, act.rows, act.cols, [(alg.dim - 1, alg.dim - 1, one)])
    *head, (y, v, c) = alg.comodule.coaction[-1]
    alg.comodule.coaction = alg.comodule.coaction[:-1] + [head + [(y, v, c + c)]]
    verify_yd(alg, rep)
    return verify_center_algebra(alg, rep)


def dinaturality_without_comodule_condition():
    m = taft_model(2)
    k = comodule_algebra_K(2, 2, 0)
    module = solve_adjoint(problem_for(m, k, {"ad1", "ad3"}), with_structure=False)
    return dinaturality_sample(module, regular_module(k.algebra), regular_module(m.t_hopf.algebra))


def taft_with_unit_e1():
    """The Taft algebra at n = 2 with unit e_1 = 1 # g, as an algebra
    and as the host of its regular module."""
    h = taft_model(2).taft
    alg = FinDimAlgebra(h.ctx, h.dim, h.algebra.mult, [(1, h.ctx.one())])
    rep = check_algebra(alg)
    return check_module(ModuleRep(alg, h.dim, regular_module(h.algebra).action), rep)


def line_with_non_multiplicative_action():
    """The braided line at n = 3 with g^b acting on every x^a, a >= 1, by
    q^b: a T-action that is not by algebra maps."""
    line = braided_line(3)
    ctx = line.ctx
    action = [Matrix(ctx, 3, 3, [(a, a, zeta_power(ctx, b if a else 0)) for a in range(3)])
              for b in range(3)]
    return check_braided_hopf(BraidedHopf(line.algebra, line.coalgebra,
                                          ModuleRep(line.t_hopf.algebra, 3, action),
                                          line.braided_antipode, line.t_hopf, line.rmatrix))


def _relabelled(h: FinDimHopf, i: int, j: int) -> FinDimHopf:
    """h with basis indices i and j exchanged."""
    s = list(range(h.dim))
    s[i], s[j] = j, i
    mult = [[None] * h.dim for _ in range(h.dim)]
    for a, row in enumerate(h.algebra.mult):
        for b, terms in enumerate(row):
            mult[s[a]][s[b]] = sorted((s[k], c) for k, c in terms)
    comult = [None] * h.dim
    for a, terms in enumerate(h.coalgebra.comult):
        comult[s[a]] = sorted((s[p], s[q], c) for p, q, c in terms)
    unit = sorted((s[k], c) for k, c in h.algebra.unit)
    counit = [None] * h.dim
    for a in range(h.dim):
        counit[s[a]] = h.coalgebra.counit[a]
    antipode = Matrix(h.ctx, h.dim, h.dim, [(s[r], s[c], x) for r, c, x in h.antipode.terms()])
    return FinDimHopf(FinDimAlgebra(h.ctx, h.dim, mult, unit),
                      FinDimCoalgebra(h.ctx, h.dim, comult, counit), antipode)


def taft_with_relabelled_basis():
    """The Taft algebra at n = 2 with g and x exchanged, and with 1 and g
    exchanged, against the presentation that reads g at index 1 and x at
    index 2."""
    h = taft_model(2).taft
    rep = taft_presentation_check(_relabelled(h, 1, 2), 2, prefix="taft-g-x")
    return taft_presentation_check(_relabelled(h, 0, 1), 2, rep, prefix="taft-1-g")


def _with_repeated_row(alg: AdjointAlgebra) -> AdjointAlgebra:
    """alg with the last abar basis vector replaced by the first, and its
    structure maps as they were."""
    b = alg.basis
    out = AdjointAlgebra(alg.problem, SubspaceBasis(b.ctx, b.ambient_dim,
                                                    b.rows[:-1] + [b.rows[0]], b.pivots))
    out.algebra, out.comodule = alg.algebra, alg.comodule
    out.module = ModuleRep(alg.module.host, alg.dim, list(alg.module.action))
    return out


def transport_at_m3_with_repeated_row():
    """The module variant over K(1, 0) at n = 3 (m = 3) with the actions
    of g and x swapped and one abar basis vector repeated."""
    m = taft_model(3)
    alg = _with_repeated_row(solve_adjoint(problem_for(m, comodule_algebra_K(3, 1, 0), {"ad1", "ad3"})))
    alg.module.action[1], alg.module.action[3] = alg.module.action[3], alg.module.action[1]
    return phi_structure_transport(alg)


def transport_with_late_x_action():
    """The module variant over K(1, 0) at n = 2 (m = 2) with the action
    of x # 1 on the last basis element shifted by that element: the one
    x-action failure is the last (basis, component) tuple, so the scan
    must run to its end for the digest to hold."""
    m = taft_model(2)
    alg = solve_adjoint(problem_for(m, comodule_algebra_K(2, 1, 0), {"ad1", "ad3"}))
    last = alg.dim - 1
    act = alg.module.action[2]  # x # 1 sits at index 1*n + 0
    alg.module.action[2] = act + Matrix(alg.ctx, act.rows, act.cols, [(last, last, alg.ctx.one())])
    return phi_structure_transport(alg)


def regular_case_with_repeated_row():
    """The relative-regular solution at n = 2 with one abar basis vector
    repeated and the actions of g and x swapped."""
    m = taft_model(2)
    alg = _with_repeated_row(solve_adjoint(problem_for(m, regular_comodule_algebra(2),
                                                       {"ad1", "ad2", "ad3"})))
    alg.module.action[1], alg.module.action[2] = alg.module.action[2], alg.module.action[1]
    return regular_case_iso(alg, build_h_ad(m))


def rmatrices_and_line_with_cyclic_action():
    """R = g x 1 over kC_3, which fails comult-right and
    antipode-right-inverse; R = g x g over the Taft algebra at n = 2, g
    at index 1, which fails almost-cocommutative; and the braided line at
    n = 3 with kC_3 acting by the cyclic permutation of its basis, which
    fails coproduct-t-equivariant."""
    t = group_algebra_cn(3)
    element = [t.ctx.zero()] * 9
    element[1 * 3 + 0] = t.ctx.one()
    rep = check_rmatrix(RMatrix(t, element), prefix="kc3-rmatrix")
    h = taft_model(2).taft
    element = [h.ctx.zero()] * 16
    element[1 * 4 + 1] = h.ctx.one()
    check_rmatrix(RMatrix(h, element), rep, prefix="taft2-rmatrix")
    line = braided_line(3)
    ctx = line.ctx
    cyclic = [Matrix(ctx, 3, 3, [((a + b) % 3, a, ctx.one()) for a in range(3)]) for b in range(3)]
    return check_braided_hopf(BraidedHopf(line.algebra, line.coalgebra, ModuleRep(line.t_hopf.algebra, 3, cyclic),
                                          line.braided_antipode, line.t_hopf, line.rmatrix), rep)


REPORT_DIGESTS = {
    yd_with_transposed_action:
        "5ddbbe94a74772d0ffb475e7e34da006926fa0ac4b513e48c7ccfbc7f33344e4",
    comodule_algebra_with_dropped_term:
        "3070eca031b151963c0c0df437cebb80fe9ed62f8bb3f7f9ccc94d030189f9a5",
    pi_dinatural_with_scrambled_module:
        "94e58174b4de445979b8cfb66a99f6e725dbdaf3cf61e829c2c6fa9688a9ff74",
    presentation_with_trivial_r:
        "d8c8ac7a1d10b832852c8f6fc61be43360cb0b27e8a3e23b68cec3ecce480780",
    bialgebra_with_trivial_r:
        "dd90fb85c1c4dd2345cc5db29afdcc3b78c739042bc44b516c1f89979173dfa0",
    adjoint_structure_with_swapped_action:
        "b1f3b5c870913f2a636f2b0cf30654a56ad277c5d472863a3a866caa1a5cab42",
    hopf_with_perturbed_constants:
        "80b57d8c99a6e09b1b8dac3877783735f4b832b9b7b2b80148793dcb509ae2e1",
    rmatrix_one_tensor_g:
        "e0b0aab5eb935a52bef3682ab0e98c3da6014afbe4d927c5950d01231421140b",
    conditions_against_a_larger_problem:
        "5333cb650b72b65bf67360f05f67b40d072fa3e3d52cff1776a116128bee804f",
    transport_with_scrambled_structure:
        "92fb98750d5497b8e7bc1a6c8b8afde49740ee8cea9df152752121dc4364012c",
    relative_center_with_reversed_coaction:
        "e82c9c2570984f5592e85a31126b6908a21d2e452a018423586fa38ebf67f422",
    braided_adjoint_with_swapped_action:
        "43048a6f6d4bc4f7d8caf30eccf39a9779bc7438ec1850b17684c901145841dc",
    line_and_projection_corrupted:
        "d44756ee5140b92665e05f85396e4de24ac41d693cf1e85867ed01d85457425a",
    late_map_entry_and_action_entry_corrupted:
        "a29df411e03108794ed75c7c8bf16e8216c7ba05a5256e6bf502e7fa1c7218bf",
    late_product_unit_and_coaction_corrupted:
        "1add8cc03480606c77493c698b48aa6d0e201794db1dad63bd6a9db7b4610722",
    late_tuples_at_n3_corrupted:
        "32194b538d67dfc1807b2cbcc72845e7de999c890f5ed244804eee92ebc79f4f",
    dinaturality_without_comodule_condition:
        "0ee8e76c65a9217fc51d8ee86276833c329ef921b4ae32bb1bc8e9275448f797",
    taft_with_unit_e1:
        "368e70fcf8cee44337c9c859cc6628605434826e0fae467420b10db1163c6828",
    line_with_non_multiplicative_action:
        "725af6b4a758d9cee609644f8f94928f12ba08f2517981cba7c0d4bbf8fe69f1",
    taft_with_relabelled_basis:
        "bc402905ee444cb1f7e6fdbeded1d9de56404177d93312ac6de03470e882e4da",
    transport_at_m3_with_repeated_row:
        "e9e539b8d563ba448eb9bd6adb90f73f5f25af6c3980601c2995ef65c6dbf1d9",
    transport_with_late_x_action:
        "c8c69f914ad718dad42cf1ad95ff3bec399cca56a1df6accbedb004bd58c4c1e",
    regular_case_with_repeated_row:
        "8b08c9bcecd0303c1213758948b132810681640de786d9de738d461ade88fe7f",
    rmatrices_and_line_with_cyclic_action:
        "1332b70ee2a4a35274436b341091af0153add4173d7d2e172af9f58ab32c5f84",
}


@pytest.mark.parametrize("build", list(REPORT_DIGESTS), ids=lambda f: f.__name__)
def test_corrupted_input_report_digest(build):
    rep = build()
    assert not rep.ok
    assert _digest(emit_bytes(rep)) == REPORT_DIGESTS[build]
