"""The adjoint-representation algebra of the braided line inside its
braided module category, realised through the bosonization: carrier =
the line algebra, action = the braided adjoint action, half-braidings
built from the inverse braiding, all assembled by composing structure
matrices (no closed-form shortcuts)."""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import FieldContext, Scalar
from .braiding import (
    ModuleRep,
    braiding,
    check_module,
    dual_module,
    lift_via_pi,
    tensor_module,
    trivial_module,
    regular_module,
)
from .constructions import TaftModel
from .adjoint import AdjointAlgebra
from .linalg import Matrix, flip_legs, kernel_basis, kron, kron_sum, lincomb, nonzero, sparse_diff
from .reports import VerificationReport


@dataclass
class HAdjoint:
    """Carrier algebra with the braided adjoint action; the combined
    module over the bosonization is what category checks use."""

    model: TaftModel
    rho_ad: list[Matrix]          # one matrix per line-algebra basis element
    ht_module: ModuleRep          # combined module over the bosonization

    @property
    def ctx(self) -> FieldContext:
        return self.model.ctx

    @property
    def dim(self) -> int:
        return self.model.line.dim


def build_h_ad(model: TaftModel) -> HAdjoint:
    """rho_ad = m(m x id)(id x id x S)(id x sigma)(Delta x id)."""
    line = model.line
    ctx = model.ctx
    n = line.dim
    alg = line.algebra
    sigma = braiding(model.rmatrix, line.tmodule, line.tmodule)
    s_mat = line.braided_antipode

    s_cols = [s_mat.col_terms(j) for j in range(n)]
    rho_ad: list[Matrix] = []
    for h in range(n):
        terms = []
        for a in range(n):
            for h1, h2, c in line.coalgebra.comult[h]:
                for row, s in sigma.col_terms(h2 * n + a):
                    a2, h2p = row // n, row % n
                    v = alg.mult_terms(alg.mult[h1][a2], s_cols[h2p])
                    terms += [(r, a, c * s * x) for r, x in v]
        rho_ad.append(Matrix(ctx, n, n, terms))

    nt = model.t_hopf.dim
    ht_mats: list[Matrix] = []
    for ah in range(n):
        for bt in range(nt):
            ht_mats.append(rho_ad[ah] * line.tmodule.action[bt])
    ht_module = ModuleRep(model.taft.algebra, n, ht_mats)
    return HAdjoint(model, rho_ad, ht_module)


def t_restriction(model: TaftModel, x: ModuleRep) -> ModuleRep:
    """Restrict a bosonization module to the group algebra (t acts as 1#t)."""
    mats = [x.action[model.x_index(0, b)] for b in range(model.n)]
    return ModuleRep(model.t_hopf.algebra, x.dim, mats)


def half_braiding(had: HAdjoint, x: ModuleRep) -> Matrix:
    """gamma_X = (rho_X x id)(id x tau)(Delta x id): H_ad x X -> X x H_ad,
    where tau: H x X -> X x H inverts the braiding of the mirrored
    quasitriangular structure that the lifted modules carry; concretely
    tau(h x x) = R2.x x R1.h."""
    model = had.model
    line = model.line
    ctx = had.ctx
    n = had.dim
    dx = x.dim
    # the braiding H x X -> X x H, rows (x_out * n + h_out) and cols
    # (h * dx + xx), read by columns as the rows of its transpose
    inv = braiding(model.rmatrix, line.tmodule, t_restriction(model, x)).transpose()
    inv_cols = [inv.row_terms(j) for j in range(inv.rows)]
    act_cols = [[act.row_terms(j) for j in range(dx)]
                for act in (x.action[model.x_index(h1, 0)].transpose() for h1 in range(n))]
    terms = []
    for h in range(n):
        for xx in range(dx):
            for h1, h2, c in line.coalgebra.comult[h]:
                for row, s in inv_cols[h2 * dx + xx]:
                    x_mid, h_out = row // n, row % n
                    terms += [(x_out * n + h_out, h * dx + xx, c * s * e)
                              for x_out, e in act_cols[h1][x_mid]]
    return Matrix(ctx, dx * n, n * dx, terms)


def verify_h_ad(had: HAdjoint, modules: dict[str, ModuleRep],
                report: VerificationReport | None = None,
                prefix: str = "braided-adjoint") -> VerificationReport:
    """Module axioms for the combined action, morphism + hexagon +
    invertibility properties of the half-braidings, triviality of the
    double braiding against lifted group-algebra modules, and braided
    commutativity of the carrier product."""
    rep = report if report is not None else VerificationReport()
    model = had.model
    ctx = had.ctx
    n = had.dim
    taft = model.taft

    check_module(had.ht_module, rep, prefix=f"{prefix}/action")

    def gamma_invertible(gamma: Matrix, name: str):
        if kernel_basis(gamma).dim != 0:
            yield {"module": name}

    def gamma_equivariant(gamma: Matrix, name: str, x: ModuleRep):
        src = tensor_module(taft, had.ht_module, x)
        dst = tensor_module(taft, x, had.ht_module)
        for u in range(taft.dim):
            if gamma * src.action[u] != dst.action[u] * gamma:
                yield {"module": name, "hopf_index": u}

    def gamma_tensor_hexagon():
        names = sorted(modules)
        for nx in names:
            for ny in names:
                x, y = modules[nx], modules[ny]
                lhs = half_braiding(had, tensor_module(taft, x, y))
                rhs = (kron(Matrix.identity(ctx, x.dim), gammas[ny])
                       * kron(gammas[nx], Matrix.identity(ctx, y.dim)))
                if lhs != rhs:
                    yield {"pair": [nx, ny]}

    def double_braiding_trivial():
        for name, vt in (("trivial", trivial_module(model.t_hopf)),
                         ("regular", regular_module(model.t_hopf.algebra))):
            gv = lift_via_pi(taft, model.pi, vt)
            gamma = half_braiding(had, gv)
            dv = gv.dim
            # sigma_{G(V),H_ad}(v x a) = (1 # Rbar1).a x Rbar2.v, then compose
            comp = flip_legs(kron_sum([(cr, had.ht_module.action[model.x_index(0, i2)], vt.action[j2])
                                       for i2, j2, cr in model.rmatrix.inverse_terms]), dv, n)
            if comp * gamma != Matrix.identity(ctx, n * dv):
                yield {"module": name}

    def braided_commutative():
        gamma_self = half_braiding(had, had.ht_module)
        alg = model.line.algebra
        for i in range(n):
            for j in range(n):
                # gamma_self(e_i x e_j) = sum s e_jj x e_ii, multiplied out
                rhs = lincomb((s, alg.mult[row // n][row % n])
                              for row, s in gamma_self.col_terms(i * n + j))
                if rhs != alg.mult[i][j]:
                    yield {"pair": [i, j]}

    # each module's half-braiding, shared by its own checks and the hexagon
    gammas = {name: half_braiding(had, x) for name, x in modules.items()}
    for name, x in modules.items():
        rep.check(f"{prefix}/gamma-invertible/{name}", gamma_invertible(gammas[name], name))
        rep.check(f"{prefix}/gamma-equivariant/{name}", gamma_equivariant(gammas[name], name, x))
    rep.check(f"{prefix}/gamma-tensor-hexagon", gamma_tensor_hexagon())
    rep.check(f"{prefix}/double-braiding-trivial", double_braiding_trivial())
    rep.check(f"{prefix}/braided-commutative", braided_commutative())
    return rep


def _pi_x(had: HAdjoint, x: ModuleRep) -> Matrix:
    """pi_X = (rho_X x id)(id x coev): H_ad -> X x X*."""
    dx = x.dim
    return Matrix(had.ctx, dx * dx, had.dim, [(mo * dx + mm, h, e) for h in range(had.dim)
                                              for mo, mm, e in x.action[had.model.x_index(h, 0)].terms()])


def pi_dinatural_check(had: HAdjoint, x: ModuleRep, v: ModuleRep,
                       report: VerificationReport | None = None,
                       prefix: str = "pi-dinatural") -> VerificationReport:
    """One wedge instance for the family pi_X: with M := x and a
    group-algebra module v, both sides are maps
    H_ad -> M x (V* x V x M)* and must agree exactly."""
    rep = report if report is not None else VerificationReport()
    model = had.model
    ctx = had.ctx
    n = had.dim
    taft = model.taft
    dv, dm = v.dim, x.dim
    z = ctx.zero()

    gv = lift_via_pi(taft, model.pi, v)
    vm = tensor_module(taft, gv, x)
    dvm = vm.dim
    vm_dual, _, _ = dual_module(taft, vm)
    v_dual_t, _, _ = dual_module(model.t_hopf, v)

    pi_m = _pi_x(had, x)
    pi_vm = _pi_x(had, vm)

    def wedge_instance():
        pi_m_cols = [pi_m.col_terms(h) for h in range(n)]
        pi_vm_cols = [pi_vm.col_terms(h) for h in range(n)]
        # the columns of A = 1 # R1 on V x M and of B on its dual, and the
        # rows of R2 on V*, each read once
        a_cols = [[vm.action[model.x_index(0, t)].col_terms(w) for w in range(dvm)]
                  for t in range(model.n)]
        b_cols = [[vm_dual.action[model.x_index(0, t)].col_terms(w) for w in range(dvm)]
                  for t in range(model.n)]
        j_rows = [[v_dual_t.action[t].row_terms(va) for va in range(dv)] for t in range(model.n)]
        for h in range(n):
            lhs: dict[tuple[int, tuple[int, int, int]], Scalar] = {}
            for row, e in pi_m_cols[h]:
                mo, mp = divmod(row, dm)
                for j in range(dv):
                    lhs[(mo, (j, j, mp))] = e

            rhs: dict[tuple[int, tuple[int, int, int]], Scalar] = {}
            for ri, rj, cr in model.rmatrix.terms:
                a_col, b_col, j_row = a_cols[ri], b_cols[ri], j_rows[rj]
                for row, e in pi_vm_cols[h]:
                    w1, w2 = divmod(row, dvm)
                    # A e_w1 decomposed over (va, mo)
                    for row1, e1 in a_col[w1]:
                        va, mo = row1 // dm, row1 % dm
                        # B e^w2 evaluated against e_(v', m')
                        for row2, e2 in b_col[w2]:
                            vp, mp = row2 // dm, row2 % dm
                            for j, ej in j_row[va]:
                                key = (mo, (j, vp, mp))
                                add = cr * e * e1 * e2 * ej
                                rhs[key] = rhs.get(key, z) + add

            key = sparse_diff(lhs, rhs, ctx)
            if key is not None:
                yield {"hopf_basis": h, "coordinate": [key[0], list(key[1])]}

    rep.check(f"{prefix}/wedge-instance", wedge_instance())
    return rep


def _counit_projection(model: TaftModel) -> Matrix:
    """id x eps_T: the bosonization onto the line, x^a # g^b -> eps(g^b) x^a."""
    counit = model.t_hopf.coalgebra.counit
    return Matrix(model.ctx, model.line.dim, model.taft.dim,
                  [(a, model.x_index(a, b), counit[b]) for a in range(model.line.dim)
                   for b in range(model.n)])


def displayed_adjoint_action(model: TaftModel) -> list[Matrix]:
    """u.h = (id x eps_T)(u1 (h#1) S(u2)) for u in the bosonization,
    h in the line; one matrix per bosonization basis element."""
    taft = model.taft
    ctx = model.ctx
    n = model.line.dim
    alg = taft.algebra
    eproj = _counit_projection(model)
    s_cols = [taft.antipode.col_terms(j) for j in range(taft.dim)]
    mats = []
    for u in range(taft.dim):
        terms = []
        for h in range(n):
            acc: dict[int, Scalar] = {}
            for u1, u2, c in taft.coalgebra.comult[u]:
                for r, x in alg.mult_terms(alg.mult[u1][model.x_index(h, 0)], s_cols[u2]):
                    add = c * x
                    acc[r] = acc[r] + add if r in acc else add
            terms += [(r, h, x) for r, x in eproj.apply_terms(acc.items())]
        mats.append(Matrix(ctx, n, n, terms))
    return mats


def displayed_adjoint_coaction(model: TaftModel) -> Matrix:
    """rho(h) = h1 # R2 x R1 . h2 as a (dim(H#T) * n) x n matrix."""
    taft = model.taft
    n = model.line.dim
    line = model.line
    terms = []
    for h in range(n):
        for h1, h2, c in line.coalgebra.comult[h]:
            for ri, rj, cr in model.rmatrix.terms:
                y = model.x_index(h1, rj)
                terms += [(y * n + hp, h, c * cr * e) for hp, e in line.tmodule.action[ri].col_terms(h2)]
    return Matrix(model.ctx, taft.dim * n, n, terms)


def regular_case_iso(adjoint: AdjointAlgebra, had: HAdjoint,
                 report: VerificationReport | None = None,
                 prefix: str = "regular-case") -> VerificationReport:
    """phi(alpha) = (id x eps_T) alpha(1,1) from the fully-constrained
    solution space of the regular comodule algebra onto the carrier of
    the braided adjoint: bijective, multiplicative, unit-preserving,
    and intertwining action and coaction with the displayed formulas."""
    rep = report if report is not None else VerificationReport()
    model = had.model
    ctx = model.ctx
    n = had.dim
    taft = model.taft
    if adjoint.problem.comod_alg.algebra is not taft.algebra:
        raise ValueError("the comparison needs the regular comodule algebra")
    if "ad2" not in adjoint.problem.conditions:
        raise ValueError("the comparison needs the fully-constrained variant")

    unit_ht = 0
    eproj = _counit_projection(model)
    phi = Matrix(ctx, n, adjoint.dim, [(r, s, x) for s in range(adjoint.dim)
                                       for r, x in eproj.apply_terms(adjoint.bar_terms[s][unit_ht])])

    ok = adjoint.dim == n and kernel_basis(phi).dim == 0
    rep.add(f"{prefix}/phi-bijective", ok,
            None if ok else {"solution_dim": adjoint.dim, "carrier_dim": n})

    ok = phi.apply_terms(nonzero(adjoint.unit_coords)) == nonzero(model.line.algebra.unit)
    rep.add(f"{prefix}/phi-unit", ok, None if ok else {})

    def phi_coaction_intertwines():
        com = adjoint.comodule_rep()
        lhs = Matrix(ctx, taft.dim * n, adjoint.dim,
                     [(y * n + r, s, c * e) for s in range(adjoint.dim)
                      for y, l, c in com.coaction[s] for r, e in phi.col_terms(l)])
        if lhs != displayed_adjoint_coaction(model) * phi:
            yield {}

    disp = displayed_adjoint_action(model)
    rep.check(f"{prefix}/phi-multiplicative", (
        {"pair": [i, j]} for i in range(adjoint.dim) for j in range(adjoint.dim)
        if phi.apply_terms(nonzero(adjoint.product[i][j]))
        != model.line.algebra.mult_terms(phi.col_terms(i), phi.col_terms(j))))
    rep.check(f"{prefix}/phi-action-intertwines", (
        {"hopf_index": u} for u in range(taft.dim) if phi * adjoint.action[u] != disp[u] * phi))
    rep.check(f"{prefix}/phi-coaction-intertwines", phi_coaction_intertwines())
    rep.check(f"{prefix}/displayed-matches-built-action", (
        {"hopf_index": u} for u in range(taft.dim) if disp[u] != had.ht_module.action[u]))
    return rep
