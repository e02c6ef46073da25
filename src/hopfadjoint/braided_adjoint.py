"""The adjoint-representation algebra of the braided line inside its
braided module category, realised through the bosonization: carrier =
the line algebra, action = the braided adjoint action, coaction = the
displayed h -> h1 # R2 x R1.h2, half-braidings = the Yetter-Drinfeld
braidings of that coaction, all assembled by composing structure
matrices (no closed-form shortcuts)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cyclotomic import FieldContext, Scalar
from .braiding import (
    ComoduleRep,
    ModuleRep,
    braided_commutativity_failures,
    braiding,
    check_module,
    double_braiding,
    dual_module,
    lift_via_pi,
    tensor_module,
    trivial_module,
    regular_module,
    yd_braiding,
)
from .constructions import TaftModel
from .adjoint import AdjointAlgebra
from .linalg import Matrix, kernel_basis, kron, sparse_diff
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

    @cached_property
    def comodule(self) -> ComoduleRep:
        """The displayed coaction over the bosonization, built once; its
        Yetter-Drinfeld braiding is every half-braiding of H_ad."""
        return displayed_adjoint_coaction(self.model)


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
                lhs = yd_braiding(had.comodule, tensor_module(taft, x, y))
                rhs = (kron(Matrix.identity(ctx, x.dim), gammas[ny])
                       * kron(gammas[nx], Matrix.identity(ctx, y.dim)))
                if lhs != rhs:
                    yield {"pair": [nx, ny]}

    def double_braiding_trivial():
        for name, vt in (("trivial", trivial_module(model.t_hopf)),
                         ("regular", regular_module(model.t_hopf.algebra))):
            gamma = yd_braiding(had.comodule, lift_via_pi(taft, model.pi, vt))
            if (double_braiding(gamma, had.ht_module, vt, model.embed, model.rmatrix)
                    != Matrix.identity(ctx, n * vt.dim)):
                yield {"module": name}

    # each module's half-braiding, shared by its own checks and the hexagon
    gammas = {name: yd_braiding(had.comodule, x) for name, x in modules.items()}
    for name, x in modules.items():
        rep.check(f"{prefix}/gamma-invertible/{name}", gamma_invertible(gammas[name], name))
        rep.check(f"{prefix}/gamma-equivariant/{name}", gamma_equivariant(gammas[name], name, x))
    rep.check(f"{prefix}/gamma-tensor-hexagon", gamma_tensor_hexagon())
    rep.check(f"{prefix}/double-braiding-trivial", double_braiding_trivial())
    rep.check(f"{prefix}/braided-commutative", braided_commutativity_failures(
        yd_braiding(had.comodule, had.ht_module), model.line.algebra))
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
    vm_dual = dual_module(taft, vm)
    v_dual_t = dual_module(model.t_hopf, v)

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


def displayed_adjoint_coaction(model: TaftModel) -> ComoduleRep:
    """rho(h) = h1 # R2 x R1 . h2, a comodule over the bosonization."""
    taft = model.taft
    n = model.line.dim
    line = model.line
    legs = [(j, line.tmodule.act_terms(leg)) for j, leg in model.rmatrix.legs]
    terms = []
    for h in range(n):
        for h1, h2, c in line.coalgebra.comult[h]:
            for j, act in legs:
                y = model.x_index(h1, j)
                terms += [(h, y * n + hp, c * e) for hp, e in act.col_terms(h2)]
    # row h holds the (y, hp) terms of rho(h), summed and ascending
    rows = Matrix(model.ctx, n, taft.dim * n, terms)
    return ComoduleRep(taft.coalgebra, n, [[(yh // n, yh % n, c) for yh, c in rows.row_terms(h)]
                                           for h in range(n)])


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

    ok = phi.apply_terms(adjoint.algebra.unit) == model.line.algebra.unit
    rep.add(f"{prefix}/phi-unit", ok, None if ok else {})

    def phi_coaction_intertwines():
        lhs = kron(Matrix.identity(ctx, taft.dim), phi) * adjoint.comodule.matrix()
        if lhs != had.comodule.matrix() * phi:
            yield {}

    disp = displayed_adjoint_action(model)
    rep.check(f"{prefix}/phi-multiplicative", (
        {"pair": [i, j]} for i in range(adjoint.dim) for j in range(adjoint.dim)
        if phi.apply_terms(adjoint.algebra.mult[i][j])
        != model.line.algebra.mult_terms(phi.col_terms(i), phi.col_terms(j))))
    rep.check(f"{prefix}/phi-action-intertwines", (
        {"hopf_index": u} for u in range(taft.dim) if phi * adjoint.module.action[u] != disp[u] * phi))
    rep.check(f"{prefix}/phi-coaction-intertwines", phi_coaction_intertwines())
    rep.check(f"{prefix}/displayed-matches-built-action", (
        {"hopf_index": u} for u in range(taft.dim) if disp[u] != had.ht_module.action[u]))
    return rep
