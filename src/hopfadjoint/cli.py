"""Command-line surface: build the Taft-family objects, solve the
invariant-map algebras, and run the verification suites with
machine-readable reports.

Exit codes: 0 when every selected claim passes, 1 on a mathematical
failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .cyclotomic import FieldContext, make_field
from .hopf import check_hopf
from .braiding import check_rmatrix, regular_module, trivial_module
from .constructions import (
    check_braided_hopf,
    check_hopf_morphism,
    comodule_algebra_K,
    regular_comodule_algebra,
    taft_model,
    taft_presentation_check,
)
from .adjoint import (
    ClosureFailure,
    chi0_crosscheck,
    condition_variant,
    connectedness,
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
from .braided_adjoint import build_h_ad, regular_case_iso, pi_dinatural_check, verify_h_ad
from .reports import VerificationReport, document, emit_json

BASIS_CONVENTION = ("bosonization x^a # g^b at a*n+b; K(d,xi) h^a w^b at a*n+b; "
                    "tensor legs i*dim_right+j")
STATUSES = ("pass", "fail", "skipped")


class UsageError(Exception):
    """Arguments that parse but name no computation; exits 2 like a
    parse error."""


def field_axiom_spotcheck(ctx: FieldContext, seed: int, report: VerificationReport | None = None,
                          prefix: str = "field") -> VerificationReport:
    """Field axioms on 100 pseudo-random triples with a fixed seed; each
    claim fails with the first trial that breaks it."""
    rep = report if report is not None else VerificationReport()
    rng = random.Random(seed)

    def rand_scalar():
        return ctx.scalar([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(ctx.degree)])

    triples = [(rand_scalar(), rand_scalar(), rand_scalar()) for _ in range(100)]
    rep.check(f"{prefix}/associativity-spot", (
        {"trial": t} for t, (a, b, c) in enumerate(triples)
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c)))
    rep.check(f"{prefix}/distributivity-spot", (
        {"trial": t} for t, (a, b, c) in enumerate(triples) if a * (b + c) != a * b + a * c))
    rep.check(f"{prefix}/inverse-spot", (
        {"trial": t} for t, (a, _, _) in enumerate(triples) if a and not (a * a.inv()).is_one()))
    return rep


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def positive_int_list(text: str) -> list[int]:
    values = [positive_int(part) for part in text.split(",") if part]
    if not values or len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of distinct positive integers, got {text!r}")
    return values


def rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational number such as 1/2, got {text!r}") from None


def _suite_hopf(n: int, seed: int, rep: VerificationReport) -> None:
    model = taft_model(n)
    field_axiom_spotcheck(model.ctx, seed, report=rep, prefix=f"n{n}/field")
    check_hopf(model.taft, rep, prefix=f"n{n}/hopf")
    taft_presentation_check(model.taft, n, rep, prefix=f"n{n}/presentation")
    check_braided_hopf(model.line, rep, prefix=f"n{n}/braided-line")
    check_hopf_morphism(model.taft, model.t_hopf, model.pi, rep, prefix=f"n{n}/projection")


def _suite_rmatrix(n: int, rep: VerificationReport) -> None:
    model = taft_model(n)
    check_rmatrix(model.rmatrix, rep, prefix=f"n{n}/rmatrix")


def _suite_adjoint(n: int, rep: VerificationReport) -> None:
    model = taft_model(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for d in divisors:
        k = comodule_algebra_K(n, d, 0)
        alg = solve_adjoint(problem_for(model, k, {"ad1", "ad3"}))
        rep.add(f"n{n}/module-variant-K({d},0)/dim", alg.dim == n * n, {"dim": alg.dim})
        verify_yd(alg, rep, prefix=f"n{n}/module-variant-K({d},0)/yd")
        verify_center_algebra(alg, rep, prefix=f"n{n}/module-variant-K({d},0)/center")
        verify_braided_commutative(alg, rep, prefix=f"n{n}/module-variant-K({d},0)/braided")
        dim_inv = connectedness(alg)
        rep.add(f"n{n}/module-variant-K({d},0)/connected", dim_inv == 1,
                {"dim_invariants": dim_inv})
        phi_structure_transport(alg, rep, prefix=f"n{n}/module-variant-K({d},0)/transport")
    # the divisors end at d = n, so k is K(n, n, 0)
    rel = solve_adjoint(problem_for(model, k, {"ad1", "ad2", "ad3"}), with_structure=False)
    chi0_crosscheck(rel, rep, prefix=f"n{n}/chi0")
    mreg = regular_module(k.algebra)
    for vname, v in (("regular", regular_module(model.t_hopf.algebra)),
                     ("trivial", trivial_module(model.t_hopf))):
        dinaturality_sample(rel, mreg, v, rep,
                            prefix=f"n{n}/relative-K({n},0)/kC{n}-{vname}/dinaturality")
    kreg = regular_comodule_algebra(n)
    alg = solve_adjoint(problem_for(model, kreg, {"ad1", "ad2", "ad3"}))
    rep.add(f"n{n}/relative-regular/dim", alg.dim == n, {"dim": alg.dim})
    verify_conditions_direct(alg.problem, [alg.hom_columns(i) for i in range(alg.dim)], rep,
                             prefix=f"n{n}/relative-regular/conditions")
    verify_yd(alg, rep, prefix=f"n{n}/relative-regular/yd")
    verify_center_algebra(alg, rep, prefix=f"n{n}/relative-regular/center")
    verify_braided_commutative(alg, rep, prefix=f"n{n}/relative-regular/braided")
    verify_relative_center(alg, regular_module(model.t_hopf.algebra), rep,
                           prefix=f"n{n}/relative-regular/centralizer")
    dim_inv = connectedness(alg)
    rep.add(f"n{n}/relative-regular/connected", dim_inv == 1, {"dim_invariants": dim_inv})


def _emit(args, payload: dict, ctx: FieldContext) -> None:
    data = emit_json(document(ctx, BASIS_CONVENTION, payload))
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.write(b"\n")


def _finish(args, rep: VerificationReport, payload: dict, ctx: FieldContext) -> int:
    payload = dict(payload)
    payload["report"] = rep
    _emit(args, payload, ctx)
    if args.out:
        for line in rep.summary_lines():
            print(line)
    return 0 if rep.ok else 1


def cmd_taft(args) -> int:
    n = args.n
    model = taft_model(n)
    rep = VerificationReport()
    check_hopf(model.taft, rep, prefix="hopf")
    taft_presentation_check(model.taft, n, rep, prefix="presentation")
    check_braided_hopf(model.line, rep, prefix="braided-line")
    check_hopf_morphism(model.taft, model.t_hopf, model.pi, rep, prefix="projection")
    payload = {"n": n, "hopf": model.taft, "projection": model.pi,
               "rmatrix": model.rmatrix}
    return _finish(args, rep, payload, model.ctx)


def cmd_adjoint(args) -> int:
    n, d, xi = args.n, args.d, args.xi
    try:
        conditions = condition_variant(args.conditions.split(","))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if n % d:
        raise UsageError(f"--d {d} does not divide --n {n}")
    model = taft_model(n)
    k = comodule_algebra_K(n, d, xi)
    problem = problem_for(model, k, conditions)
    rep = VerificationReport()
    try:
        alg = solve_adjoint(problem)
    except ClosureFailure as exc:
        rep.add("solve/closure", False, {"error": str(exc), "witness": exc.witness})
        return _finish(args, rep, {"problem": problem.describe()}, model.ctx)
    rep.add("solve/dim", True, {"dim": alg.dim})
    # one Hom-space view per basis element, for the re-check and the JSON basis
    views = [alg.hom_columns(i) for i in range(alg.dim)]
    verify_conditions_direct(problem, views, rep)
    verify_yd(alg, rep)
    verify_center_algebra(alg, rep)
    verify_braided_commutative(alg, rep)
    dim_inv = connectedness(alg)
    rep.add("solve/connected", dim_inv == 1, {"dim_invariants": dim_inv})
    if "ad2" in conditions:
        verify_relative_center(alg, regular_module(model.t_hopf.algebra), rep)
    payload = {"dim": alg.dim, "algebra": alg.to_jsonable(views)}
    return _finish(args, rep, payload, model.ctx)


def cmd_braided_adjoint(args) -> int:
    n = args.n
    model = taft_model(n)
    had = build_h_ad(model)
    mods = {"regular": regular_module(model.taft.algebra), "trivial": trivial_module(model.taft)}
    rep = VerificationReport()
    verify_h_ad(had, mods, rep)
    for name, x in mods.items():
        for vname, v in (("trivial", trivial_module(model.t_hopf)),
                         ("regular", regular_module(model.t_hopf.algebra))):
            pi_dinatural_check(had, x, v, rep, prefix=f"pi-dinatural/{name}-{vname}")
    kreg = regular_comodule_algebra(n)
    alg = solve_adjoint(problem_for(model, kreg, {"ad1", "ad2", "ad3"}))
    regular_case_iso(alg, had, rep)
    payload = {"n": n, "action": had.ht_module.action}
    return _finish(args, rep, payload, model.ctx)


def cmd_verify(args) -> int:
    ns = args.n
    rep = VerificationReport()
    for n in ns:
        if args.suite in ("hopf", "all"):
            _suite_hopf(n, args.seed, rep)
        if args.suite in ("rmatrix", "all"):
            _suite_rmatrix(n, rep)
        if args.suite in ("adjoint", "all"):
            _suite_adjoint(n, rep)
    return _finish(args, rep, {"suite": args.suite, "n": ns}, make_field(max(ns)))


def cmd_report(args) -> int:
    try:
        with open(args.json, "rb") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read report {args.json}: {exc}") from None
    rep = data.get("report", data) if isinstance(data, dict) else None
    claims = rep.get("claims", []) if isinstance(rep, dict) else None
    if not isinstance(claims, list) or not all(isinstance(c, dict) and c.get("status") in STATUSES
                                               for c in claims):
        raise UsageError(f"{args.json} is not a report: expected an object whose claims are a list of "
                         f"objects, each with a status of {', '.join(STATUSES)}")
    n_fail = 0
    for claim in claims:
        status = claim["status"]
        if status == "fail":
            n_fail += 1
        print(f"[{status.upper():>4}] {claim.get('claim_id')}")
        if status == "fail" and claim.get("witness") is not None:
            print(f"       witness: {json.dumps(claim['witness'], sort_keys=True)}")
    print(f"{len(claims)} claims, {n_fail} failing")
    return 0 if n_fail == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfadjoint",
        description="exact computations with Taft-family Hopf algebras and "
                    "their braided commutative invariant algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("taft", help="build and verify the bosonization for one n")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_taft)

    p = sub.add_parser("adjoint", help="solve the invariant-map algebra for K(d, xi)")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--d", type=positive_int, required=True)
    p.add_argument("--xi", type=rational, default="0",
                   help="a rational such as 1/2; write a negative fraction as --xi=-1/2")
    p.add_argument("--conditions", default="ad1,ad2,ad3",
                   help="ad1,ad3 (the module variant) or ad1,ad2,ad3 (the fully-constrained one)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("braided-adjoint", help="build and verify the braided adjoint algebra")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_braided_adjoint)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=["hopf", "rmatrix", "adjoint", "all"], required=True)
    p.add_argument("--n", type=positive_int_list, required=True,
                   help="comma-separated list, e.g. 2,3")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="summarise a previously written JSON report")
    p.add_argument("--json", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
