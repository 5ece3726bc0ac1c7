"""Batch front-end.

    catenv <command> <input> [--depth N] [--levels K] [--tol T] [--seed S]
                             [--format text|json] [--out PATH]

Commands: validate | hull | ideals | boundary | groupoid | envelope | coaction
| lcm | thesis. Exit codes: 0 all certified, 1 input error, 2 rejection or
counterexample, 3 inconclusive at the bound, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .categories import MalformedPresentation
from .coactions import (GradingInvalid, NoExtensionFound, coaction_from_grading,
                        extend_grading, equivariance_check, katayama_verify,
                        approx_identity_checks)
from .envelope import NotACover, block_decompose, shilov_ideal
from .matrixrep import AlgebraSpan, NumericalFailure
from .lcm import starling_report
from .parsing import ParseError, load_path
from .pipeline import analyze_category
from .report import Report
from .univgroup import j_map, universal_group

COMMANDS = ("validate", "hull", "ideals", "boundary", "groupoid", "envelope",
            "coaction", "lcm", "thesis")

_STOP = {"validate": "validation", "hull": "hull", "ideals": "ideals",
         "boundary": "ideals", "groupoid": "groupoid", "envelope": None,
         "thesis": None}


@functools.cache
def build_parser():
    """The command line's parser, built once: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="catenv", description=__doc__.split("\n")[0])
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("input", help="fixture file (.cat, .gpd, .grad)")
    p.add_argument("--depth", type=int, default=8,
                   help="truncation window for infinite fixtures")
    p.add_argument("--levels", type=int, default=None,
                   help="matrix level cap for complete-isometry checks")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.depth < 1 or (args.levels is not None and args.levels < 1) \
            or not (0 < args.tol <= 1e-3):
        print("error: --depth/--levels must be >= 1 and --tol in (0, 1e-3]",
              file=sys.stderr)
        return 1
    config = {"depth": args.depth, "levels": args.levels, "tol": args.tol,
              "seed": args.seed}
    report = Report(args.command, args.input, config)
    try:
        kind, obj = load_path(args.input)
    except (ParseError, OSError, MalformedPresentation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        dispatch(args.command, kind, obj, args, report)
    except (ParseError, MalformedPresentation, GradingInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, NotACover) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    text = report.as_json() if args.format == "json" else report.as_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return report.exit_code


def dispatch(command, kind, obj, args, report: Report):
    if command in ("validate", "hull", "ideals", "boundary", "envelope", "thesis"):
        if kind != "category":
            raise ParseError(f"{command} needs a category fixture")
        res = analyze_category(obj, depth=args.depth, levels=args.levels,
                               tol=args.tol, seed=args.seed,
                               stop_after=_STOP[command])
        report.extend(res.entries)
        if command == "boundary" and "lattice" in res.context:
            report.add("boundary-members", "certified",
                       "; ".join(repr(chi) for chi in res.context["boundary"]))
        return
    if command == "groupoid":
        if kind == "groupoid":
            _universal_group_report(obj, args, report)
            return
        if kind == "category":
            res = analyze_category(obj, depth=args.depth, levels=args.levels,
                                   tol=args.tol, seed=args.seed,
                                   stop_after="groupoid")
            report.extend(res.entries)
            return
        raise ParseError("groupoid command needs a .gpd or .cat fixture")
    if command == "coaction":
        if kind != "graded":
            raise ParseError("coaction needs a .grad fixture")
        _coaction_report(obj, args, report)
        return
    if command == "lcm":
        if kind != "category" or len(obj.objects) != 1:
            raise ParseError("lcm needs a monoid fixture")
        report.extend(starling_report(obj, bound=min(args.depth, 4)))
        return
    raise ParseError(f"unknown command {command!r}")


def _universal_group_report(g, args, report: Report):
    od = universal_group(g, seed=args.seed)
    report.add("orbit-data", "certified",
               f"{len(od.representatives)} orbits; representatives "
               + " ".join(str(u) for u in od.representatives))
    bad = [x for x in g.elements if g.is_unit(x) != j_map(x, od).is_identity]
    inj = {}
    clash = None
    for x in g.elements:
        if g.is_unit(x):
            continue
        w = j_map(x, od).render()
        if w in inj:
            clash = (inj[w], x)
        inj[w] = x
    ok = not bad and clash is None
    report.add("word-map", "certified" if ok else "rejected",
               "kernel is the unit space and the map is injective off units"
               if ok else f"failure at {bad or clash}")
    report.add("presentation", "certified",
               "; ".join(f"orbit {u}: {len(od.x_letters[u])} free letters, "
                         f"isotropy of order {len(od.isotropy[u])}"
                         for u in od.representatives))


def _coaction_report(obj, args, report: Report):
    group, graded = obj
    delta = coaction_from_grading(graded)
    report.add("grading-coaction", "certified",
               f"grading over {len(group)} group elements defines a coaction")
    nv = delta.normality_verdict(levels=args.levels, tol=args.tol, seed=args.seed)
    report.add("normality", nv.status,
               "exact: grading is spatial, at every level"
               if delta.spatial_certificate is not None else
               f"max deviation {nv.max_deviation:.2e} at {nv.levels} levels")
    cp = delta.crossed_product
    failed = [name for name, ok in (
        ("dual_action_formula_check", cp.dual_action_formula_check()),
        ("dual_action_group_law_check", cp.dual_action_group_law_check())) if not ok]
    report.add("crossed-product", "rejected" if failed else "certified",
               f"dimension {cp.span.dim}; "
               + (f"{' and '.join(failed)} failed" if failed else
                  "dual action verified on generators"))
    kat = katayama_verify(delta)
    failed = kat.failed + ([] if delta.double_crossed_product.double_dual_formula_check()
                           else ["double_dual_formula_check"])
    report.add("duality", "rejected" if failed else "certified",
               (f"{', '.join(failed)} failed" if failed else
                "unitary conjugation identities hold")
               + f"; image dimension {kat.image_dim}")
    ai = approx_identity_checks(delta)
    report.add("approximate-identity",
               "certified" if all(ai.values()) else "rejected", str(ai))
    basis = [b for b in graded.basis]
    span = AlgebraSpan(basis, selfadjoint=True)
    cover = block_decompose(span, seed=args.seed)
    shilov = shilov_ideal(basis, cover, levels=args.levels, tol=args.tol,
                          seed=args.seed)
    report.add("envelope", "certified",
               f"cover blocks {cover.block_sizes}; Shilov mask "
               f"{sorted(shilov.mask)}; envelope blocks {shilov.quotient_blocks}")
    try:
        env_basis = [cover.rep(b, shilov.mask) for b in span.basis]
        env_graded = extend_grading(graded, env_basis,
                                    kappa=lambda a: cover.rep(a, shilov.mask))
        env_delta = coaction_from_grading(env_graded)
        eq = equivariance_check(graded, env_delta,
                                kappa=lambda a: cover.rep(a, shilov.mask))
        report.add("envelope-coaction", "certified" if eq else "rejected",
                   "the coaction extends to the envelope equivariantly" if eq else
                   "equivariance fails: δ_env(κ(a)) ≠ κ(a)⊗λ_g on the graded basis")
    except NoExtensionFound as exc:
        report.add("envelope-coaction", "rejected", str(exc))


if __name__ == "__main__":
    sys.exit(main())
