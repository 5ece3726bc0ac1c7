"""Layer entry points of catenv, and the wrappers that trace them in place.

``instrument(tracer)`` replaces each entry point listed in ``entry_points``
with a wrapper that opens a span around the call and records counts from its
arguments and result, and puts every original back on exit. The traced run
then calls the real ``catenv.cli.main``: the spans time the program's own
call sequence, and the report it prints is checked against the golden one
like any other.

Names the pipeline and the command line import from a layer module are
patched where they are looked up (``catenv.pipeline``, ``catenv.cli``), so a
span covers a call into the layer, not the layer's calls to itself. Methods
are patched on their classes. A layer's self time is its spans' durations
minus the spans nested in them: ``germs.build`` therefore excludes the
``FiniteGroupoid`` constructions inside it, which are ``gpd.construct``.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def _shilov_counts(result, args, kwargs):
    return {"envelope.shilov_masks_tried": len(result.verdicts),
            "envelope.shilov_masks_certified": sum(v.certified
                                                   for v in result.verdicts.values())}


def _isometry_counts(result, args, kwargs):
    return {"matrixrep.isometry_levels": result.levels,
            "matrixrep.isometry_samples": result.samples}


def _span_dim(result, args, kwargs):
    return {"matrixrep.span_dim": result.dim}


def _lambda_span(args, kwargs):
    """``LambdaRep.build`` builds the exact regular representation for the
    Jack check, or a truncation window when given a radius."""
    radius = kwargs.get("radius", args[2] if len(args) > 2 else None)  # (cls, pres, radius)
    return "matrixrep.jack" if radius is None else "matrixrep.window"


def entry_points():
    """(span name or chooser, owner, attribute, counts) for every traced entry point.

    ``owner`` is a module or class whose attribute is replaced. ``counts``
    maps (result, args, kwargs) to named counts, or is None.
    """
    from catenv import cli, coactions, germs, gpd, hull, ideals, lcm, matrixrep, \
        pipeline, report
    from catenv.categories import CategoryPresentation

    validates = [(cls, "validate") for cls in _subclasses(CategoryPresentation)
                 if "validate" in vars(cls)]
    return [
        *(("categories.validate", cls, attr, None) for cls, attr in validates),
        ("hull.generate", hull.InverseHull, "generate",
         lambda r, a, k: {"hull.closure_size": len(r)}),
        ("hull.hausdorff", hull.InverseHull, "hausdorff_check", None),
        ("ideals.lattice", ideals.Semilattice, "__init__",
         lambda r, a, k: {"ideals.count": len(a[0].ideals)}),
        ("ideals.lattice", ideals, "enumerate_characters",
         lambda r, a, k: {"ideals.omega": len(r)}),
        ("ideals.lattice", ideals, "maximal_characters", None),
        ("ideals.lattice", ideals, "boundary",
         lambda r, a, k: {"ideals.boundary": len(r)}),
        ("ideals.lattice", ideals, "tight_characters", None),
        ("germs.build", germs.GermContext, "build_groupoid",
         lambda r, a, k: {"germs.omega_germs": len(r.groupoid)}),
        ("germs.restrict", germs.GermGroupoid, "restrict_to",
         lambda r, a, k: {"germs.boundary_germs": len(r.groupoid)}),
        ("germs.restrict", germs.GermGroupoid, "boundary_invariance_holds", None),
        ("gpd.construct", gpd.FiniteGroupoid, "__init__",
         lambda r, a, k: {"gpd.product_entries": len(a[0].product)}),
        (_lambda_span, matrixrep.LambdaRep, "build", None),
        ("matrixrep.jack", matrixrep.GermModel, "__init__", None),
        ("matrixrep.jack", pipeline, "jack_check", None),
        ("matrixrep.algebra_span", matrixrep.LambdaRep, "toeplitz_algebra", _span_dim),
        ("matrixrep.algebra_span", matrixrep.GermModel, "reduced_algebra", _span_dim),
        ("matrixrep.algebra_span", cli, "AlgebraSpan", _span_dim),
        ("matrixrep.isometry", pipeline, "complete_isometry_check", _isometry_counts),
        ("envelope.block_decompose", pipeline, "block_decompose",
         lambda r, a, k: {"envelope.blocks": len(r.block_sizes)}),
        ("envelope.block_decompose", cli, "block_decompose",
         lambda r, a, k: {"envelope.blocks": len(r.block_sizes)}),
        ("envelope.shilov", pipeline, "shilov_ideal", _shilov_counts),
        ("envelope.shilov", cli, "shilov_ideal", _shilov_counts),
        # what envelope_coincidence does besides the calls above: the
        # restriction *-maps, their kernel mask and injectivity checks
        ("envelope.star_map", pipeline, "envelope_coincidence", None),
        ("envelope.detects_ideals", pipeline, "detects_ideals", None),
        ("coactions.grading", cli, "coaction_from_grading", None),
        ("coactions.normality", coactions.Coaction, "normality_verdict", None),
        ("coactions.crossed_product", coactions.CrossedProduct, "__init__",
         lambda r, a, k: {"coactions.crossed_dim": a[0].span.dim}),
        ("coactions.crossed_product", coactions.CrossedProduct,
         "dual_action_formula_check", None),
        ("coactions.crossed_product", coactions.CrossedProduct,
         "dual_action_group_law_check", None),
        ("coactions.crossed_product", cli, "approx_identity_checks", None),
        ("coactions.duality", coactions.DoubleCrossedProduct, "__init__", None),
        ("coactions.duality", coactions.DoubleCrossedProduct,
         "double_dual_formula_check", None),
        ("coactions.duality", cli, "katayama_verify", None),
        ("coactions.extension", cli, "extend_grading", None),
        ("coactions.extension", cli, "equivariance_check", None),
        ("lcm.starling", cli, "starling_report", None),
        ("lcm.starling", lcm, "starling_report", None),  # imported by _bounded_tail
        ("report.render", report.Report, "as_json", None),
    ]


def _wrap(tracer, name, fn, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name(args, kwargs) if callable(name) else name):
            result = fn(*args, **kwargs)
        if counts is not None:
            for key, value in counts(result, args, kwargs).items():
                tracer.count(key, value)
        return result
    return traced


@contextmanager
def instrument(tracer):
    """Trace every entry point into ``tracer`` for the duration of the block."""
    saved = []
    try:
        for name, owner, attr, counts in entry_points():
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(tracer, name, raw.__func__, counts))
            else:
                new = _wrap(tracer, name, raw, counts)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
