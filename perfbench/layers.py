"""frontlab's layers as the benchmark sees them from outside.

The layers are the package's modules.  Each public function below gets a
span in every module namespace that looks it up by name; that is where
frontlab's own calls go, because its modules import functions by name.
The benchmark's jobs also call through these module attributes.
"""

import math

import numpy as np

from frontlab import front, gaussbonnet, singular, zigzag


def _count_jet(args, kwargs, result, self_s):
    # eval_jet(e, u, v, order, w=None), called positionally; the
    # scalar/array split lets the per-call and per-point costs be read apart
    shape = np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))
    if shape == ():
        return {"jet_calls": 1, "jet_points": 1, "scalar_calls": 1,
                "scalar_self_s": self_s}
    points = math.prod(shape)
    return {"jet_calls": 1, "jet_points": points, "array_points": points,
            "array_self_s": self_s}


def _count_trace(args, kwargs, curves, self_s):
    return {
        "curves": len(curves),
        "samples": sum(len(c.samples) for c in curves),
        "swallowtails": sum(
            p.kind is singular.SingularClass.SWALLOWTAIL
            for c in curves for p in c.samples
        ),
    }


# (modules that look the function up, function, span name, count)
_FUNCTIONS = (
    ((front, zigzag), "eval_jet", "expr.eval_jet", _count_jet),
    ((front, singular, gaussbonnet, zigzag), "lambda_value",
     "front.lambda_value", None),
    ((singular, gaussbonnet, zigzag), "lambda_jets", "singular.lambda_jets", None),
    ((singular, gaussbonnet), "trace", "singular.trace", _count_trace),
    ((singular, zigzag), "classify", "singular.classify", None),
    ((singular, gaussbonnet), "tail_side", "singular.tail_side", None),
    ((gaussbonnet,), "integrate_K_dA", "gaussbonnet.integrate_K_dA", None),
    ((gaussbonnet,), "integrate_K_dAhat", "gaussbonnet.integrate_K_dAhat", None),
    ((gaussbonnet,), "integrate_kappa_s", "gaussbonnet.integrate_kappa_s", None),
    ((gaussbonnet,), "euler_characteristics",
     "gaussbonnet.euler_characteristics", None),
    ((gaussbonnet,), "euler_report", "gaussbonnet.euler_report", None),
    ((zigzag,), "zigzag_plane", "zigzag.zigzag_plane", None),
    ((zigzag,), "zigzag_surface", "zigzag.zigzag_surface", None),
    ((zigzag,), "null_loop", "zigzag.null_loop", None),
)

# a function a later version moves away makes `spans.instrumented` raise,
# so the traced run fails instead of reading that layer as 0
TARGETS = tuple(
    (module, attr, name, count)
    for modules, attr, name, count in _FUNCTIONS
    for module in modules
)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(stats):
    """Per-layer metrics of one traced pass; 0 where a layer was not used."""
    def get(name, key):
        return float(stats[name][key]) if name in stats else 0.0

    jet = "expr.eval_jet"
    out = {
        jet + ".calls": get(jet, "calls"),
        jet + ".scalar_calls": get(jet, "scalar_calls"),
        jet + ".points": get(jet, "jet_points"),
        jet + ".self_s": get(jet, "self_s"),
        jet + ".us_per_scalar_call": _ratio(
            get(jet, "scalar_self_s"), get(jet, "scalar_calls"), 1e6),
        jet + ".ns_per_array_point": _ratio(
            get(jet, "array_self_s"), get(jet, "array_points"), 1e9),
        "front.lambda_value.calls": get("front.lambda_value", "calls"),
        "front.lambda_value.self_s": get("front.lambda_value", "self_s"),
        "singular.trace.self_s": get("singular.trace", "self_s"),
        "singular.trace.curves": get("singular.trace", "curves"),
        "singular.trace.samples": get("singular.trace", "samples"),
        "singular.trace.swallowtails": get("singular.trace", "swallowtails"),
        "singular.lambda_jets.calls": get("singular.lambda_jets", "calls"),
        "singular.lambda_jets.self_s": get("singular.lambda_jets", "self_s"),
        "singular.classify.calls": get("singular.classify", "calls"),
        "singular.classify.self_s": get("singular.classify", "self_s"),
        "singular.tail_side.self_s": get("singular.tail_side", "self_s"),
        "singular.jet_calls_per_sample": _ratio(
            get("singular.trace", "incl_jet_calls"),
            get("singular.trace", "samples")),
        "gaussbonnet.integrate_K_dA.points": get(
            "gaussbonnet.integrate_K_dA", "incl_jet_points"),
    }
    for name in ("integrate_K_dA", "integrate_K_dAhat", "integrate_kappa_s",
                 "euler_characteristics", "euler_report"):
        out[f"gaussbonnet.{name}.self_s"] = get("gaussbonnet." + name, "self_s")
    for name in ("zigzag_plane", "zigzag_surface", "null_loop"):
        out[f"zigzag.{name}.self_s"] = get("zigzag." + name, "self_s")
    return out
