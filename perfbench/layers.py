"""The traced functions of each layer and the per-layer metrics they give.

Every name below is reported as `<name>.calls` and `<name>.self_s` on every
workload, zero where the workload does not reach it.  README.md maps each
one to the end-to-end metric it should move.
"""

from __future__ import annotations

from nctorus import algebra, cli, deformation, expr, oracle, scalars, states, symmetry
from tracer import Tracer, nctorus_modules

STATE_KINDS = {"Trace": "trace", "ProductState": "product",
               "BlockProductState": "block", "CesaroState": "cesaro",
               "MixtureState": "mixture"}
CHECKERS = ("check_spreadable", "check_stationary", "check_gauge_invariant")


def _state_kind(args):
    return STATE_KINDS.get(type(args[0]).__name__, "other")


def _cases(args, report):
    return report.exhaustive_cases + report.random_trials


def _text_bytes(args, text):
    return len(text.encode("utf-8"))


def targets():
    PC, QQi, Element = scalars.PhaseCoefficient, scalars.QQi, algebra.Element
    out = [(PC, m, f"scalars.PhaseCoefficient.{m}", None, None)
           for m in ("is_zero", "__mul__", "__add__", "to_qqi", "reduce")]
    out.append((QQi, "__mul__", "scalars.QQi.__mul__", None, None))
    out.append((algebra, "normal_form", "algebra.normal_form", None, None))
    out += [(Element, m, f"algebra.Element.{m}", None, None) for m in ("__mul__", "adjoint")]
    out.append((states, "evaluate_word", "states.evaluate_word", _state_kind, None))
    out += [(states, f, f"states.{f}", None, None)
            for f in ("evaluate", "validate_state", "state_from_json")]
    out += [(deformation, f, f"deformation.{f}", None, None) for f in ("parse_beta", "isotropy")]
    out += [(symmetry, f, f"symmetry.{f}", None, _cases) for f in CHECKERS]
    out.append((expr, "parse", "expr.parse", None, None))
    out.append((expr, "format_element", "expr.format_element", None, _text_bytes))
    out += [(oracle, f, f"oracle.{f}", None, None) for f in ("gram_psd", "toeplitz_psd")]
    out.append((cli, "main", "cli.main", None, None))
    return out


def span_names() -> list[str]:
    names = []
    for _, _, name, tag, _ in targets():
        if tag is _state_kind:
            names += [f"{name}.{k}" for k in STATE_KINDS.values()]
        else:
            names.append(name)
    return names


class LayerTracer(Tracer):
    """Adds the zero share of block evaluations to the plain spans."""

    def __init__(self):
        super().__init__(targets(), nctorus_modules())
        self.block_zero = 0
        self._is_zero = scalars.PhaseCoefficient.is_zero  # captured untraced

    def _wrap(self, fn, name, tag, extra):
        if name != "states.evaluate_word":
            return super()._wrap(fn, name, tag, extra)
        is_zero = self._is_zero

        def zero_count(args, result):
            if type(args[0]).__name__ == "BlockProductState" and is_zero(result):
                self.block_zero += 1
            return 0

        return super()._wrap(fn, name, tag, zero_count)


def layer_metrics(tracer: LayerTracer) -> dict:
    out = {}
    for name in span_names():
        span = tracer.spans.get(name)
        calls, self_s = (span.calls, span.self_s) if span else (0, 0.0)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        if name.startswith("symmetry."):
            out[f"{name}.cases"] = (span.extra if span else 0, "count")
        if name == "expr.format_element":
            out[f"{name}.bytes"] = (span.extra if span else 0, "B")
    blocks = tracer.spans.get("states.evaluate_word.block")
    out["states.evaluate_word.block.zero_share"] = (
        tracer.block_zero / blocks.calls if blocks and blocks.calls else 0.0, "share")
    return out
