"""In-process span tracing of prymcert's layers, from outside the program.

A `Tracer` replaces selected functions of the `prymcert.*` modules with
wrappers that record one span per call: (name, start, end, parent,
invocation) plus a few per-call attributes.  Spans stay in memory until the
benchmark writes them out.  `galoiscert` and `certcli` import functions by
name, so every module attribute that holds an original is rebound, and
`install` fails if any binding was missed.  Nested calls become child spans,
which is what makes self time (duration minus child durations) correct.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
import sys
import time

# (module, attribute) of every traced function; "Class.method" names a method.
# `_primes` is not traced: its cost folds into its callers.
TRACED = (
    ("certcli", "main"),
    ("certcli", "_canonical"),  # the canonical JSON the CLI emits
    ("galoiscert", "certify_prym"),
    ("galoiscert", "certify_wdm_over_Q"),
    ("galoiscert", "cyclotomic_descent"),
    ("galoiscert", "chebotarev_verdict"),
    ("galoiscert", "Certificate.to_json"),
    ("intpoly", "reduce_and_factor_degrees"),
    ("intpoly", "irreducible_over_Q"),
    ("intpoly", "irreducible_composite_rule"),
    ("intpoly", "discriminant"),
    ("signedperm", "census"),
    ("signedperm", "transitivity_degree"),
    ("signedperm", "sm_certificate"),
    ("fpmodule", "commutant_dim"),
    ("fpmodule", "heart_f2_irreducible"),
    ("fpmodule", "odd_space"),
    ("prymcalc", "genus_curve"),
    ("prymcalc", "dim_prym"),
    ("prymcalc", "omega_basis"),
    ("prymcalc", "anti_invariant_partition"),
    ("prymcalc", "multiplicity_table"),
    ("prymcalc", "multiplicities_coprime"),
    ("prymcalc", "multiplicities_distinct"),
    ("prymcalc", "non_jacobian_inequality"),
)

# DDF calls on polynomials up to this degree count as "small": ddf-mix's
# sampling runs factor degree 10 and 14, its certify runs degree 29 to 122
SMALL_DEGREE = 16

# functions whose calls are checked for arguments already seen in the same
# invocation (the duplicated leaf work the ROADMAP wants computed once)
REPEAT_CHECKED = {
    "intpoly.reduce_and_factor_degrees",
    "intpoly.irreducible_over_Q",
    "intpoly.discriminant",
}


def _attrs(name, args, result):
    """Per-call attributes that the per-layer counters sum."""
    if name == "intpoly.reduce_and_factor_degrees":
        ramified = result is sys.modules["prymcert.intpoly"].RAMIFIED
        return {"degree": args[0].degree, "ramified": int(ramified)}
    if name == "fpmodule.commutant_dim":
        d = args[1].dim
        return {"unknowns": d * d, "rows": len(args[0]) * d * d}
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, invocation, attrs]
        self._stack = []
        self._seen = {}
        self._originals = {}  # (module or class, attribute) -> original object
        self.invocation = -1

    def start_invocation(self, index):
        self.invocation = index
        self._seen = {name: set() for name in REPEAT_CHECKED}

    def _wrap(self, name, fn):
        tracer = self
        check_repeat = name in REPEAT_CHECKED
        is_commutant = name == "fpmodule.commutant_dim"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_commutant:
                args = (tuple(args[0]),) + args[1:]  # countable, and passed on unchanged
            repeat = 0
            if check_repeat:
                key = (args, tuple(sorted(kwargs.items())))
                seen = tracer._seen[name]
                repeat = int(key in seen)
                seen.add(key)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.invocation, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            attrs = _attrs(name, args, result)
            if check_repeat:
                attrs = dict(attrs or {}, repeat=repeat)
            span[5] = attrs
            return result

        return wrapper

    def install(self):
        """Wrap every traced function at every binding site in `prymcert.*`.

        Returns the names in TRACED that the program no longer defines; their
        metrics read 0.
        """
        modules = [m for n, m in sorted(sys.modules.items()) if n == "prymcert" or n.startswith("prymcert.")]
        replaced = {}  # id(original) -> wrapper
        missing = []
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            owner = sys.modules.get(f"prymcert.{mod_name}")
            *cls_name, fn_name = attr.split(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name[0], None)
            fn = getattr(owner, fn_name, None) if owner is not None else None
            if not callable(fn):
                missing.append(name)
            elif cls_name:
                self._originals[(owner, fn_name)] = owner.__dict__[fn_name]
                setattr(owner, fn_name, self._wrap(name, owner.__dict__[fn_name]))
            else:
                replaced[id(fn)] = self._wrap(name, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    self._originals[(module, attr)] = value
                    setattr(module, attr, replaced[id(value)])
        stale = [
            f"{module.__name__}.{where}"
            for module in modules
            for where, value in _bindings(module)
            if id(value) in replaced
        ]
        if stale:
            self.uninstall()
            raise RuntimeError(f"originals still reachable, calls would go untraced: {stale}")
        return missing

    def uninstall(self):
        for (owner, attr), original in self._originals.items():
            setattr(owner, attr, original)
        self._originals.clear()


def _bindings(module):
    """Module attributes, and the items of module-level containers (dispatch tables)."""
    for attr, value in vars(module).items():
        yield attr, value
        if isinstance(value, dict):
            yield from ((f"{attr}[{key!r}]", item) for key, item in value.items())
        elif isinstance(value, (list, tuple, set, frozenset)):
            yield from ((f"{attr}[{i}]", item) for i, item in enumerate(value))


def pass_metrics(spans):
    """Per-layer metrics of one traced pass over a workload's invocations.

    Self time is a span's duration minus its direct children's durations; a
    layer's calls and seconds count only entries from another layer.
    """
    incl = [s[2] - s[1] for s in spans]
    self_s = list(incl)
    for s, d in zip(spans, incl):
        if s[3] >= 0:
            self_s[s[3]] -= d
    calls, attr_sums, layer_calls = Counter(), Counter(), Counter()
    total, selfs, layer_s = defaultdict(float), defaultdict(float), defaultdict(float)
    for s, d, own in zip(spans, incl, self_s):
        name = s[0]
        calls[name] += 1
        total[name] += d  # no traced function recurses, so nothing is counted twice
        selfs[name] += own
        for key, value in (s[5] or {}).items():
            attr_sums[name, key] += value
        layer = name.split(".")[0]
        if s[3] < 0 or spans[s[3]][0].split(".")[0] != layer:
            layer_calls[layer] += 1
            layer_s[layer] += d

    main_s = total["certcli.main"]
    out = {
        "certcli.main.s": main_s,
        "certcli.main.self_s": selfs["certcli.main"],
        "certcli._canonical.s": total["certcli._canonical"],
    }
    for fn in ("certify_prym", "certify_wdm_over_Q", "cyclotomic_descent", "chebotarev_verdict"):
        out[f"galoiscert.{fn}.self_s"] = selfs[f"galoiscert.{fn}"]
    out["galoiscert.Certificate.to_json.s"] = total["galoiscert.Certificate.to_json"]
    rf = "intpoly.reduce_and_factor_degrees"
    out.update({
        f"{rf}.calls": calls[rf],
        f"{rf}.s": total[rf],
        f"{rf}.degree_sum": attr_sums[rf, "degree"],
        f"{rf}.ramified": attr_sums[rf, "ramified"],
        f"{rf}.repeat_calls": attr_sums[rf, "repeat"],
        f"{rf}.share": total[rf] / main_s,
    })
    for size, small in (("small", True), ("large", False)):
        picked = [d for sp, d in zip(spans, incl)
                  if sp[0] == rf and (sp[5]["degree"] <= SMALL_DEGREE) == small]
        out[f"{rf}.{size}_deg_calls"] = len(picked)
        out[f"{rf}.{size}_deg_s"] = sum(picked)
    for name in ("intpoly.irreducible_over_Q", "intpoly.discriminant"):
        out.update({
            f"{name}.calls": calls[name],
            f"{name}.s": total[name],
            f"{name}.repeat_calls": attr_sums[name, "repeat"],
        })
    cd = "fpmodule.commutant_dim"
    out.update({
        "signedperm.census.calls": calls["signedperm.census"],
        "signedperm.census.s": total["signedperm.census"],
        "signedperm.transitivity_degree.s": total["signedperm.transitivity_degree"],
        "signedperm.sm_certificate.calls": calls["signedperm.sm_certificate"],
        f"{cd}.calls": calls[cd],
        f"{cd}.s": total[cd],
        f"{cd}.unknowns": attr_sums[cd, "unknowns"],
        f"{cd}.rows": attr_sums[cd, "rows"],
        f"{cd}.share": total[cd] / main_s,
        "fpmodule.heart_f2_irreducible.calls": calls["fpmodule.heart_f2_irreducible"],
        "fpmodule.heart_f2_irreducible.s": total["fpmodule.heart_f2_irreducible"],
        "fpmodule.odd_space.s": total["fpmodule.odd_space"],
        "prymcalc.calls": layer_calls["prymcalc"],
        "prymcalc.s": layer_s["prymcalc"],
    })
    return out


def median_metrics(per_pass):
    """Median of each metric over the traced passes; counts stay whole numbers."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        whole = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if whole else statistics.median(values)
    return out
