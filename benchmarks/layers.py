"""Which tessella functions the traced run wraps, and the per-layer metrics.

The layers are the package's modules.  Each wrapped function is public; a
metric is either a count recorded at the function's boundary or a time taken
from its spans ("self" excludes the time of traced callees).  Importing this
module does not import tessella, so ``import_cli_ms`` sees a cold import.
"""

from __future__ import annotations

import importlib
import os
import time

from workloads import nproc

LAYERS = ("surfacemap", "pathalg", "equivariant", "presentation", "repcount",
          "cli")
# count-sweep's enumerate_reps configurations: d, q, mode and thread count
# ("tnproc" is TESSELLA_THREADS = nproc).
COUNT_CONFIGS = ("d1_q11_exhaustive_t1", "d1_q11_exhaustive_tnproc",
                 "d2_q2_exhaustive_t1", "d1_q17_sample_t1")


def _threads_tag() -> str:
    threads = int(os.environ.get("TESSELLA_THREADS", "1"))
    return "tnproc" if 1 < threads == nproc() else f"t{threads}"


def _count_tag(args, kwargs) -> str:
    d, q = args[2], args[3]
    return f"d{d}_q{q}_{kwargs.get('mode', 'exhaustive')}_{_threads_tag()}"


def _probe_points(args, kwargs, result) -> int:
    from tessella.repcount import state_space_size
    return state_space_size(args[0], 1, args[3])


# (module, function, value at return, tag at entry)
SPECS = (
    ("tessella.surfacemap", "dual_quiver", None, None),
    ("tessella.surfacemap", "validate_tiling", None, None),
    ("tessella.pathalg", "normalize", None, None),
    ("tessella.pathalg", "cyclic_derivative", None, None),
    ("tessella.pathalg", "multiply", None, None),
    ("tessella.pathalg", "check_d_squared", None, None),
    ("tessella.equivariant", "xi_embed", None, None),
    ("tessella.equivariant", "factor_word", None, None),
    ("tessella.equivariant", "all_dimers", lambda a, k, r: len(r), None),
    ("tessella.equivariant", "choose_homogeneous_xi", None, None),
    ("tessella.equivariant", "build_orbit_quiver", None, None),
    ("tessella.equivariant", "transport_potential", None, None),
    ("tessella.equivariant", "refine_tiling", None, None),
    ("tessella.equivariant", "equivariant_dimer", None, None),
    ("tessella.equivariant", "verify_transport_identity", None, None),
    ("tessella.presentation", "dehn_reduce", None, None),
    ("tessella.presentation", "free_reduce", None, None),
    ("tessella.presentation", "verify_psi_relations", None, None),
    ("tessella.presentation", "contracted_relations", None, None),
    ("tessella.presentation", "check_derivation_script", None, None),
    ("tessella.repcount", "enumerate_reps", lambda a, k, r: r.total,
     _count_tag),
    ("tessella.repcount", "conjecture_probe_d1", _probe_points, None),
    ("tessella.repcount", "crit_check", None, None),
    ("tessella.cli", "main", None, None),
    ("tessella.cli", "run_pipeline", None, None),
)

LAYER_UNITS = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "surfacemap.dual_quiver.self_ms": "ms",
    "surfacemap.validate_tiling.self_ms": "ms",
    "pathalg.normalize.calls": "count",
    "pathalg.normalize.ns_per_call": "ns",
    "pathalg.cyclic_derivative.calls": "count",
    "pathalg.cyclic_derivative.us_per_call": "us",
    "pathalg.multiply.calls": "count",
    "pathalg.check_d_squared.self_ms": "ms",
    "equivariant.xi_embed.ns_per_word": "ns",
    "equivariant.factor_word.ns_per_word": "ns",
    "equivariant.all_dimers.self_ms": "ms",
    "equivariant.all_dimers.matchings": "count",
    "equivariant.choose_homogeneous_xi.calls": "count",
    "equivariant.choose_homogeneous_xi.self_ms": "ms",
    "equivariant.build_orbit_quiver.calls": "count",
    "equivariant.choice.accept_ratio": "ratio",
    "equivariant.transport_potential.calls": "count",
    "equivariant.transport_potential.self_ms": "ms",
    "equivariant.refine_tiling.self_ms": "ms",
    "equivariant.equivariant_dimer.self_ms": "ms",
    "equivariant.verify_transport_identity.self_ms": "ms",
    "presentation.dehn_reduce.calls": "count",
    "presentation.dehn_reduce.us_per_word": "us",
    "presentation.free_reduce.calls": "count",
    "presentation.verify_psi_relations.self_ms": "ms",
    "presentation.contracted_relations.self_ms": "ms",
    "presentation.check_derivation_script.self_ms": "ms",
    "repcount.enumerate_reps.points": "count",
    **{f"repcount.enumerate_reps.ns_per_point.{c}": "ns"
       for c in COUNT_CONFIGS},
    "repcount.parallel_efficiency": "ratio",
    "repcount.conjecture_probe_d1.ns_per_point": "ns",
    "repcount.crit_check.us_per_point": "us",
    "cli.import_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.run_pipeline.self_ms": "ms",
    "trace_overhead_frac": "fraction",
}


def import_cli_ms() -> float:
    """Wall time of the first ``import tessella.cli`` in this process."""
    t0 = time.perf_counter()
    importlib.import_module("tessella.cli")
    return (time.perf_counter() - t0) * 1e3


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(names: list, tags: dict, spans: dict) -> dict:
    """Every metric of ``LAYER_UNITS`` except the two the caller measures
    (``cli.import_ms`` and ``trace_overhead_frac``).  A function that the
    workload never calls reads 0."""
    stats = {n: {"calls": 0, "ns": 0, "self_ns": 0, "value": 0, "ok": 0}
             for n in names}
    for nid, name in enumerate(names):
        mask = spans["name"] == nid
        s = stats[name]
        s["calls"] = int(mask.sum())
        s["ns"] = int(spans["dur_ns"][mask].sum())
        s["self_ns"] = int(spans["self_ns"][mask].sum())
        values = spans["value"][mask]
        s["value"] = int(values[values >= 0].sum())
        s["ok"] = int((values >= 0).sum())
    by_tag: dict = {}
    row_of = {int(sid): i for i, sid in enumerate(spans["sid"])}
    for sid, tag in tags.items():
        i = row_of[sid]
        ns, pts = by_tag.get(tag, (0, 0))
        by_tag[tag] = (ns + int(spans["dur_ns"][i]),
                       pts + int(spans["value"][i]))

    out = {}
    for key in LAYER_UNITS:
        parts = key.split(".")
        if parts[1:] == ["self_ms"]:
            out[key] = sum(s["self_ns"] for n, s in stats.items()
                           if n.startswith(parts[0] + ".")) / 1e6
            continue
        fn = ".".join(parts[:2])
        s = stats.get(fn)
        metric = parts[2] if len(parts) > 2 else ""
        if metric == "self_ms":
            out[key] = s["self_ns"] / 1e6
        elif metric == "calls":
            out[key] = s["calls"]
        elif metric in ("ns_per_call", "ns_per_word"):
            out[key] = _ratio(s["ns"], s["calls"])
        elif metric in ("us_per_call", "us_per_word", "us_per_point"):
            out[key] = _ratio(s["ns"], s["calls"]) / 1e3
        elif metric in ("matchings", "points"):
            out[key] = s["value"]
    for config in COUNT_CONFIGS:
        ns, pts = by_tag.get(config, (0, 0))
        out[f"repcount.enumerate_reps.ns_per_point.{config}"] = _ratio(ns, pts)
    probe = stats["repcount.conjecture_probe_d1"]
    out["repcount.conjecture_probe_d1.ns_per_point"] = _ratio(probe["ns"],
                                                              probe["value"])
    one = by_tag.get(COUNT_CONFIGS[0], (0, 0))[0]
    many = by_tag.get(COUNT_CONFIGS[1], (0, 0))[0]
    out["repcount.parallel_efficiency"] = _ratio(one, nproc() * many)
    out["equivariant.choice.accept_ratio"] = _ratio(
        stats["equivariant.choose_homogeneous_xi"]["ok"],
        stats["equivariant.build_orbit_quiver"]["calls"])
    return {k: v for k, v in out.items()
            if k not in ("cli.import_ms", "trace_overhead_frac")}
