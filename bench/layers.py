"""The library functions the traced run wraps and the per-layer metrics it reports.

Metric names are ``<module>.<function>.<stat>`` plus a ``<module>.self_s``
total per module.  Values are per repetition of the workload; p50_us and
p90_us are per call.  A function that is listed here but cannot be found in
the library reports -1 for each of its metrics (and ``trace.missing`` counts
it) instead of a zero that would read like "never called".
"""

from __future__ import annotations

import os


def file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _bonds(args, kwargs, graph):
    return {"bonds": graph.n_bonds}


def _rejections(args, kwargs, result):
    return {"rejections": result[2]}


def _path_bytes(args, kwargs, result):
    return {"bytes": file_size(args[0] if args else kwargs["path"])}


def _cli_bytes_out(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    outs = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("-o", "--out", "--out-csv")]
    return {"bytes_out": sum(file_size(p) for p in outs)}


# "module.function" -> (reported stats, counter function or None)
LAYERS = {
    "energy.bond_graph": (("calls", "self_s", "p50_us", "p90_us", "bonds"), _bonds),
    "energy.total_energy": (("calls", "self_s"), None),
    "energy.gradient": (("calls", "self_s", "p50_us"), None),
    "stability.sample_perturbation": (("calls", "self_s", "p90_us", "rejections", "accept_ratio"), _rejections),
    "stability.stability_trial": (("self_s",), None),
    "stability.hessian_spectrum": (("calls", "self_s"), None),
    "stability.null_space_report": (("self_s",), None),
    "cells.gather_cells": (("calls", "self_s"), None),
    "cells.to_local": (("calls", "self_s"), None),
    "cells.symmetrize": (("calls", "self_s"), None),
    "cells.cell_summary": (("calls", "self_s"), None),
    "reduced.reduced_energy": (("calls", "self_s", "p50_us", "p90_us"), None),
    "reduced.reduced_gradient": (("calls", "self_s"), None),
    "reduced.reduced_hessian": (("calls", "self_s"), None),
    "reduced.minimize_family": (("calls", "self_s"), None),
    "reduced.reference_angles": (("calls", "self_s"), None),
    "fracture.fracture_threshold": (("calls", "self_s"), None),
    "cellspec.cell_hessian": (("calls", "self_s"), None),
    "cellspec.t_jacobian": (("calls", "self_s"), None),
    "cellspec.constrained_rayleigh_min": (("calls", "self_s"), None),
    "pxyz.read_pxyz": (("calls", "self_s", "bytes"), _path_bytes),
    "pxyz.write_pxyz": (("calls", "self_s", "bytes"), _path_bytes),
    "geometry.build_nanotube": (("calls", "self_s"), None),
    "cli.main": (("calls", "self_s", "bytes_out"), _cli_bytes_out),
}

TARGETS = {name: count for name, (_, count) in LAYERS.items()}
MODULES = sorted({name.split(".", 1)[0] for name in LAYERS})

UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p90_us": "us", "bonds": "count",
         "rejections": "count", "accept_ratio": "frac", "bytes": "B", "bytes_out": "B"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, trace.* included."""
    names = [(f"{fn}.{stat}", UNITS[stat]) for fn, (stats, _) in LAYERS.items() for stat in stats]
    names += [(f"{mod}.self_s", "s") for mod in MODULES]
    names += [("trace.overhead_s", "s"), ("trace.unattributed_s", "s"), ("trace.missing", "count"),
              ("trace.count_mismatch", "count")]
    return names


def per_layer_metrics(stats: dict, reps: int, missing: list[str]) -> dict:
    """{name: (value, unit)} from pooled span statistics of `reps` traced repetitions."""
    out = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for fn, (names, _) in LAYERS.items():
        row = stats.get(fn, {})
        module_self[fn.split(".", 1)[0]] += row.get("self_s", 0.0) / reps
        for stat in names:
            if fn in missing:
                value = -1
            elif stat in ("p50_us", "p90_us"):
                value = row.get(stat, 0.0)
            elif stat == "accept_ratio":
                tries = row.get("calls", 0) + row.get("rejections", 0)
                value = row.get("calls", 0) / tries if tries else 0.0
            elif stat == "self_s":
                value = row.get(stat, 0.0) / reps
            else:
                total = row.get(stat, 0)
                value = total // reps if total % reps == 0 else total / reps
            out[f"{fn}.{stat}"] = (value, UNITS[stat])
    for mod, value in module_self.items():
        out[f"{mod}.self_s"] = (value, "s")
    return out
