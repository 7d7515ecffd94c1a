"""One-time convention audit and its persisted artifact.

Two families of constants are pinned empirically, once, against
independent oracles and committed as package data (conventions.json):

* the curvature-action coefficients (a, b) of the closed linearized Ricci
  formula, fit against Richardson-extrapolated finite differences;
* per-line sign/factor constants of the boundary constraint equations,
  fit so the curvature route equals the boundary route on a family of
  charts where every term is active.

The artifact has two readers, and no caller passes its constants along:
``linearize.dric_closed_jets`` reads ``ricci_action``, and the boundary
constraint residuals read ``constraint_constants``.  Recomputation
drifting from it is an error surfaced by the audit command and the tests.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from itertools import product

import numpy as np

__all__ = [
    "compute_conventions",
    "canonical_json",
    "conventions_hash",
    "load_conventions",
    "constraint_constants",
    "ricci_action",
    "save_conventions",
]

_CACHE: dict | None = None


def _audit_samples():
    from .boundary import CollarChart, constraint_pieces
    from .charts import make_chart

    samples = []
    for d in (3, 4):
        for preset, kw in [("conformal_bump", {"amp": 0.15}),
                           ("curved_generic", {"seed": 3, "amp": 0.08})]:
            chart = make_chart(preset, d, **kw)
            rng = np.random.default_rng(1000 + d)
            y = rng.uniform(0.1, 0.9, size=(6, d - 1))
            samples.append(constraint_pieces(CollarChart(chart), y))
    # flat-ball family: every line-1 term is individually nonzero
    for d in (3, 4, 5):
        for radius in (1.5, 2.0):
            chart = make_chart("polar_ball", d, radius=radius)
            rng = np.random.default_rng(2000 + d)
            y = rng.uniform(0.9, 1.1, size=(3, d - 1))
            y[:, -1] *= 0.5
            samples.append(constraint_pieces(CollarChart(chart), y))
    return samples


# the residual of each constraint line in ``combine_constraint_residuals``
_LINE_RESIDUALS = {"line1": "rnn", "line2": "rnt", "line3": "rtt"}


def _fit_line(samples, line):
    """The best (c, e1, e2) of one constraint line and its defect."""
    from .boundary import combine_constraint_residuals

    best = None
    for c, e1, e2 in product((0.5, 1.0, 2.0), (-1, 1), (-1, 1)):
        # every line gets the candidate; only ``line`` is read
        constants = dict.fromkeys(_LINE_RESIDUALS, (c, e1, e2))
        worst = 0.0
        for p in samples:
            r = combine_constraint_residuals(p, constants)
            worst = max(worst,
                        float(np.max(np.abs(r[_LINE_RESIDUALS[line]]))))
        if best is None or worst < best[0]:
            best = (worst, c, e1, e2)
    if best[0] > 1e-8:
        raise RuntimeError(f"constraint audit found no admissible constants "
                           f"(best defect {best[0]:.3e})")
    return [best[1], best[2], best[3]], best[0]


def compute_constraint_constants():
    samples = _audit_samples()
    fits = {line: _fit_line(samples, line) for line in _LINE_RESIDUALS}
    return ({line: fit[0] for line, fit in fits.items()},
            max(fit[1] for fit in fits.values()))


def compute_conventions() -> dict:
    from .charts import make_chart
    from .linearize import fit_ricci_action

    charts = [make_chart("conformal_bump", 3, amp=0.12),
              make_chart("curved_generic", 3, seed=3),
              make_chart("curved_generic", 4, seed=5)]
    (a, b), ric_defect = fit_ricci_action(charts)
    constraints, con_defect = compute_constraint_constants()
    data = {
        "version": 1,
        "ricci_action": [int(a), int(b)],
        "constraints": constraints,
        "audit_defects": {"ricci_action": float(ric_defect),
                          "constraints": float(con_defect)},
    }
    data["hash"] = conventions_hash(data)
    return data


# the pinned constants; ``audit_defects`` are floats kept for the record,
# checked against their tolerances when computed, never compared bit-for-bit
_PINNED_KEYS = ("version", "ricci_action", "constraints")


def canonical_json(data: dict) -> str:
    pinned = {k: data[k] for k in _PINNED_KEYS}
    return json.dumps(pinned, sort_keys=True, separators=(",", ":"))


def conventions_hash(data: dict) -> str:
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()[:16]


def save_conventions(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_conventions() -> dict:
    global _CACHE
    if _CACHE is None:
        text = (resources.files("bianchi_lab") / "conventions.json").read_text()
        _CACHE = json.loads(text)
    return _CACHE


def constraint_constants() -> dict:
    return {k: tuple(v)
            for k, v in load_conventions()["constraints"].items()}


def ricci_action() -> tuple[int, int]:
    return tuple(load_conventions()["ricci_action"])
