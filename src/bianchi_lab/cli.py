"""Command-line orchestration: verification suites, slab experiments and
the convention audit, with machine-readable reports.

Exit codes: 0 all cases pass, 1 case failures, 2 usage/manifest errors,
3 internal failure, 4 convention mismatch in the audit search.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import sys

MANIFEST_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "suite": {"enum": ["algebra", "calculus", "boundary",
                           "linearization", "green", "bvp", "all"]},
        "preset": {"enum": ["flat_cartesian", "flat_slab_periodic",
                            "polar_ball", "conformal_bump",
                            "curved_generic"]},
        "dim": {"type": "integer", "minimum": 3, "maximum": 6},
        "dims": {"type": "array", "items": {"type": "integer",
                                            "minimum": 3, "maximum": 6}},
        "dims_weyl": {"type": "array", "items": {"type": "integer",
                                                 "minimum": 4, "maximum": 6}},
        "grid": {"type": "array", "items": {"type": "integer", "minimum": 4}},
        "seed": {"type": "integer", "minimum": 0},
        "samples": {"type": "integer", "minimum": 1},
        "source": {"enum": ["discrete-admissible", "continuum-admissible",
                            "inadmissible-divergence",
                            "inadmissible-boundary"]},
        "study": {"type": "boolean"},
        "serial": {"type": "boolean"},
        "out": {"type": "string"},
        "format": {"enum": ["json", "csv"]},
    },
}

#: The BLAS/OpenMP thread-count variables a report records.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: The keys each command reads, ``verify`` with those of its suite in
#: ``verify._SUITE_KEYS``; a run that sets any other key is refused.
_KEYS_READ = {"verify": ("seed", "serial", "out", "format", "suite"),
              "solve": ("seed", "serial", "out", "format", "preset", "dim",
                        "grid", "source", "study")}

#: The keys with a default value; the readers of the others use cfg.get.
DEFAULTS = {
    "suite": "all",
    "preset": "flat_slab_periodic",
    "dim": 3,
    "seed": 1,
    "serial": False,
    "format": "json",
}


def _load_manifest(path: str) -> dict:
    import jsonschema

    with open(path) as fh:
        data = json.load(fh)
    jsonschema.validate(data, MANIFEST_SCHEMA)
    return data


def _merged_config(args) -> dict:
    """The manifest, then the flags, over ``DEFAULTS``; raises
    ``ValueError`` when they set a key that the run does not read."""
    cfg = dict(DEFAULTS)
    given = _load_manifest(args.manifest) if args.manifest else {}
    for key in ("suite", "preset", "dim", "seed", "source", "out", "format"):
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
    if getattr(args, "grid", None):
        given["grid"] = [int(g) for g in args.grid.split(",")]
    for key in ("study", "serial"):
        if getattr(args, key, False):
            given[key] = True
    cfg.update(given)
    one_cpu = cfg["serial"] and _one_cpu()
    cfg["serial"], cfg["threads"] = _pin_threads(cfg["serial"])
    cfg["serial"] = cfg["serial"] and one_cpu
    reads = set(_KEYS_READ[args.command])
    if args.command == "verify":
        from .verify import _SUITE_KEYS  # after _pin_threads: loads numpy

        suites = _SUITE_KEYS if cfg["suite"] == "all" else [cfg["suite"]]
        reads.update(*(_SUITE_KEYS[name] for name in suites))
    unread = sorted(set(given) - reads)
    if unread:
        raise ValueError(f"this {args.command} run reads none of {unread}")
    return cfg


def _one_cpu() -> bool:
    """Narrow this thread's CPU affinity to one CPU, so that the chunk
    pool of ``charts._by_chunks``, which reads the affinity, runs one
    worker; False where the platform has no affinity call.  ``main``
    restores the affinity when the command returns."""
    if not hasattr(os, "sched_setaffinity"):
        return False
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return True


def _pin_threads(serial: bool) -> tuple:
    """Under ``serial``, set each BLAS thread variable to "1" unless it is
    already set.

    BLAS reads them once, when numpy is first imported.  So when numpy is
    already loaded nothing is written: the result is (False, the
    variables as found).  Otherwise it is (serial and all three read
    "1", the variables as written).
    """
    if "numpy" in sys.modules:
        return False, {var: os.environ.get(var) for var in THREAD_VARS}
    if serial:
        for var in THREAD_VARS:
            os.environ.setdefault(var, "1")
    found = {var: os.environ.get(var) for var in THREAD_VARS}
    return serial and all(v == "1" for v in found.values()), found


def _report(cfg: dict, cases: list, extra_meta: dict | None = None) -> dict:
    from . import __version__
    from .conventions import load_conventions

    import numpy
    import scipy

    from .charts import _chunk_workers

    meta = {
        "tool": "bianchi-lab",
        "version": __version__,
        "seed": cfg["seed"],
        "dim": cfg["dim"],
        "grid": cfg.get("grid"),
        "serial": bool(cfg.get("serial")),
        "conventions_hash": load_conventions()["hash"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "threads": cfg["threads"],
        "chunk_workers": _chunk_workers(),
    }
    if extra_meta:
        meta.update(extra_meta)
    summary = {
        "total": len(cases),
        "passed": sum(1 for c in cases if c["pass"]),
        "failed": sum(1 for c in cases if not c["pass"]),
    }
    return {"meta": meta, "cases": cases, "summary": summary}


def _emit(report: dict, cfg: dict) -> None:
    if cfg.get("format") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "value", "tolerance", "at_least", "pass",
                         "anchor"])
        for c in report["cases"]:
            writer.writerow([c["name"], repr(c["value"]),
                             repr(c["tolerance"]), c["at_least"], c["pass"],
                             c["anchor"]])
        text = buf.getvalue()
    else:
        text = json.dumps(report, sort_keys=True, indent=1) + "\n"
    if cfg.get("out"):
        with open(cfg["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_case_lines(cases: list) -> None:
    for c in cases:
        status = "PASS" if c["pass"] else "FAIL"
        bound = ">=" if c["at_least"] else "<="
        print(f"[{status}] {c['name']}: value={c['value']:.3e} "
              f"{bound} tol={c['tolerance']:.3e} ({c['anchor']})")


def cmd_verify(args) -> int:
    cfg = _merged_config(args)
    from .verify import run_suite

    cases = run_suite(cfg["suite"], cfg)
    report = _report(cfg, cases, {"command": "verify",
                                  "suite": cfg["suite"]})
    _print_case_lines(cases)
    _emit(report, cfg)
    return 0 if report["summary"]["failed"] == 0 else 1


def cmd_solve(args) -> int:
    cfg = _merged_config(args)
    if cfg["preset"] != "flat_slab_periodic":
        print("the solvability experiment runs on the flat periodic slab "
              "only; other backgrounds would need the lifted operators",
              file=sys.stderr)
        return 2
    grid = cfg.get("grid") or [16]
    from .verify import slab_solve_cases, slab_unchecked_reason

    if cfg.get("source"):
        reason = slab_unchecked_reason(cfg["source"], grid,
                                       bool(cfg.get("study")))
        if reason:
            print(f"the {cfg['source']} source {reason}", file=sys.stderr)
            return 2
    from .bvp import cohomology_probe, lateral_block_svals, spectral_gap
    from .charts import make_chart

    chart = make_chart(cfg["preset"], cfg["dim"])
    kinds = ([cfg["source"]] if cfg.get("source") else
             ["discrete-admissible", "continuum-admissible",
              "inadmissible-divergence", "inadmissible-boundary"])
    cases, tables, unchecked = slab_solve_cases(
        chart, [(kind, grid, cfg["seed"]) for kind in kinds],
        study=bool(cfg.get("study")))
    n0 = min(grid)
    spec = lateral_block_svals(n0, cfg["dim"])["spectrum"]
    gap, nkernel = spectral_gap(spec)
    probe = cohomology_probe(n0, chart)
    meta = {
        "command": "solve",
        "preset": cfg["preset"],
        "sigma_min": float(spec[0]),
        "kernel_dim": int(nkernel),
        "gap_beyond_kernel": float(gap),
        "cohomology": {"dim_h0": probe["dim_h0"],
                       "dim_h1": probe["dim_h1"]},
        "residual_tables": tables,
        "unchecked": unchecked,
    }
    report = _report(cfg, cases, meta)
    _print_case_lines(cases)
    _emit(report, cfg)
    return 0 if report["summary"]["failed"] == 0 else 1


def cmd_audit(args) -> int:
    from .conventions import (canonical_json, compute_conventions,
                              load_conventions, save_conventions)

    try:
        fresh = compute_conventions()
    except RuntimeError as exc:
        print(f"convention search failed: {exc}", file=sys.stderr)
        return 4
    if args.write:
        save_conventions(fresh, args.write)
        print(f"conventions written to {args.write} "
              f"(hash {fresh['hash']})")
        return 0
    committed = load_conventions()
    same = canonical_json(fresh) == canonical_json(committed)
    print(f"recomputed hash {fresh['hash']}, committed {committed['hash']}")
    if not same:
        for key in ("ricci_action", "constraints"):
            if fresh[key] != committed[key]:
                print(f"MISMATCH {key}: recomputed {fresh[key]} "
                      f"!= committed {committed[key]}")
        return 1
    print("conventions match the committed artifact")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bianchi-lab",
        description="verification suites for gauged linearized Einstein "
                    "boundary-value problems on desk-scale geometries")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--manifest", help="JSON manifest path")
        p.add_argument("--dim", type=int)
        p.add_argument("--grid", help="comma-separated resolutions")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="report output path")
        p.add_argument("--format", choices=["json", "csv"])
        p.add_argument("--serial", action="store_true",
                       help="single-threaded, bit-reproducible runs: one "
                       "BLAS thread and one chunk worker")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", choices=list(
        MANIFEST_SCHEMA["properties"]["suite"]["enum"]))
    common(pv)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("solve", help="run the slab solvability experiment")
    ps.add_argument("--source", choices=list(
        MANIFEST_SCHEMA["properties"]["source"]["enum"]))
    ps.add_argument("--preset", choices=list(
        MANIFEST_SCHEMA["properties"]["preset"]["enum"]))
    ps.add_argument("--study", action="store_true",
                    help="append convergence studies")
    common(ps)
    ps.set_defaults(func=cmd_solve)

    pa = sub.add_parser("audit", help="recompute the convention constants")
    pa.add_argument("--write", help="write a fresh conventions artifact")
    pa.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else None
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        import jsonschema

        if isinstance(exc, jsonschema.ValidationError):
            print(f"manifest error: {exc.message}", file=sys.stderr)
            return 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    finally:
        if cpus is not None:
            os.sched_setaffinity(0, cpus)


if __name__ == "__main__":
    sys.exit(main())
