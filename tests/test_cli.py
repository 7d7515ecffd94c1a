import json
import os
import platform
import subprocess
import sys

import numpy
import pytest
import scipy

from bianchi_lab import verify
from bianchi_lab.cli import _keys_read, main
from bianchi_lab.conventions import load_conventions


def run(argv):
    return main(argv)


def test_verify_algebra_report_schema(tmp_path):
    out = tmp_path / "r.json"
    code = run(["verify", "--suite", "algebra", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"]["failed"] == 0
    assert report["meta"]["seed"] == 1
    assert report["meta"]["conventions_hash"] == load_conventions()["hash"]
    anchors = [c["anchor"] for c in report["cases"]]
    assert all(anchors)  # every case carries exactly one anchor tag
    for c in report["cases"]:
        assert set(c) == {"name", "value", "tolerance", "at_least", "pass",
                          "anchor"}


def test_csv_export(tmp_path):
    out = tmp_path / "r.csv"
    code = run(["verify", "--suite", "algebra", "--seed", "2",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,value,tolerance,at_least,pass,anchor"
    assert len(lines) > 5


def test_manifest_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"suite": "algebra", "bogus": 1}))
    out = tmp_path / "r.json"
    code = run(["verify", "--manifest", str(bad), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_corrupted_manifest(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("manifest", [
    {"suite": "bvp", "grid": []}, {"suite": "algebra", "dims": []},
    {"suite": "boundary", "dims_weyl": []}])
def test_manifest_rejects_an_empty_list(manifest, tmp_path):
    # an empty list would run no case of the key, or none of its suite
    man = tmp_path / "m.json"
    man.write_text(json.dumps(manifest))
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(man), "--out", str(out)]) == 2
    assert not out.exists()


def test_manifest_supplies_defaults(tmp_path):
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"suite": "algebra", "seed": 7,
                               "samples": 5}))
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(man), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["meta"]["seed"] == 7


@pytest.mark.parametrize("argv", [
    ["--suite", "bvp", "--preset", "polar_ball"],
    ["--suite", "algebra", "--study"],
])
def test_verify_rejects_solve_only_flags(argv, tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", *argv, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("preset", "polar_ball"),
                                       ("study", True),
                                       ("source", "continuum-admissible")])
def test_verify_rejects_solve_only_manifest_keys(key, value, tmp_path):
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"suite": "algebra", key: value}))
    out = tmp_path / "r.json"
    assert run(["verify", "--manifest", str(man), "--out", str(out)]) == 2
    assert not out.exists()


def test_verify_report_records_no_preset(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--suite", "algebra", "--out", str(out)]) == 0
    assert "preset" not in json.loads(out.read_text())["meta"]


def test_solve_rejects_non_flat_preset(tmp_path):
    # the experiment runs on the flat periodic slab only, and no flag or
    # manifest key selects a background
    assert run(["solve", "--preset", "conformal_bump"]) == 2
    man = tmp_path / "m.json"
    for preset in ("conformal_bump", "flat_slab_periodic"):
        man.write_text(json.dumps({"preset": preset}))
        assert run(["solve", "--manifest", str(man)]) == 2


# the keys that select what a run computes, besides seed and serial
SETTING_KEYS = {"suite", "dim", "dims", "dims_weyl", "grid", "samples",
                "source", "study"}


@pytest.mark.parametrize("argv,manifest,settings", [
    pytest.param(["verify"], {"suite": "algebra", "dims": [4], "samples": 2},
                 {"suite": "algebra", "dims": [4], "samples": 2},
                 id="algebra-manifest"),
    pytest.param(["verify", "--suite", "bvp", "--grid", "8,12,16"], None,
                 {"suite": "bvp", "dim": 3, "grid": [8, 12, 16]},
                 id="bvp-flags"),
    pytest.param(["solve", "--source", "inadmissible-boundary", "--grid",
                  "8"], None,
                 {"dim": 3, "grid": [8], "source": "inadmissible-boundary",
                  "study": False}, id="solve-flags"),
    pytest.param(["solve", "--grid", "8"], None,
                 {"dim": 3, "grid": [8], "source": [
                     "discrete-admissible", "continuum-admissible",
                     "inadmissible-divergence", "inadmissible-boundary"],
                  "study": False}, id="solve-all-kinds"),
    pytest.param(["verify", "--suite", "algebra"], None,
                 {"suite": "algebra", "dims": [3, 4, 5, 6], "samples": 50},
                 id="algebra-defaults"),
])
def test_report_meta_records_the_settings_the_run_read(argv, manifest,
                                                       settings, tmp_path):
    out = tmp_path / "r.json"
    if manifest is not None:
        man = tmp_path / "m.json"
        man.write_text(json.dumps(manifest))
        argv = argv + ["--manifest", str(man)]
    assert run(argv + ["--seed", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    meta = report["meta"]
    assert meta["seed"] == 2
    assert {key: meta[key] for key in settings} == settings
    assert not (SETTING_KEYS - set(settings)) & set(meta)
    if settings.get("dims") == [4]:  # the run read them: 2 samples at d=4
        names = [c["name"] for c in report["cases"]]
        assert "duality-contraction-d4" in names
        assert not any(n.endswith(("-d3", "-d5", "-d6")) for n in names)


def test_meta_records_a_default_per_suite_where_the_suites_differ(
        monkeypatch):
    # under --suite all, meta records the value each suite ran: one value
    # where every suite that reads the key has the same default, else
    # {suite: default}; a key the run sets is recorded as set
    reads = _keys_read("verify", "all")
    assert reads["grid"] == {"green": [8, 16, 32], "bvp": [8, 12, 16]}
    assert reads["dims"] == {"algebra": [3, 4, 5, 6], "calculus": [3, 4],
                             "boundary": [3, 4]}
    assert reads["samples"] == {"algebra": 50, "calculus": 100,
                                "boundary": 50}
    assert (reads["dims_weyl"], reads["dim"]) == ([4, 5], 3)
    assert _keys_read("verify", "green")["grid"] == [8, 16, 32]
    assert _keys_read("solve", None)["grid"] == [16]
    # run_suite fills in each default that a partial config lacks
    seen = {}
    monkeypatch.setitem(verify.SUITES, "bvp",
                        lambda cfg: seen.update(cfg) or [])
    assert verify.run_suite("bvp", {"seed": 4, "grid": [8]}) == []
    assert seen == {"seed": 4, "dim": 3, "grid": [8]}


@pytest.mark.parametrize("argv", [
    ["--source", "continuum-admissible", "--grid", "8"],
    ["--source", "continuum-admissible", "--grid", "6,8", "--study"],
    ["--source", "discrete-admissible", "--grid", "8,12"],
    ["--source", "inadmissible-divergence", "--grid", "6"],
])
def test_solve_rejects_a_source_that_builds_no_case(argv, capsys):
    assert run(["solve", *argv]) == 2
    assert "source" in capsys.readouterr().err


def test_solve_names_the_minimum_grid_of_a_coarse_source(capsys):
    # the divergence source is empty below n=7, so there is no solve
    assert run(["solve", "--source", "inadmissible-divergence",
                "--grid", "5,6"]) == 2
    assert "needs a grid >= 7" in capsys.readouterr().err


def test_solve_lists_the_kinds_it_cannot_check(tmp_path):
    # at n=8 the discrete-admissible source cannot be built and one grid
    # gives no continuum slope: both are named, only solved kinds get a
    # residual table
    out = tmp_path / "r.json"
    assert run(["solve", "--grid", "8", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    meta = report["meta"]
    assert set(meta["unchecked"]) == {"discrete-admissible",
                                      "continuum-admissible"}
    assert all(meta["unchecked"].values())
    tables = meta["residual_tables"]
    assert set(tables) == {"continuum-admissible", "inadmissible-divergence",
                           "inadmissible-boundary"}
    assert [n for n, _ in tables["continuum-admissible"]] == [8]
    assert {c["name"] for c in report["cases"]} == {
        "obstruction-divergence", "obstruction-boundary"}


def test_unknown_flag_is_usage_error():
    assert run(["verify", "--nonsense"]) == 2


@pytest.mark.parametrize("key", ["tol", "eps"])
def test_inputs_no_suite_reads_are_rejected(key, tmp_path):
    # no suite reads a tolerance or a step size, so neither is accepted
    out = tmp_path / "r.json"
    for command in ("verify", "solve"):
        assert run([command, f"--{key}", "1e-3", "--out", str(out)]) == 2
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"suite": "algebra", key: 1e-3}))
    assert run(["verify", "--manifest", str(man), "--out", str(out)]) == 2
    assert not out.exists()


# the keys each suite reads besides seed, out, format and serial
SUITE_READS = {
    "algebra": {"dims", "samples"},
    "calculus": {"dims", "samples"},
    "boundary": {"dims", "dims_weyl", "samples"},
    "linearization": set(),
    "green": {"grid"},
    "bvp": {"dim", "grid"},
}
SUITE_READS["all"] = set().union(*SUITE_READS.values())
KEY_VALUES = {"dim": 4, "dims": [4], "dims_weyl": [4], "grid": [8, 16],
              "samples": 2}


@pytest.mark.parametrize("key", sorted(KEY_VALUES))
@pytest.mark.parametrize("suite", sorted(SUITE_READS))
def test_verify_takes_only_the_keys_its_suite_reads(suite, key, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(verify, "run_suite", lambda name, cfg: [])
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"suite": suite, key: KEY_VALUES[key]}))
    out = tmp_path / "r.json"
    code = run(["verify", "--manifest", str(man), "--out", str(out)])
    if key in SUITE_READS[suite]:
        assert code == 0
        assert json.loads(out.read_text())["meta"]["suite"] == suite
    else:
        assert code == 2
        assert not out.exists()


@pytest.mark.parametrize("argv,manifest", [
    pytest.param(["verify", "--suite", "linearization", "--dim", "5",
                  "--grid", "8,16"], None, id="linearization-dim-grid-flags"),
    pytest.param(["verify", "--suite", "green", "--dim", "3"], None,
                 id="green-dim-flag"),
    pytest.param(["verify", "--suite", "algebra", "--grid", "8"], None,
                 id="algebra-grid-flag"),
    pytest.param(["verify"], {"suite": "algebra", "grid": [8, 16]},
                 id="algebra-grid-manifest"),
    pytest.param(["solve"], {"samples": 5, "dims": [4], "suite": "green"},
                 id="solve-verify-keys"),
    pytest.param(["solve"], {"suite": "bvp"}, id="solve-suite"),
    pytest.param(["solve"], {"dims": [3]}, id="solve-dims"),
    pytest.param(["solve"], {"dims_weyl": [4]}, id="solve-dims_weyl"),
    pytest.param(["solve"], {"samples": 5}, id="solve-samples"),
])
def test_keys_the_command_does_not_read_are_rejected(argv, manifest,
                                                     tmp_path):
    out = tmp_path / "r.json"
    if manifest is not None:
        man = tmp_path / "m.json"
        man.write_text(json.dumps(manifest))
        argv = argv + ["--manifest", str(man)]
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_serial_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--suite", "algebra", "--seed", "5", "--serial",
                "--out", str(a)]) == 0
    assert run(["verify", "--suite", "algebra", "--seed", "5", "--serial",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("how", ["flag", "manifest"])
def test_serial_in_a_fresh_interpreter_pins_the_thread_variables(how,
                                                                 tmp_path):
    out = tmp_path / "r.json"
    man = tmp_path / "m.json"
    man.write_text(json.dumps({"serial": True}))
    serial = ["--serial"] if how == "flag" else ["--manifest", str(man)]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-m", "bianchi_lab.cli", "verify", "--suite",
         "algebra", *serial, "--out", str(out)],
        env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    meta = json.loads(out.read_text())["meta"]
    assert meta["serial"] is True
    assert meta["threads"] == {"OMP_NUM_THREADS": "1",
                               "OPENBLAS_NUM_THREADS": "1",
                               "MKL_NUM_THREADS": "1"}
    assert meta["chunk_workers"] == 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
@pytest.mark.parametrize("serial", [False, True])
def test_report_records_the_chunk_workers(serial, tmp_path):
    # in this process numpy is loaded, so --serial cannot pin BLAS; it
    # still narrows the chunk pool to one worker for the command only
    cpus = os.sched_getaffinity(0)
    out = tmp_path / "r.json"
    argv = ["verify", "--suite", "algebra", "--out", str(out)]
    assert run(argv + ["--serial"] * serial) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["chunk_workers"] == (1 if serial else len(cpus))
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.parametrize("how", ["--serial"])
def test_thread_pinning_after_numpy_import_is_not_reported(how, tmp_path,
                                                           monkeypatch):
    # numpy is loaded in this process, so BLAS has read its thread count
    # already: main must neither claim serial nor record values it wrote
    assert "numpy" in sys.modules
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    argv = ["verify", "--suite", "algebra", "--out", str(tmp_path / "r.json"),
            how]
    assert run(argv) == 0
    meta = json.loads((tmp_path / "r.json").read_text())["meta"]
    assert meta["serial"] is False
    assert meta["threads"] == {"OMP_NUM_THREADS": "2",
                               "OPENBLAS_NUM_THREADS": None,
                               "MKL_NUM_THREADS": None}
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert "OPENBLAS_NUM_THREADS" not in os.environ


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "algebra"],
    ["solve", "--source", "inadmissible-boundary", "--grid", "6"],
])
def test_report_meta_records_versions_and_threads(argv, tmp_path,
                                                  monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "r.json"
    assert run([*argv, "--out", str(out)]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == numpy.__version__
    assert meta["scipy"] == scipy.__version__
    assert meta["platform"] == platform.platform()
    assert meta["cpu_count"] == os.cpu_count()
    assert meta["threads"]["OMP_NUM_THREADS"] == "3"
    assert meta["threads"]["MKL_NUM_THREADS"] is None
    assert set(meta["threads"]) == {"OMP_NUM_THREADS",
                                    "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS"}


def test_audit_matches_committed_artifact(capsys):
    assert run(["audit"]) == 0
    assert "match" in capsys.readouterr().out


def test_audit_write_roundtrip(tmp_path):
    out = tmp_path / "conv.json"
    assert run(["audit", "--write", str(out)]) == 0
    fresh = json.loads(out.read_text())
    committed = load_conventions()
    assert fresh["constraints"] == committed["constraints"]
    assert fresh["ricci_action"] == committed["ricci_action"]
    assert fresh["hash"] == committed["hash"]
