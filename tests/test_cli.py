import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ptakkit.cli
import ptakkit.families
import ptakkit.game
import ptakkit.search
from ptakkit.cli import main
from ptakkit.families import family_from_json_dict
from ptakkit.intervals import IntervalSystem
from ptakkit.rationals import format_rational


def run(capsys, *argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # argparse's own usage errors, as the shell sees them
        rc = exc.code
    out = capsys.readouterr()
    return rc, out.out, out.err


def report_of(out):
    return json.loads(out)


def strip_timestamp(text):
    return [line for line in text.splitlines() if '"timestamp"' not in line]


# --- gen -------------------------------------------------------------------------

def test_gen_cardinality_counts(tmp_path, capsys):
    out = tmp_path / "fam.json"
    rc, _, _ = run(capsys, "gen", "--kind", "cardinality", "--n", "6", "--k", "3",
                   "--out", str(out))
    assert rc == 0
    data = json.loads(out.read_text())
    assert len(data["maximal"]) == 20  # C(6,3)
    assert data["provenance"]["generator"] == "cardinality"


def test_gen_cycle_cliques(tmp_path, capsys):
    out = tmp_path / "c5.json"
    rc, _, _ = run(capsys, "gen", "--kind", "cycle-cliques", "--n", "5", "--out", str(out))
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["maximal"] == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]


def test_gen_intervals_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--kind", "intervals", "--seed", "1", "--n", "3",
            "--min-measure", "1/4"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_text() == b.read_text()
    IntervalSystem.from_json_dict(json.loads(a.read_text()))


def test_gen_random_deterministic_and_roundtrips(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--kind", "random", "--seed", "9", "--n", "8", "--max-sets", "12"]
    run(capsys, *args, "--out", str(a))
    run(capsys, *args, "--out", str(b))
    assert a.read_text() == b.read_text()
    fam = family_from_json_dict(json.loads(a.read_text()))
    # file is already canonical: loading and re-serializing is the identity
    assert fam.to_json_dict()["maximal"] == json.loads(a.read_text())["maximal"]


def test_gen_infeasible_parameters_exit_2(capsys):
    rc, _, err = run(capsys, "gen", "--kind", "intervals", "--n", "3",
                     "--pieces", "0", "--min-measure", "1/4")
    assert rc == 2
    assert "pieces" in err


@pytest.mark.parametrize("argv, flag", [
    (["--kind", "random", "--n", "3", "--max-sets", "-1"], "--max-sets"),
    (["--kind", "random", "--n", "0"], "--n"),
    (["--kind", "intervals", "--n", "2", "--pieces", "0"], "--pieces"),
    (["--kind", "intervals", "--n", "0"], "--n"),
    (["--kind", "intervals", "--n", "2", "--min-measure", "3/2"], "--min-measure"),
    (["--kind", "cardinality", "--n", "3", "--k", "-1"], "--k"),
    (["--kind", "cardinality", "--n", "3", "--k", "4"], "--k"),
    (["--kind", "cardinality", "--n", "0", "--k", "0"], "--n"),
    (["--kind", "cycle-cliques", "--n", "0"], "--n"),
    (["--kind", "cycle-cliques", "--n", "2"], "--n"),
])
def test_gen_bad_flag_exit_2_names_flag(capsys, argv, flag):
    rc, out, err = run(capsys, "gen", *argv)
    assert rc == 2 and out == ""
    assert err.startswith(f"ptakkit gen: {flag} ")


def test_gen_powerset_kind_is_rejected(capsys):
    # the powerset on n labels is --kind cardinality --n N --k N
    rc, out, err = run(capsys, "gen", "--kind", "powerset", "--n", "3")
    assert rc == 2 and out == ""
    assert "--kind" in err and "'powerset'" in err


def test_gen_seed_defaults_to_zero_and_ignores_env(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("PTAKKIT_SEED", "not-a-seed")
    rc, _, _ = run(capsys, "gen", "--kind", "intervals", "--n", "3",
                   "--min-measure", "1/4", "--out", str(a))
    assert rc == 0
    run(capsys, "gen", "--kind", "intervals", "--seed", "0", "--n", "3",
        "--min-measure", "1/4", "--out", str(b))
    assert a.read_text() == b.read_text()


# --- delta / certificate-verify -----------------------------------------------------

@pytest.fixture()
def family_file(tmp_path, capsys):
    out = tmp_path / "fam.json"
    run(capsys, "gen", "--kind", "cardinality", "--n", "5", "--k", "2",
        "--out", str(out))
    return out


def test_delta_reports_exact_value(family_file, capsys):
    rc, out, _ = run(capsys, "delta", "--family", str(family_file))
    assert rc == 0
    rep = report_of(out)
    assert rep["delta"] == "2/5"
    assert rep["verified"] is True
    assert rep["certificate"]["delta"] == "2/5"
    assert str(family_file) in rep["inputs"]


def test_inputs_hold_sha256_of_file_bytes(family_file, tmp_path, capsys):
    fam = tmp_path / "crlf.json"
    fam.write_bytes(family_file.read_bytes().replace(b"\n", b"\r\n"))
    rc, out, _ = run(capsys, "delta", "--family", str(fam))
    assert rc == 0
    digest = "sha256:" + hashlib.sha256(fam.read_bytes()).hexdigest()
    assert report_of(out)["inputs"] == {str(fam): digest}


@pytest.mark.parametrize("kind", ["graph_cliques", "graph_independent"])
def test_graph_spec_on_empty_ground_set_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"spec": {"kind": kind, "n": 0}}))
    rc, out, err = run(capsys, "delta", "--family", str(path))
    assert rc == 2 and out == ""
    assert err == f"ptakkit delta: {path}: ground set must have at least one element\n"


def test_delta_on_a_clique_deeper_than_the_recursion_limit(tmp_path, capsys):
    fam = tmp_path / "big.json"
    fam.write_text(json.dumps({"spec": {"kind": "graph_independent", "n": 1200}}))
    rc, out, _ = run(capsys, "delta", "--family", str(fam))
    assert rc == 0
    rep = report_of(out)
    assert rep["delta"] == "1/1" and rep["verified"] is True


def test_certificate_verify_round_trip(family_file, tmp_path, capsys):
    _, out, _ = run(capsys, "delta", "--family", str(family_file))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(report_of(out)["certificate"]))
    rc, out, _ = run(capsys, "certificate-verify", "--family", str(family_file),
                     "--certificate", str(cert))
    assert rc == 0
    assert report_of(out)["valid"] is True


def test_certificate_verify_tampered_exit_1(family_file, tmp_path, capsys):
    _, out, _ = run(capsys, "delta", "--family", str(family_file))
    good = report_of(out)["certificate"]
    half_dual = {i: format_rational(Fraction(w) / 2) for i, w in good["dual"].items()}
    for field, value, reason in [("delta", "400001/1000000", "primal-value"),
                                 ("primal", {"0": "2/1", "1": "-1/1"}, "primal-negative"),
                                 ("dual", half_dual, "dual-sum")]:
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({**good, field: value}))
        rc, out, err = run(capsys, "certificate-verify", "--family", str(family_file),
                           "--certificate", str(cert))
        assert rc == 1 and err == ""
        rep = report_of(out)
        assert rep["valid"] is False and rep["reason"] == reason


def test_certificate_with_colliding_keys_exit_2(tmp_path, capsys):
    """"0" and "00" would both name label 0, and the last one read would win."""
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"n": 2, "maximal": [[0], [1]]}))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"delta": "1/2", "primal": {"0": "1/2", "00": "1/2", "1": "1/2"},
                                "dual": {"0": "1/2", "1": "1/2"}}))
    rc, out, err = run(capsys, "certificate-verify", "--family", str(fam),
                       "--certificate", str(cert))
    assert rc == 2 and out == ""
    assert err == (f"ptakkit certificate-verify: {cert}: "
                   "weight key '00' is not an integer in canonical form\n")


# --- norm / search / trace / interval-bound / oracle ----------------------------------

def test_norm_command(family_file, tmp_path, capsys):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"coords": ["1/1", "1/1", "1/1", "1/1", "1/1"]}))
    rc, out, _ = run(capsys, "norm", "--family", str(family_file), "--vector", str(vec))
    assert rc == 0
    rep = report_of(out)["report"]
    assert rep["fnorm"] == "2/1" and rep["l1"] == "5/1" and rep["delta"] == "2/5"
    assert rep["lower_ok"] and rep["upper_ok"] and rep["nonneg_ok"]


def test_search_command(family_file, capsys):
    rc, out, _ = run(capsys, "search", "--family", str(family_file))
    assert rc == 0
    rep = report_of(out)
    assert rep["size"] == 2 and rep["optimal"] is True
    assert rep["bound_check"]["ok"] is True


def test_search_command_searches_once(family_file, capsys, count_calls):
    calls = count_calls("max_member", [ptakkit.search, ptakkit.cli])
    rc, out, _ = run(capsys, "search", "--family", str(family_file))
    assert rc == 0 and report_of(out)["size"] == 2
    assert len(calls) == 1


def test_search_budget_flag_is_rejected(family_file):
    # the search always scans every maximal set, so there is no budget to set
    with pytest.raises(SystemExit) as exc:
        main(["search", "--family", str(family_file), "--budget", "1"])
    assert exc.value.code == 2


def test_trace_command(family_file, capsys):
    rc, out, _ = run(capsys, "trace", "--family", str(family_file), "--subset", "0,2,4")
    assert rc == 0
    rep = report_of(out)
    assert rep["labels"] == [0, 2, 4]
    assert rep["family"]["maximal"] == [[0, 1], [0, 2], [1, 2]]


def test_trace_bad_subset_exit_2(family_file, capsys):
    rc, _, err = run(capsys, "trace", "--family", str(family_file), "--subset", "0,9")
    assert rc == 2 and "subset" in err


def test_interval_bound_command(tmp_path, capsys):
    sysf = tmp_path / "sys.json"
    run(capsys, "gen", "--kind", "intervals", "--seed", "3", "--n", "4",
        "--min-measure", "1/5", "--out", str(sysf))
    rc, out, _ = run(capsys, "interval-bound", "--system", str(sysf))
    assert rc == 0
    assert report_of(out)["report"]["ok"] is True


def test_oracle_command(family_file, capsys):
    rc, out, _ = run(capsys, "oracle", "--family", str(family_file))
    assert rc == 0
    rep = report_of(out)
    assert rep["contains_exact"] is True and rep["converged"] is True
    assert rep["exact"] == "2/5"


def test_oracle_plays_at_fixed_settings(family_file, capsys, count_calls):
    calls = count_calls("fictitious_play", [ptakkit.game, ptakkit.cli])
    rc, _, _ = run(capsys, "oracle", "--family", str(family_file))
    assert rc == 0
    assert [args[1:] for args in calls] == [(10**6, Fraction(1, 10**6))]
    rc, out, _ = run(capsys, "oracle", "--help")
    assert rc == 0
    assert set(re.findall(r"--[a-z][a-z-]*", out)) == {"--help", "--family", "--out"}


@pytest.mark.parametrize("command, flag, value", [
    # oracle plays at fixed settings: argparse rejects these flags itself
    ("oracle", "--epsilon", "0"),
    ("oracle", "--epsilon", "-1/2"),
    ("oracle", "--max-iters", "0"),
    ("oracle", "--max-iters", "-3"),
    ("oracle", "--max-iters", "1000000001"),
    # search has no budget: argparse rejects the flag itself
    ("search", "--budget", "-1"),
    ("search", "--budget", "-5"),
    # labels are ASCII decimal digits: no underscores, no other scripts' digits
    ("trace", "--subset", "1_0"),
    ("trace", "--subset", "\u0665"),
])
def test_bad_flag_exit_2_names_flag(family_file, capsys, command, flag, value):
    rc, out, err = run(capsys, command, "--family", str(family_file), f"{flag}={value}")
    assert rc == 2 and out == ""
    assert flag in err


# --- suite ------------------------------------------------------------------------------

def test_suite_deterministic_and_green(tmp_path, capsys):
    """The seed defaults to 0, and the sizes are fixed and reported."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "suite", "--out", str(a))[0] == 0
    assert run(capsys, "suite", "--seed", "0", "--out", str(b))[0] == 0
    assert strip_timestamp(a.read_text()) == strip_timestamp(b.read_text())
    rep = json.loads(a.read_text())
    assert rep["seed"] == 0 and rep["all_pass"] is True
    assert all(c["pass"] for c in rep["checks"].values())
    assert rep["parameters"] == {"n": 8, "families": 24, "systems": 8, "vectors": 12,
                                 "fp_iters": 200000, "epsilon": "1/1000000"}


# suite takes only --seed (and --out): argparse rejects every other flag
@pytest.mark.parametrize("flag, value", [
    ("--families", "0"),
    ("--fp-iters", "0"),
    ("--fp-iters", "1000000001"),
    ("--epsilon", "0"),
    ("--epsilon", "0.5"),
    ("--n", "0"),
    ("--n", "-1"),
    ("--systems", "-1"),
    ("--vectors", "-1"),
])
def test_suite_bad_parameter_exit_2_names_flag(capsys, flag, value):
    rc, out, err = run(capsys, "suite", f"{flag}={value}")
    assert rc == 2
    assert out == ""
    assert flag in err


# --- malformed inputs ----------------------------------------------------------------------

def test_malformed_json_exit_2_with_line_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "maximal": [[0,')
    rc, _, err = run(capsys, "delta", "--family", str(bad))
    assert rc == 2
    assert f"{bad}:1:" in err


def test_explicit_spec_kind_exit_2_names_kind(tmp_path, capsys):
    # an explicit family is written {"n", "maximal"}, not as a spec
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"spec": {"kind": "explicit", "n": 3, "sets": [[0, 1]]}}))
    rc, out, err = run(capsys, "delta", "--family", str(bad))
    assert rc == 2 and out == ""
    assert err == f"ptakkit delta: {bad}: spec field 'kind': unknown kind 'explicit'\n"


def test_schema_error_exit_2_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"maximal": [[0, 1]]}')
    rc, _, err = run(capsys, "delta", "--family", str(bad))
    assert rc == 2 and "'n'" in err


def test_missing_file_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "delta", "--family", str(tmp_path / "nope.json"))
    assert rc == 2


def test_label_out_of_range_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "maximal": [[0, 5]]}')
    rc, _, err = run(capsys, "delta", "--family", str(bad))
    assert rc == 2 and "label" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["delta"])  # missing --family
    assert exc.value.code == 2


@pytest.mark.parametrize("payload, field", [
    ({"n": 3, "maximal": [[0.7, 1], [2]]}, "'maximal'"),
    ({"n": True, "maximal": [[0]]}, "'n'"),
    ({"spec": {"kind": "cardinality_bound", "n": 5, "k": 2.7}}, "'k'"),
    ({"spec": {"kind": "graph_cliques", "n": 4, "edges": [[0, "1"]]}}, "'edges'"),
])
def test_non_integer_family_field_exit_2(tmp_path, capsys, payload, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "delta", "--family", str(bad))
    assert rc == 2 and out == ""
    assert field in err and "integer" in err


@pytest.mark.parametrize("coord", [0.5, "1/0"])
def test_bad_rational_in_vector_exit_2(family_file, tmp_path, capsys, coord):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"coords": [coord, "1/1", "1/1", "1/1", "1/1"]}))
    rc, _, err = run(capsys, "norm", "--family", str(family_file), "--vector", str(vec))
    assert rc == 2 and str(vec) in err and str(coord) in err


@pytest.mark.parametrize("coord", ["1e30000000", "0.5", "1_000"])
def test_rational_with_exponent_decimal_point_or_underscore_exit_2(
        family_file, tmp_path, capsys, coord):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"coords": [coord, "1/1", "1/1", "1/1", "1/1"]}))
    start = time.perf_counter()
    rc, _, err = run(capsys, "norm", "--family", str(family_file), "--vector", str(vec))
    assert time.perf_counter() - start < 1
    assert rc == 2 and str(vec) in err and coord in err


def test_long_rational_in_vector_exit_2_with_a_short_message(family_file, tmp_path, capsys):
    # a 100,000-digit coordinate is quoted by its start and its length
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"coords": ["1" * 10**5, "1/1", "1/1", "1/1", "1/1"]}))
    rc, _, err = run(capsys, "norm", "--family", str(family_file), "--vector", str(vec))
    assert rc == 2 and err.count("\n") == 1 and str(vec) in err
    assert "100000 characters" in err and len(err.encode()) < 300


def test_float_in_certificate_exit_2(family_file, tmp_path, capsys):
    _, out, _ = run(capsys, "delta", "--family", str(family_file))
    payload = report_of(out)["certificate"]
    payload["delta"] = 0.4
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(payload))
    rc, _, err = run(capsys, "certificate-verify", "--family", str(family_file),
                     "--certificate", str(cert))
    assert rc == 2 and str(cert) in err and "0.4" in err


@pytest.mark.parametrize("command", ["delta", "gen"])
def test_unwritable_out_exit_2(family_file, tmp_path, capsys, command):
    argv = {"delta": ["delta", "--family", str(family_file)],
            "gen": ["gen", "--kind", "cardinality", "--n", "4", "--k", "2"]}[command]
    target = tmp_path / "missing" / "x.json"
    rc, _, err = run(capsys, *argv, "--out", str(target))
    assert rc == 2 and str(target) in err


@pytest.mark.parametrize("payload, field", [
    ({"n": 1.5, "sets": [[["0/1", "1/2"]]]}, "'n'"),
    ({"sets": [[["0/1"]]]}, "['0/1']"),
    ({"sets": [[["0/1", "1/4", "1/2"]]]}, "['0/1', '1/4', '1/2']"),
    ({"sets": [["0/1", "1/2"]]}, "'0/1'"),
    ({"sets": ["0/1"]}, "'sets'"),
    ({"sets": 3}, "'sets'"),
])
def test_malformed_interval_system_exit_2(tmp_path, capsys, payload, field):
    bad = tmp_path / "sys.json"
    bad.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "interval-bound", "--system", str(bad))
    assert rc == 2 and out == ""
    assert str(bad) in err and field in err


@pytest.mark.parametrize("key, value", [("primal", [1]), ("dual", "1/1")])
def test_non_object_certificate_field_exit_2(family_file, tmp_path, capsys, key, value):
    _, out, _ = run(capsys, "delta", "--family", str(family_file))
    payload = report_of(out)["certificate"]
    payload[key] = value
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "certificate-verify", "--family", str(family_file),
                       "--certificate", str(cert))
    assert rc == 2 and out == ""
    assert str(cert) in err and repr(key) in err


def test_string_coords_in_vector_exit_2(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"n": 2, "maximal": [[0, 1]]}))
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"coords": "12"}))
    rc, out, err = run(capsys, "norm", "--family", str(fam), "--vector", str(vec))
    assert rc == 2 and out == ""
    assert str(vec) in err and "'coords'" in err


@pytest.mark.parametrize("command, flag, text", [
    ("interval-bound", "--system", "sets"),
    ("norm", "--vector", "coords"),
    ("certificate-verify", "--certificate", "primal dual delta"),
])
def test_non_object_input_file_exit_2(family_file, tmp_path, capsys, command, flag, text):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(text))
    argv = [command, flag, str(bad)]
    if command != "interval-bound":
        argv += ["--family", str(family_file)]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert str(bad) in err and "must contain a JSON object" in err


@pytest.mark.parametrize("command, flag", [
    ("delta", "--family"),
    ("certificate-verify", "--certificate"),
    ("norm", "--vector"),
    ("interval-bound", "--system"),
])
def test_non_utf8_input_file_exit_2(family_file, tmp_path, capsys, command, flag):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"n": 2, "maximal": [[0, 1]], "note": "\u00e9"}'.encode("latin-1"))
    argv = [command, flag, str(bad)]
    if flag != "--family" and command != "interval-bound":
        argv += ["--family", str(family_file)]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert f"ptakkit {command}: {bad}: " in err and "utf-8" in err


def test_deeply_nested_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 50_000 + "]" * 50_000)
    rc, out, err = run(capsys, "delta", "--family", str(bad))
    assert rc == 2 and out == ""
    assert f"ptakkit delta: {bad}: " in err


def test_gen_oversized_cardinality_exit_2(tmp_path, capsys):
    out = tmp_path / "fam.json"
    rc, _, err = run(capsys, "gen", "--kind", "cardinality", "--n", "60", "--k", "30",
                     "--out", str(out))
    assert rc == 2 and "C(60, 30)" in err and "118264581564861424" in err
    assert not out.exists()


def test_oversized_clique_enumeration_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ptakkit.families, "ENUMERATION_LIMIT", 100)
    fam = tmp_path / "mis.json"
    edges = [[i, (i + 1) % 30] for i in range(30)]
    fam.write_text(json.dumps({"spec": {"kind": "graph_independent", "n": 30, "edges": edges}}))
    rc, out, err = run(capsys, "delta", "--family", str(fam))
    assert rc == 2 and out == ""
    assert str(fam) in err and "ENUMERATION_LIMIT = 100" in err


def test_billion_label_family_in_1_gb_of_address_space(tmp_path):
    """A family costs memory for the labels its sets use, not for n: trace
    runs in 1 GB of address space, and delta, whose LP has a column per label,
    exits 2 with one line instead of a traceback.  The limit is set on the
    child process only."""
    resource = pytest.importorskip("resource")
    fam = tmp_path / "big.json"
    fam.write_text(json.dumps({"n": 10**9, "maximal": [[0, 1], [2]]}))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_000_000 * 1024,) * 2)

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "ptakkit.cli", *argv, "--family", str(fam)],
                              capture_output=True, text=True, preexec_fn=limit, timeout=120)

    traced = cli("trace", "--subset", "0")
    assert traced.returncode == 0, traced.stderr
    assert json.loads(traced.stdout)["family"] == {"n": 1, "maximal": [[0]]}
    solved = cli("delta")
    assert solved.returncode == 2 and solved.stdout == ""
    assert solved.stderr.startswith("ptakkit delta: out of memory")
    assert solved.stderr.count("\n") == 1


# --- every input file format, fuzzed ---------------------------------------------------
# Each document is drawn well formed for a ground set of n <= 8 labels (at most
# 12 sets), with a bad rational now and then.  Three in seven are kept as they
# are; the others lose a key, get a value of the wrong type, or are replaced by
# arbitrary JSON or by arbitrary bytes.

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
BAD_RATIONAL = st.sampled_from(["1/0", "x", "", "1/-2", "0.5.1"]) | st.floats()
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=12)


def _bad_if_zero(drawn):
    value, roll, bad = drawn
    return bad if roll == 0 else value


def sometimes_bad(good):
    """``good``, or one time in forty a malformed rational."""
    return st.tuples(good, st.integers(0, 39), BAD_RATIONAL).map(_bad_if_zero)


def _piece(drawn):
    ends, roll, bad = drawn
    out = [format_rational(e) for e in sorted(ends)]
    if roll < 2:
        out[roll] = bad
    return out


def system(n):
    piece = st.tuples(st.tuples(UNIT, UNIT), st.integers(0, 79), BAD_RATIONAL).map(_piece)
    return st.fixed_dictionaries({"sets": st.lists(st.lists(piece, max_size=3),
                                                   min_size=n, max_size=n)},
                                 optional={"n": st.just(n)})


def family(n):
    labels = st.integers(0, n - 1)
    sets = st.lists(st.lists(labels, min_size=1, max_size=n), max_size=12)
    edges = st.lists(st.lists(labels, min_size=2, max_size=2), max_size=12)
    spec = st.one_of(
        st.fixed_dictionaries({"kind": st.just("cardinality_bound"), "n": st.just(n),
                               "k": st.integers(0, n)}),
        st.fixed_dictionaries({"kind": st.sampled_from(["graph_cliques", "graph_independent"]),
                               "n": st.just(n), "edges": edges}),
        st.fixed_dictionaries({"kind": st.just("interval_trace"), "system": system(n)}),
    )
    return (st.fixed_dictionaries({"n": st.just(n), "maximal": sets})
            | st.fixed_dictionaries({"spec": spec}))


def certificate(n):
    unit = sometimes_bad(UNIT.map(format_rational))

    def weights(keys):
        return st.dictionaries(keys.map(str), unit, max_size=12)
    return st.fixed_dictionaries({"delta": unit,
                                  "primal": weights(st.integers(0, n - 1)),
                                  "dual": weights(st.integers(0, 11))})


def vector(n):
    coord = sometimes_bad(st.fractions(min_value=-2, max_value=2,
                                       max_denominator=12).map(format_rational))
    return st.fixed_dictionaries({"coords": st.lists(coord, min_size=n, max_size=n)})


FILES = {(command, n): flags for n in range(1, 9) for command, flags in [
    ("delta", {"--family": family(n)}),
    ("certificate-verify", {"--family": family(n), "--certificate": certificate(n)}),
    ("norm", {"--family": family(n), "--vector": vector(n)}),
    ("interval-bound", {"--system": system(n)}),
]}
VERDICT = {
    "delta": lambda rep: rep["verified"],
    "certificate-verify": lambda rep: rep["valid"],
    "norm": lambda rep: (rep["report"]["lower_ok"] and rep["report"]["upper_ok"]
                         and rep["report"]["nonneg_ok"] is not False),
    "interval-bound": lambda rep: rep["report"]["ok"],
}


@st.composite
def encoded(draw, documents):
    how = draw(st.sampled_from(["keep", "keep", "keep", "drop", "retype", "junk", "bytes"]))
    if how == "bytes":
        return draw(st.binary(max_size=64))
    doc = draw(JUNK) if how == "junk" else draw(documents)
    if how in ("drop", "retype"):
        key = draw(st.sampled_from(sorted(doc)))
        if how == "drop":
            del doc[key]
        else:
            doc[key] = draw(JUNK)
    return json.dumps(doc).encode()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_input_files_exit_0_1_or_2(data):
    command, n = data.draw(st.sampled_from(sorted(FILES)))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, documents in FILES[command, n].items():
            path = os.path.join(tmp, flag[2:] + ".json")
            with open(path, "wb") as fh:
                fh.write(data.draw(encoded(documents), label=flag))
            argv += [flag, path]
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(f"ptakkit {command}: ")
    else:
        assert bool(VERDICT[command](json.loads(out.getvalue()))) == (rc == 0)
