"""Command line: reports, config merging, exit statuses, determinism."""

import datetime
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import cone_sobolev.bernstein as bernstein
import cone_sobolev.cli as cli
from cone_sobolev import (LorentzParams, WeightedCone, construct_system,
                          gradient_upper_certificate,
                          superadditivity_certificate)

SCHEMA_KEYS = {"command", "config", "outputs", "passed", "timestamp",
               "tolerances", "verdicts"}

TENT = {"knots": [[1.0, 1.0], [2.0, 0.0]]}

DIVERGENT = {
    "segments": [{"t0": 0.0, "t1": 1.0, "law": "power",
                  "params": [1.0, -2.0, -1.0]}],
    "cone": {"d": 2, "exponents": [{"axis": 0, "power": 1.0}]},
}


def run_json(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines()
                     if '"timestamp"' not in line)


# -- happy paths ------------------------------------------------------------------

def test_constant_command(capsys):
    code, report, _ = run_json(
        capsys, ["constant", "--cone", "disc-unweighted", "--p", "1.5"])
    assert code == 0
    assert set(report) == SCHEMA_KEYS
    assert report["command"] == "constant"
    assert report["passed"] is True
    assert report["outputs"]["embedding_norm"] == pytest.approx(
        1.692568750643269, rel=1e-13)
    assert report["config"]["cone"]["extension_unweighted"] is True
    assert "threads" not in report["config"]
    assert report["verdicts"]["finite_positive"] is True
    stamp = datetime.datetime.fromisoformat(report["timestamp"])
    assert stamp.tzinfo is not None


def test_norm_command_dual_routes(capsys, tmp_path):
    path = tmp_path / "tent.json"
    path.write_text(json.dumps(TENT))
    code, report, _ = run_json(
        capsys, ["norm", "--profile", str(path), "--p", "2.0", "--q", "1.0"])
    assert code == 0
    out = report["outputs"]
    assert out["rearranged"] == pytest.approx(out["distributional"],
                                              rel=1e-10)
    assert out["difference"] <= 1e-10 * max(out["rearranged"], 1.0)
    assert report["verdicts"]["routes_agree"] is True
    # the halfplane default cone was echoed in canonical form
    assert report["config"]["cone"]["d"] == 2


def test_quotient_command_equality_case(capsys, tmp_path):
    path = tmp_path / "tent.json"
    path.write_text(json.dumps(TENT))
    code, report, _ = run_json(
        capsys, ["quotient", "--profile", str(path), "--p", "1.0",
                 "--q", "1.0"])
    assert code == 0
    assert report["outputs"]["ratio"] == pytest.approx(1.0, rel=1e-12)
    assert report["verdicts"]["upper_bound"] is True


def test_alvino_command_frozen_fractions(capsys):
    code, report, _ = run_json(
        capsys, ["alvino", "--p", "1.5", "--q", "1.0",
                 "--ratios", "1e2,1e4"])
    assert code == 0
    assert report["config"]["ratios"] == [100.0, 10000.0]
    sweep = report["outputs"]["sweep"]
    assert sweep[0]["fraction_of_norm"] == pytest.approx(
        0.8619322988877716, rel=1e-12)
    assert sweep[1]["fraction_of_norm"] == pytest.approx(
        0.9255390254328306, rel=1e-12)
    assert report["verdicts"] == {"nondecreasing": True,
                                  "below_embedding_norm": True}


def test_alvino_command_over_300_decades(capsys):
    # the t-route's incomplete beta series spans the 1e300 arc at q > 1
    code, report, _ = run_json(
        capsys, ["alvino", "--cone", "halfplane-x1", "--p", "1.2",
                 "--q", "1.1", "--ratios", "1e2,1e300"])
    assert code == 0
    quotients = [row["quotient"] for row in report["outputs"]["sweep"]]
    assert quotients[0] <= quotients[1] < report["outputs"]["embedding_norm"]
    assert report["verdicts"] == {"nondecreasing": True,
                                  "below_embedding_norm": True}


def test_polya_szego_command(capsys):
    code, report, _ = run_json(
        capsys, ["polya-szego", "--grid", "12", "--bumps", "2",
                 "--p", "2.0"])
    assert code == 0
    out = report["outputs"]
    assert out["lhs_profile_gradient_norm"] <= \
        out["rhs_rearranged_gradient_norm"] * (1.0 + report["tolerances"]
                                               ["grid_rel"])
    # default box: constrained axis starts at the wall
    assert report["config"]["box"] == [[0.0, 3.0], [-1.5, 1.5]]
    assert report["config"]["seed"] == 0


def test_bernstein_command(capsys):
    code, report, _ = run_json(
        capsys, ["bernstein", "--m", "2", "--alpha-trials", "10",
                 "--directions", "10", "--lambda-frac", "0.5"])
    assert code == 0
    assert report["config"]["p"] == 2.0   # per-command default
    assert report["config"]["seed"] == 0
    out = report["outputs"]
    assert out["superadditivity_failures"] == 0
    assert out["gradient_upper_failures"] == 0
    assert out["empirical_minimum"] >= out["certified_lower_bound"]
    assert len(out["shells"]) == 2
    assert report["passed"] is True


def test_bernstein_evaluates_each_direction_once(capsys, monkeypatch):
    # 7 alpha trials and 5 directions from one seed share their first 5
    # directions, so each span norm runs once per distinct direction (a
    # sweep per list would evaluate 12)
    rows = {False: [], True: []}
    original = bernstein.span_norms

    def counted(tables, alphas, gradient):
        rows[gradient].extend(map(tuple, alphas))
        return original(tables, alphas, gradient)

    monkeypatch.setattr(bernstein, "span_norms", counted)
    code, report, _ = run_json(
        capsys, ["bernstein", "--m", "2", "--lambda-frac", "0.5",
                 "--alpha-trials", "7", "--directions", "5"])
    assert code == 0
    assert report["outputs"]["alpha_trials"] == 7
    for seen in rows.values():
        assert len(seen) == len(set(seen)) == 7


def test_bernstein_reports_certificate_margins(capsys):
    code, report, _ = run_json(
        capsys, ["bernstein", "--m", "2", "--lambda-frac", "0.5",
                 "--alpha-trials", "6", "--directions", "3", "--seed", "4"])
    assert code == 0
    config, out = report["config"], report["outputs"]
    cone = WeightedCone.from_json_dict(config["cone"])
    system = construct_system(
        cone, LorentzParams(config["p"], config["q"], cone), config["m"],
        out["lambda"], config["eps1"], config["eps2"])
    alphas = np.random.default_rng(4).standard_normal((6, 2))
    supers = [superadditivity_certificate(system, a) for a in alphas]
    grads = [gradient_upper_certificate(system, a) for a in alphas]
    assert out["superadditivity_margin"] == min(
        lhs / bound - 1.0 for lhs, bound, _ in supers)
    assert out["gradient_upper_margin"] == min(
        1.0 - lhs / bound for lhs, bound, _ in grads)
    assert out["superadditivity_margin"] > 0.0
    assert out["gradient_upper_margin"] > -1e-9


def test_selftest_subset(capsys):
    code, report, err = run_json(capsys, ["selftest", "--criteria", "2"])
    assert code == 0
    assert report["config"]["criteria"] == [2]
    assert report["verdicts"] == {"criterion_02": True}
    assert "criterion" in err
    assert "[PASS]" in err


def test_selftest_report_is_identical_across_reruns(capsys):
    texts = []
    for _ in range(2):
        assert cli.run(["selftest", "--criteria", "1,2"]) == 0
        texts.append(strip_timestamp(capsys.readouterr().out))
    assert texts[0] == texts[1]
    assert '"monte_carlo"' in texts[0]


# -- configuration plumbing ----------------------------------------------------------

def test_config_file_and_flags_agree(capsys, tmp_path):
    path = tmp_path / "alv.json"
    path.write_text(json.dumps(
        {"p": 1.5, "q": 1.0, "ratios": [100.0, 10000.0]}))
    code_a, _, _ = run_json(capsys, ["alvino", "--config", str(path)])
    text_a = None
    code_a = cli.run(["alvino", "--config", str(path)])
    text_a = capsys.readouterr().out
    code_b = cli.run(["alvino", "--p", "1.5", "--q", "1.0",
                      "--ratios", "1e2,1e4"])
    text_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert strip_timestamp(text_a) == strip_timestamp(text_b)


# every option of each command, with integral floats as JSON integers
ALL_OPTIONS = {
    "constant": {"cone": "quadrant-x1x2", "p": 1.5, "q": 1},
    "norm": {"cone": "halfplane-x1", "p": 2, "q": 1, "profile": "tent.json"},
    "quotient": {"cone": "halfplane-x1", "p": 1, "q": 1,
                 "profile": "tent.json"},
    "polya-szego": {"cone": "halfplane-x1", "p": 2, "q": 1, "seed": 1,
                    "grid": 8, "bumps": 2, "box": [[0, 3], [-2, 2]]},
    "alvino": {"cone": "halfplane-x1", "p": 1.5, "q": 1,
               "ratios": [100, 10000]},
    "bernstein": {"cone": "halfplane-x1", "p": 2, "q": 1, "seed": 1, "m": 2,
                  "lambda_frac": 0.5, "eps1": 0.05, "eps2": 0.05,
                  "alpha_trials": 3, "directions": 3},
    "selftest": {"criteria": [2]},
}


def _flag_value(value):
    if isinstance(value, list):
        return ",".join(":".join(map(str, v)) if isinstance(v, list)
                        else str(v) for v in value)
    return str(value)


@pytest.mark.parametrize("command", sorted(ALL_OPTIONS))
def test_config_file_and_flags_give_one_report(capsys, tmp_path,
                                               monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tent.json").write_text(json.dumps(TENT))
    options = ALL_OPTIONS[command]
    assert set(options) | {"out"} == set(cli._COMMAND_OPTIONS[command])
    (tmp_path / "c.json").write_text(json.dumps({**options, "out": "a"}))
    assert cli.run([command, "--config", "c.json"]) == 0
    from_file = capsys.readouterr().out
    flags = [command, "--out", "b"]
    for key, value in options.items():
        flags += ["--" + key.replace("_", "-"), _flag_value(value)]
    assert cli.run(flags) == 0
    from_flags = capsys.readouterr().out
    assert strip_timestamp(from_file) == strip_timestamp(from_flags)
    assert (tmp_path / "a").read_text() == from_file


def test_flags_override_config_file(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"p": 1.5}))
    code, report, _ = run_json(
        capsys, ["constant", "--config", str(path), "--p", "2.0"])
    assert code == 0
    assert report["config"]["p"] == 2.0


def test_report_written_to_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = cli.run(["constant", "--out", str(out_path)])
    text = capsys.readouterr().out
    assert code == 0
    assert out_path.read_text() == text
    assert "out" not in json.loads(text)["config"]


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    code = cli.run(["constant", "--out", str(tmp_path / "no-dir" / "x.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error:" in err and "Traceback" not in err


def test_determinism_modulo_timestamp(capsys):
    argv = ["bernstein", "--m", "2", "--alpha-trials", "5",
            "--directions", "5", "--lambda-frac", "0.5"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    assert strip_timestamp(first) == strip_timestamp(second)


def test_report_does_not_depend_on_thread_env(capsys, monkeypatch):
    monkeypatch.delenv("CONE_SOBOLEV_THREADS", raising=False)
    _, plain, _ = run_json(capsys, ["constant"])
    monkeypatch.setenv("CONE_SOBOLEV_THREADS", "2")
    code, report, _ = run_json(capsys, ["constant"])
    assert code == 0
    del plain["timestamp"], report["timestamp"]
    assert report == plain



# the AVX-512 targets numpy dispatches to on this host; x86-64-v4 is AVX-512
AVX512_TARGETS = [t for t in __cpu_dispatch__
                  if "AVX512" in t or t == "X86_V4"]


def report_fields(argv: list[str], disabled: str) -> dict:
    """The report of ``cone-sobolev argv`` in a fresh interpreter whose
    numpy runs without the ``disabled`` targets, as (path, value) pairs."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src),
               NPY_DISABLE_CPU_FEATURES=disabled)
    proc = subprocess.run([sys.executable, "-m", "cone_sobolev.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr

    def flat(node, path=()):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else None)
        if items is None:
            yield path, node
        else:
            for key, value in items:
                yield from flat(value, path + (key,))

    return dict(flat(json.loads(proc.stdout)))


@pytest.mark.skipif(not (AVX512_TARGETS and __cpu_features__.get("AVX512F")),
                    reason="the host has no AVX-512 kernels to compare with")
@pytest.mark.xfail(strict=True, reason="reports differ between numpy's "
                   "AVX-512 and AVX2 kernels: the lambda rule, the span "
                   "engine and the cutoff searches use vectorised exp, log "
                   "and pow, whose last bits the shell chain amplifies")
@pytest.mark.parametrize("argv", [
    ["bernstein", "--m", "4", "--alpha-trials", "200", "--directions", "100",
     "--seed", "3"],
    ["alvino"],
    ["selftest", "--criteria", "9"],
], ids=["bernstein", "alvino", "criterion-9"])
def test_report_is_identical_without_avx512(argv):
    native = report_fields(argv, "")
    other = report_fields(argv, " ".join(AVX512_TARGETS))
    assert native.keys() == other.keys()
    assert [path for path, value in native.items()
            if path != ("timestamp",) and other[path] != value] == []

# -- exit statuses ---------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["constant", "--cone", "no-such-cone"],
    ["constant", "--p", "3.0"],               # p = D is supercritical
    ["norm"],                                 # missing --profile
    ["alvino", "--ratios", "abc"],
    ["alvino", "--ratios", "0.5,2.0"],
    ["polya-szego", "--grid", "1"],
    ["bernstein", "--lambda-frac", "1.5", "--m", "2"],
    ["bernstein", "--q", "2.0", "--p", "1.5", "--m", "2"],  # q > p
    ["bernstein", "--m", "2", "--lambda-frac", "0.5",
     "--alpha-trials", "-3"],                # no direction certified
    ["bernstein", "--m", "2", "--lambda-frac", "0.5",
     "--directions", "0"],                   # no empirical minimum
    ["bernstein", "--m", "2", "--lambda-frac", "0.5",
     "--eps2", "5.0"],                       # certified bound below 0
    ["selftest", "--criteria", "99"],        # no such criterion
    ["selftest", "--criteria", "2.7"],       # not a criterion number
    ["polya-szego", "--box", "1:0,0:1", "--grid", "8"],  # reversed box
    ["polya-szego", "--box", "0:nan,0:1"],   # non-finite box
    ["selftest", "--criteria", ","],         # no criterion
    ["polya-szego", "--seed", "-1", "--grid", "8"],
    ["bernstein", "--seed", "-1", "--m", "2", "--alpha-trials", "3",
     "--directions", "3"],                   # numpy takes seeds >= 0
    ["polya-szego", "--grid", "abc"],
    ["polya-szego", "--grid", "8.7"],        # not an integer
])
def test_configuration_errors_exit_2(capsys, argv):
    code, report, err = run_json(capsys, argv)
    assert code == 2
    assert report is None
    assert "configuration error:" in err


@pytest.mark.parametrize("command, data", [
    ("bernstein", {"alpha_trials": "many"}),
    ("polya-szego", {"grid": "x"}),
    ("constant", {"p": "two"}),
    ("bernstein", {"eps1": [0.05]}),
    ("polya-szego", {"box": [[0]]}),
    ("polya-szego", {"box": [5, 6]}),
    ("norm", {"profile": 5}),
    ("constant", {"out": 5}),              # refused before the report
    ("constant", {"p": True}),
    ("polya-szego", {"bumps": True}),
    ("bernstein", {"m": 2.5}),
    ("polya-szego", {"grid": 8.7}),
])
def test_malformed_config_values_exit_2(capsys, tmp_path, command, data):
    """A config value of the wrong type or shape is a configuration
    error."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, report, err = run_json(capsys, [command, "--config", str(path)])
    assert code == 2
    assert report is None
    assert "configuration error:" in err
    assert repr(next(iter(data))) in err


def test_empty_criteria_config_exits_2(capsys, tmp_path):
    """A selftest that would run no criterion cannot pass."""
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"criteria": []}))
    code, report, err = run_json(capsys, ["selftest", "--config", str(path)])
    assert code == 2
    assert report is None
    assert "at least one criterion" in err


def test_unknown_config_key_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for data in ({"grid": 8}, {"seed": 1}):
        path.write_text(json.dumps(data))
        code, _, err = run_json(capsys, ["constant", "--config", str(path)])
        assert code == 2
        assert "not an option" in err


@pytest.mark.parametrize("argv", [
    ["constant", "--seed", "5"],             # constant draws nothing
    ["selftest", "--p", "2"],                # selftest takes no exponents
    ["selftest", "--criteria", "2", "--cone", "nonsense"],
])
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_config_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_json(capsys, ["constant", "--config", str(path)])
    assert code == 2


def test_numerical_failure_exits_3(capsys, tmp_path):
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps(DIVERGENT))
    code, report, err = run_json(
        capsys, ["norm", "--profile", str(path), "--p", "2.0"])
    assert code == 3
    assert report is None
    assert "numerical failure:" in err


def test_cone_whose_measure_underflows_exits_3(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"d": 1200, "exponents": [{"axis": 0, "power": 1.0}]}))
    code, report, err = run_json(capsys, ["constant", "--cone", str(path)])
    assert code == 3
    assert report is None
    assert "numerical failure:" in err and "Traceback" not in err


def test_bernstein_beyond_the_double_range_exits_3(capsys):
    # at lambda 0.9 on halfplane-x1 shell 23's cutoff measure is subnormal
    code, report, err = run_json(capsys, ["bernstein", "--m", "23"])
    assert code == 3
    assert report is None
    assert "shell 23" in err


def test_failed_verdict_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "constant",
                        lambda config: ({}, {}, {"always": False}))
    code, report, _ = run_json(capsys, ["constant"])
    assert code == 1
    assert report["passed"] is False
    assert report["verdicts"] == {"always": False}


def _readme_commands():
    """The argument lists of the sh block in README's "Command line"."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines()
            if line.startswith("cone-sobolev ")]


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tent.json").write_text(json.dumps(TENT))
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)
    for argv in commands:
        assert cli.run(argv) == 0, argv
        capsys.readouterr()
