"""Command line: reports, config merging, exit statuses, determinism."""

import datetime
import json

import numpy as np
import pytest

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
])
def test_malformed_config_values_exit_2(capsys, tmp_path, command, data):
    """A config value that does not cast is a configuration error."""
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
