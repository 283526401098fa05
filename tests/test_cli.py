import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nnsums
from nnsums import AnnulusBallCounterexample
from nnsums.cli import _CHECK_KEYS, _DIVERGE_KEYS, _ESTIMATE_KEYS, _LIMIT_KEYS, main
from nnsums.densities import _CATALOG
from nnsums.experiments import _ESTIMATOR_KEYS


def _write_points(path, coords):
    # one point per row, full float precision, no header: what PointSet.from_csv reads
    rows = np.asarray(coords, dtype=float).reshape(len(coords), -1)
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


UNIFORM_CONVERGE = {
    "model": "uniform_union",
    "d": 2,
    "bodies": [{"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}],
    "j": 1,
    "alpha": 1.0,
    "n_grid": [100, 400],
    "replications": 4,
    "seed": 5,
    "q": 2,
}


def test_converge_writes_csv(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", UNIFORM_CONVERGE)
    out = tmp_path / "run.csv"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "experiment,model,d,j,alpha,q,n,replication,value,target,abs_error"
    assert len(lines) == 9
    stdout = capsys.readouterr().out
    assert "converge: uniform_union" in stdout
    assert "wrote" in stdout


def test_converge_byte_identical_reruns(tmp_path):
    cfg = _write_config(tmp_path, "c.json", UNIFORM_CONVERGE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["converge", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["converge", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_converge_seed_override_changes_rows(tmp_path):
    cfg = _write_config(tmp_path, "c.json", UNIFORM_CONVERGE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["converge", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["converge", "--config", cfg, "--seed", "99", "--out", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_converge_refused_then_forced(tmp_path, capsys):
    payload = {
        "model": "counterexample",
        "d": 2,
        "r": 1.0,
        "alpha": 1.5,
        "n_grid": [40],
        "replications": 2,
        "seed": 1,
        "q": 1,
    }
    cfg = _write_config(tmp_path, "cx.json", payload)
    assert main(["converge", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["converge", "--config", cfg, "--force"]) == 0


def test_forced_converge_prints_the_divergent_target_as_the_report_does(tmp_path, capsys):
    # alpha > d: the integral of f^(1 - alpha/d) is infinite
    payload = {"model": "gaussian", "d": 2, "alpha": 2.5, "n_grid": [20], "replications": 2}
    cfg = _write_config(tmp_path, "g.json", payload)
    out = tmp_path / "forced.json"
    assert main(["converge", "--config", cfg, "--force", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "target=divergent" in stdout and "target=inf" not in stdout
    assert json.loads(out.read_text())["target"] == "divergent"


def test_diverge_run(tmp_path, capsys):
    payload = {
        "model": "counterexample",
        "d": 2,
        "r": 1.0,
        "alpha": 1.5,
        "k_grid": [2, 3, 4],
        "replications": 5,
        "seed": 3,
    }
    cfg = _write_config(tmp_path, "d.json", payload)
    out = tmp_path / "d.json.out.json"
    assert main(["diverge", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "n(k) (2, 4, 8)" in stdout
    payload = json.loads(out.read_text())
    assert payload["target"] == "divergent"
    assert payload["trend"]["n_of_k"] == [2, 4, 8]


def test_diverge_k_range_form(tmp_path):
    payload = {
        "model": "counterexample",
        "d": 2,
        "r": 1.0,
        "alpha": 1.5,
        "k_min": 2,
        "k_max": 4,
        "replications": 2,
        "seed": 3,
    }
    cfg = _write_config(tmp_path, "d.json", payload)
    assert main(["diverge", "--config", cfg]) == 0


UNIFORM_DIVERGE = {
    **{k: v for k, v in UNIFORM_CONVERGE.items() if k in ("model", "d", "bodies")},
    "alpha": 1.0,
    "k_grid": [0, 1],
}


def test_forced_diverge_on_a_uniform_union_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "u.json", UNIFORM_DIVERGE)
    assert main(["diverge", "--config", cfg, "--force"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "compact support" in captured.err


@pytest.mark.parametrize(
    "command, condition",
    [("converge", "convergence"), ("diverge", "divergence"), ("entropy", "convergence")],
)
def test_force_help_names_the_condition_it_overrides(capsys, command, condition):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"--force run past a refused {condition} condition" in help_text


def test_entropy_cli(tmp_path, capsys):
    payload = dict(UNIFORM_CONVERGE)
    del payload["alpha"]
    payload["rho"] = 0.5
    cfg = _write_config(tmp_path, "e.json", payload)
    assert main(["entropy", "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "Tsallis entropy" in stdout
    assert "Renyi entropy" in stdout


def test_probe_cli(tmp_path, capsys):
    payload = dict(UNIFORM_CONVERGE)
    payload["p"] = 2.0
    cfg = _write_config(tmp_path, "p.json", payload)
    assert main(["probe", "--config", cfg]) == 0
    assert "probe: uniform_union" in capsys.readouterr().out


def test_check_cli(tmp_path, capsys):
    payload = {"model": "power_law", "d": 2, "beta": 6.0, "alpha": 1.0, "q": 1}
    cfg = _write_config(tmp_path, "chk.json", payload)
    assert main(["check", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "alpha",
        "q",
        "bounded_support",
        "negative_alpha",
        "moment_condition",
        "power_tail",
        "divergence",
        "notes",
    }
    assert report["moment_condition"] is True


def test_limit_cli_uniform(tmp_path, capsys):
    payload = {
        "model": "uniform_union",
        "d": 2,
        "bodies": [{"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}],
        "alpha": 1.0,
        "j": 1,
    }
    cfg = _write_config(tmp_path, "l.json", payload)
    out = tmp_path / "limit.json"
    assert main(["limit", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "cross-check" in stdout
    value = json.loads(out.read_text())["value"]
    assert value == pytest.approx(0.5, rel=1e-6)


def test_limit_cli_named_phi(tmp_path, capsys):
    payload = {
        "model": "uniform_union",
        "d": 2,
        "bodies": [{"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}],
        "phi": "capped",
        "j": 1,
    }
    cfg = _write_config(tmp_path, "l.json", payload)
    assert main(["limit", "--config", cfg]) == 0
    assert "phi=capped" in capsys.readouterr().out


def test_limit_cli_divergent_phi_exits_2(tmp_path, capsys):
    # phi = identity is alpha = 1, so in d = 1 the limit is gamma * the
    # integral of f^0 over the line: infinite, and the quadrature says so.
    payload = {"model": "power_law", "d": 1, "beta": 3, "phi": "identity"}
    cfg = _write_config(tmp_path, "l.json", payload)
    assert main(["limit", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_estimate_cli(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    _write_points(points, [0.0, 1.0, 3.0])
    payload = {"points": str(points), "j": 1, "alpha": 1.0}
    cfg = _write_config(tmp_path, "est.json", payload)
    out = tmp_path / "est.csv"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "S_{n,alpha} = 12.0" in stdout
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 2
    # normalized estimate: gamma(1,1,1) = 1/2, so 12 / (0.5 * 3) = 8
    assert float(rows[1].split(",")[8]) == pytest.approx(8.0, rel=1e-12)


def test_estimate_cli_phi(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    _write_points(points, [0.0, 1.0, 3.0])
    payload = {"points": str(points), "j": 1, "phi": "capped"}
    cfg = _write_config(tmp_path, "est.json", payload)
    assert main(["estimate", "--config", cfg]) == 0
    assert "S_{n,phi} = 3.0" in capsys.readouterr().out


def test_estimate_rejects_both_weights(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    _write_points(points, [0.0, 1.0, 3.0])
    payload = {"points": str(points), "j": 1, "alpha": 1.0, "phi": "capped"}
    cfg = _write_config(tmp_path, "est.json", payload)
    assert main(["estimate", "--config", cfg]) == 2


@pytest.mark.parametrize("weight", [{"alpha": 1.0}, {"phi": "capped"}])
def test_estimate_refuses_j_not_below_n(tmp_path, capsys, weight):
    points = tmp_path / "pts.csv"
    _write_points(points, np.random.default_rng(0).random((50, 2)))
    out = tmp_path / "report.json"
    cfg = _write_config(tmp_path, "est.json", {"points": str(points), "j": 50} | weight)
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "n=50" in err and "j=50" in err
    assert not out.exists()


def test_converge_rejects_phi_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", dict(UNIFORM_CONVERGE, phi="log1p"))
    assert main(["converge", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'estimate' and 'limit'" in err


def test_converge_rejects_unknown_key(tmp_path, capsys):
    payload = dict(UNIFORM_CONVERGE)
    payload["replicatons"] = payload.pop("replications")
    cfg = _write_config(tmp_path, "c.json", payload)
    assert main(["converge", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "replicatons" in err


# each payload is a valid configuration with its misspelt keys
_TYPO_CONFIGS = {
    "diverge": (
        {"model": "counterexample", "d": 2, "r": 1.0, "alpha": 1.5, "k_grid": [2, 3]},
        {"replicatons": 5, "sed": 3},
    ),
    "check": ({"model": "power_law", "d": 2, "beta": 6.0, "alpha": 1.0}, {"qq": 1}),
    "limit": ({"model": "gaussian", "d": 2, "alpha": 1.0}, {"jj": 3, "tolerance": 1e-9}),
    "estimate": ({"points": "pts.csv", "alpha": 1.0}, {"rank": 2}),
}


@pytest.mark.parametrize("command", sorted(_TYPO_CONFIGS))
def test_hand_read_subcommands_reject_unknown_keys(tmp_path, capsys, command):
    _write_points(tmp_path / "pts.csv", [0.0, 1.0, 3.0])
    payload, typos = _TYPO_CONFIGS[command]
    payload = dict(payload, **typos)
    if command == "estimate":
        payload["points"] = str(tmp_path / "pts.csv")
    cfg = _write_config(tmp_path, "typo.json", payload)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    for key in typos:
        assert repr(key) in captured.err
    assert captured.out == ""


def test_bad_configs_exit_nonzero(tmp_path, capsys):
    cfg = _write_config(tmp_path, "bad.json", {"model": "nope", "d": 2, "alpha": 1.0})
    assert main(["check", "--config", cfg]) == 2
    assert "unknown model" in capsys.readouterr().err
    missing = str(tmp_path / "missing.json")
    assert main(["check", "--config", missing]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{{{")
    assert main(["check", "--config", str(notjson)]) == 2


POWER = {"model": "power_law", "d": 2, "beta": 6.0}
COUNTER = {"model": "counterexample", "d": 2, "r": 1.0}
RUN = {"n_grid": [20, 40], "replications": 2}

# subcommand -> (a valid configuration, the table of keys it reads)
_KIND_CASES = {
    "estimate": ({"points": "pts.csv", "alpha": 1.0}, _ESTIMATE_KEYS),
    "converge": (dict(POWER, alpha=1.0, **RUN), _ESTIMATOR_KEYS),
    "entropy": (
        {k: v for k, v in UNIFORM_CONVERGE.items() if k != "alpha"} | {"rho": 0.5},
        {k: v for k, v in _ESTIMATOR_KEYS.items() if k != "alpha"} | {"rho": ("float", None)},
    ),
    "probe": (dict(COUNTER, alpha=0.5, p=2.0, **RUN), _ESTIMATOR_KEYS | {"p": ("float", 1.0)}),
    "diverge": (dict(COUNTER, alpha=1.5, k_grid=[2, 3]), _DIVERGE_KEYS),
    "check": (dict(POWER, alpha=1.0), _CHECK_KEYS),
    "limit": ({"model": "gaussian", "d": 2, "alpha": 1.0}, _LIMIT_KEYS),
}
_BAD_VALUES = {"int": (True, "2", 1.5), "float": (True, "1.0", math.inf)}


def _kind_cases():
    for command, (cfg, table) in _KIND_CASES.items():
        if "model" in table:
            table = {**table, "d": ("int", None), **_CATALOG[cfg["model"]][0]}
        for key, (kind, _) in table.items():
            for bad in _BAD_VALUES.get(kind, ()):
                yield pytest.param(command, key, bad, id=f"{command}-{key}={bad!r}")


def _run_config(tmp_path, command, payload, *flags):
    _write_points(tmp_path / "pts.csv", [0.0, 1.0, 3.0])
    if payload.get("points") == "pts.csv":
        payload = dict(payload, points=str(tmp_path / "pts.csv"))
    cfg = _write_config(tmp_path, "cfg.json", payload)
    return main([command, "--config", cfg, *flags])


@pytest.mark.parametrize("command", sorted(_KIND_CASES))
def test_kind_case_configs_run(tmp_path, command):
    assert _run_config(tmp_path, command, _KIND_CASES[command][0]) == 0


@pytest.mark.parametrize("command, key, bad", _kind_cases())
def test_int_and_float_keys_refuse_other_kinds(tmp_path, capsys, command, key, bad):
    # bools, strings and non-integral or non-finite numbers were once
    # truncated, coerced or passed on to fail later
    payload = dict(_KIND_CASES[command][0], **{key: bad})
    assert _run_config(tmp_path, command, payload) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"{key!r} must be" in err


# One case per configuration that once exited 0 with a different run than
# the one asked for, or failed with a traceback or an error naming no key:
# (subcommand, the keys changed in its _KIND_CASES configuration, the text
# the error must hold).
_REFUSED = {
    "converge-j-float": ("converge", {"j": 1.7}, "'j'"),
    "converge-replications-float": ("converge", {"replications": 2.5}, "'replications'"),
    "converge-n_grid-floats": ("converge", {"n_grid": [50.9, 100.2]}, "'n_grid'"),
    "converge-n_grid-integral-float": ("converge", {"n_grid": [100.0]}, "'n_grid'"),
    "converge-seed-bool": ("converge", {"seed": True}, "'seed'"),
    "converge-replications-bool": ("converge", {"replications": True}, "'replications'"),
    "converge-alpha-string": ("converge", {"alpha": "1.0"}, "'alpha'"),
    "converge-beta-string": ("converge", {"beta": "6"}, "'beta'"),
    "diverge-j-float": ("diverge", {"j": 1.9}, "'j'"),
    "diverge-r-bool": ("diverge", {"r": True}, "'r'"),
    "diverge-r-overflowing-shells": ("diverge", {"r": 0.01}, "r=0.01 is below 53/1022"),
    "diverge-k_grid-string": ("diverge", {"k_grid": "234"}, "'k_grid'"),
    "diverge-k_grid-and-range": ("diverge", {"k_min": 2, "k_max": 4}, "'k_grid'"),
    "limit-j-float": ("limit", {"j": 2.9}, "'j'"),
    "limit-tol-infinite": ("limit", {"tol": math.inf}, "'tol'"),
    "limit-phi-list": ("limit", {"alpha": None, "phi": ["sqrt"]}, "'phi'"),
    "check-q-float": ("check", {"q": 1.5}, "'q'"),
    "estimate-q-3": ("estimate", {"q": 3}, "'q'"),
    "estimate-points-int": ("estimate", {"points": 5}, "'points'"),
    "entropy-alpha-ignored": ("entropy", {"alpha": 1.0}, "'alpha'"),
    "diverge-k_grid-empty": ("diverge", {"k_grid": []}, "k_grid must not be empty"),
    "diverge-k_min-above-k_max": (
        "diverge",
        {"k_grid": None, "k_min": 5, "k_max": 3},
        "'k_min' (5) must not exceed 'k_max' (3)",
    ),
    "converge-n_grid-missing": ("converge", {"n_grid": None}, "configuration needs key 'n_grid'"),
    "entropy-n_grid-missing": ("entropy", {"n_grid": None}, "configuration needs key 'n_grid'"),
    "probe-n_grid-missing": ("probe", {"n_grid": None}, "configuration needs key 'n_grid'"),
    "diverge-shells-sharing-a-size": (
        "diverge",
        {"model": "power_law", "beta": 2.5, "r": None, "alpha": 1.0, "k_grid": [1, 2, 3]},
        "k=1 and k=2 have n(k) = 7 and 7",
    ),
    "converge-j-at-least-n": ("converge", {"j": 20}, "n=20 holds at most j=20"),
    "probe-j-at-least-n": ("probe", {"j": 25}, "n=20 holds at most j=25"),
    "limit-j-zero": ("limit", {"j": 0}, "rank j must be >= 1"),
    "limit-infinite": (
        "limit",
        {"model": "power_law", "d": 3, "beta": 7, "alpha": 2.0},
        "the limit is infinite",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_refused_config_values(tmp_path, capsys, case):
    command, changes, named = _REFUSED[case]
    payload = {k: v for k, v in (_KIND_CASES[command][0] | changes).items() if v is not None}
    assert _run_config(tmp_path, command, payload) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert named in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("estimate", "--seed"),
        ("estimate", "--force"),
        ("check", "--seed"),
        ("check", "--force"),
        ("limit", "--seed"),
        ("limit", "--force"),
        ("probe", "--force"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_refused(tmp_path, capsys, command, flag):
    payload, _ = _KIND_CASES[command]
    with pytest.raises(SystemExit) as exc:
        _run_config(tmp_path, command, payload, *([flag, "3"] if flag == "--seed" else [flag]))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_missing_points_file_is_an_error_not_a_traceback(tmp_path, capsys):
    payload = {"points": str(tmp_path / "nope.csv"), "alpha": 1.0}
    assert main(["estimate", "--config", _write_config(tmp_path, "e.json", payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nope.csv" in err


def test_unwritable_out_is_an_error_not_a_traceback(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", dict(UNIFORM_CONVERGE, replications=2))
    out = tmp_path / "no-such-dir" / "r.json"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no-such-dir" in err


@pytest.mark.parametrize("command", ["check", "limit"])
def test_json_reports_refuse_other_suffixes(tmp_path, capsys, command):
    out = tmp_path / "report.csv"
    assert _run_config(tmp_path, command, _KIND_CASES[command][0], "--out", str(out)) == 2
    assert "must end in .json" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, out",
    [
        ("converge", "run.txt"),
        ("check", "r.csv"),
        ("limit", "r.csv"),
        ("converge", "missing_dir/r.json"),
    ],
)
def test_unwritable_out_exits_2_with_nothing_on_stdout(
    tmp_path, monkeypatch, capsys, command, out
):
    # a bad suffix is refused before the run; a run that cannot write its
    # report prints none of it
    monkeypatch.chdir(tmp_path)
    assert _run_config(tmp_path, command, _KIND_CASES[command][0], "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_bad_suffix_is_refused_before_the_run(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr("nnsums.cli.run_convergence", no_run)
    payload = _KIND_CASES["converge"][0]
    for out, message in [
        (tmp_path / "r.txt", "must end in .csv or .json"),
        (tmp_path / "missing_dir" / "r.json", "does not exist"),
    ]:
        assert _run_config(tmp_path, "converge", payload, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert message in err and str(out) in err


# the largest shell index drawn per model: it keeps the witness sizes
# n(k) = ceil(1 / F(A_k)) of a diverge run below about 2 * 10^4 points
_CONTRACT_K_MAX = {"uniform_union": 5, "gaussian": 2, "power_law": 3, "counterexample": 5}


@st.composite
def _contract_runs(draw):
    """A subcommand, its configuration and its flags, each small enough to run quickly."""
    command = draw(st.sampled_from(["converge", "diverge", "entropy", "probe", "check", "limit"]))
    model = draw(st.sampled_from(sorted(_CONTRACT_K_MAX)))
    d = draw(st.integers(1, 3))
    cfg = {"model": model, "d": d}
    if model == "uniform_union":
        cfg["bodies"] = [{"type": "box", "lo": [0.0] * d, "hi": [1.0] * d}]
        if draw(st.booleans()):
            ball = {"type": "ball", "center": [4.0] + [0.0] * (d - 1), "radius": 1.5}
            cfg["bodies"].append(ball)
    elif model == "power_law":
        cfg["beta"] = d + draw(st.floats(0.5, 4.0))
    elif model == "counterexample":
        cfg["r"] = draw(st.floats(0.1, 3.0))
    alpha = draw(st.floats(-2.9, 3.0))
    j = draw(st.sampled_from([1, 2, 5]))
    if command in ("check", "limit"):
        cfg |= {"alpha": alpha} | ({"j": j} if command == "limit" else {})
    elif command == "diverge":
        k_min = draw(st.integers(0, _CONTRACT_K_MAX[model]))
        k_max = draw(st.integers(k_min, _CONTRACT_K_MAX[model]))
        cfg |= {"alpha": alpha, "j": j, "k_min": k_min, "k_max": k_max}
    else:
        sizes = draw(st.lists(st.integers(2, 64), min_size=1, max_size=3, unique=True))
        cfg |= {"j": j, "n_grid": sorted(sizes), "replications": draw(st.integers(1, 3))}
        if command == "entropy":
            cfg["rho"] = 1.0 - alpha / d
        else:
            cfg["alpha"] = alpha
    forced = command in ("converge", "diverge", "entropy") and draw(st.booleans())
    return command, cfg, ["--force"] if forced else []


def _assert_finite_numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            _assert_finite_numbers(item)
    elif isinstance(value, float):
        assert math.isfinite(value)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_contract_runs())
@example(("diverge", UNIFORM_DIVERGE, ["--force"]))
# shells whose witness sizes n(k) no sample can hold, each refused (exit 2)
@example(("diverge", {"model": "gaussian", "d": 2, "alpha": 1.0, "k_grid": [3]}, ["--force"]))
@example(("diverge", dict(COUNTER, r=10.0, alpha=1.5, k_grid=[107]), ["--force"]))
@example(("diverge", dict(POWER, beta=2.5, alpha=1.5, k_grid=[1100]), ["--force"]))
# a rate whose density constant overflows, refused (exit 2)
@example(("check", dict(COUNTER, r=600.0, alpha=1.0), []))
# a rate at which C^rho overflows although I_rho is below 1 (exit 0)
@example(("limit", dict(COUNTER, r=300.0, alpha=-1.5), []))
@example(("converge", dict(COUNTER, r=300.0, alpha=-1.5, n_grid=[8, 16], replications=2), []))
def test_cli_either_reports_finite_numbers_or_refuses(run):
    _assert_finite_report_or_refusal(run)


def _assert_finite_report_or_refusal(run):
    # the contract of every model-based subcommand: exit 0 with only finite
    # numbers on stdout and in the report, or exit 2 with an error message
    command, cfg, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "report.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", config, "--out", out, *flags])
        if code == 2:
            assert stderr.getvalue().startswith("error:"), stderr.getvalue()
            return
        assert code == 0
        text = stdout.getvalue().replace(out, "")
        assert not re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE), text
        with open(out) as fh:
            _assert_finite_numbers(json.load(fh, parse_constant=float))


@st.composite
def _extreme_runs(draw):
    """A subcommand and a configuration near the ends of every parameter
    range: d up to 40, alpha from -4000 to 1e6, beta from d + 1e-9 to
    d + 500, r from 53/1022 to 511 and boxes of side 1e-3 to 1e3."""
    model = draw(st.sampled_from(sorted(_CONTRACT_K_MAX)))
    # shell 2 of the counterexample holds mass 1 - 2^-r, so n(2) <= 29; the
    # other models' witness sizes grow without bound at these extremes
    commands = ["converge", "entropy", "probe", "check", "limit"]
    command = draw(st.sampled_from(commands + (["diverge"] if model == "counterexample" else [])))
    d = draw(st.integers(1, 40))
    cfg = {"model": model, "d": d}
    if model == "uniform_union":
        side = draw(st.floats(1e-3, 1e3))
        cfg["bodies"] = [{"type": "box", "lo": [0.0] * d, "hi": [side] * d}]
        if draw(st.booleans()):
            ball = {"type": "ball", "center": [-2.0 * side] + [0.0] * (d - 1), "radius": side}
            cfg["bodies"].append(ball)
    elif model == "power_law":
        cfg["beta"] = d + draw(st.floats(1e-9, 500.0))
    elif model == "counterexample":
        cfg["r"] = draw(st.floats(53 / 1022, 511.0))
    # half the exponents are moderate, so runs at extreme d, beta, r and sides get through
    alpha = draw(st.floats(-4000.0, 1e6) | st.floats(-0.9 * d, 2.0 * d))
    j = draw(st.sampled_from([1, 2, 5]))
    if command in ("check", "limit"):
        cfg |= {"alpha": alpha} | ({"j": j} if command == "limit" else {})
    elif command == "diverge":
        cfg |= {"alpha": alpha, "j": j, "k_grid": [2]}
    else:
        sizes = draw(st.lists(st.integers(2, 32), min_size=1, max_size=2, unique=True))
        cfg |= {"j": j, "n_grid": sorted(sizes), "replications": draw(st.integers(1, 2))}
        if command == "entropy":
            cfg["rho"] = 1.0 - alpha / d
        else:
            cfg["alpha"] = alpha
    forced = command in ("converge", "diverge", "entropy") and draw(st.booleans())
    return command, cfg, ["--force"] if forced else []


_BOX_D5 = {"type": "box", "lo": [0.0] * 5, "hi": [1e-3] * 5}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_extreme_runs())
# closed forms whose values exceed the largest float, each refused naming rho or alpha
@example(("limit", {"model": "power_law", "d": 12, "beta": 512, "alpha": -4000, "j": 2}, []))
@example(("limit", {"model": "uniform_union", "d": 5, "bodies": [_BOX_D5], "alpha": -4000}, []))
@example(("limit", dict(COUNTER, d=20, r=300.0, alpha=-3980.0), []))
@example(("converge", {"model": "gaussian", "d": 1, "alpha": 1e6, **RUN}, ["--force"]))
# a unit ball sampled by rejection from the cube, refused from d = 13 on
@example(("converge", dict(COUNTER, d=20, alpha=1.0, **RUN), ["--force"]))
# a Gamma(beta - d) draw of 0 or near it, refused naming beta
@example(("probe", dict(POWER, d=15, beta=15.000000001, alpha=437509.7, n_grid=[3, 18]), []))
# r * rho below 8e-17, where 1 - 2^(-r rho) rounds to 0
@example(("limit", dict(COUNTER, d=1, r=0.052, alpha=0.9999999999999999), []))
def test_cli_at_the_parameter_extremes_reports_finite_numbers_or_refuses(run):
    _assert_finite_report_or_refusal(run)


def test_unsamplable_power_law_is_refused_naming_beta(tmp_path, capsys):
    cfg = dict(POWER, beta=2.000000001, alpha=1.0, j=1, n_grid=[3, 18], replications=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_config(tmp_path, "probe", cfg) == 2
    assert caught == []
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "beta = 2.000000001 in d = 2" in line


def test_counterexample_where_1_minus_2_to_the_minus_r_rho_rounds_to_0(tmp_path, capsys):
    # r * rho = 0.052 * 2^-53: I_rho = omega_1 C^rho 2^(-2 r rho) / (1 - 2^(-r rho)) is
    # about 5e17, finite; the shell series, whose terms shrink by 2^(-r rho) per
    # shell, cannot sum it and refuses
    cfg = dict(COUNTER, d=1, r=0.052, alpha=0.9999999999999999, j=1)
    assert _run_config(tmp_path, "limit", cfg) == 2
    assert capsys.readouterr().err.startswith("error: shell series did not settle")
    out = tmp_path / "run.json"
    run = dict(cfg, n_grid=[3, 6], replications=2)
    assert _run_config(tmp_path, "converge", run, "--force", "--out", str(out)) == 0
    target = json.loads(out.read_text())["target"]
    assert target == AnnulusBallCounterexample(1, 0.052).i_rho(2.0**-53)
    assert target == pytest.approx(4.99793911427445751658e17, rel=1e-15)


def test_forced_counterexample_run_at_d_20_is_refused_at_once(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", dict(COUNTER, d=20, alpha=1.0, **RUN))
    start = time.monotonic()
    assert main(["converge", "--config", cfg, "--force"]) == 2
    assert time.monotonic() - start < 1.0
    assert "d = 20" in capsys.readouterr().err


def _run(argv, child_path=True):
    """Run argv in a child process; with child_path, the child imports this nnsums."""
    env = None
    if child_path:
        root = os.path.dirname(os.path.dirname(os.path.abspath(nnsums.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)


def _assert_help_lists_subcommands(proc):
    assert proc.returncode == 0, proc.stderr
    assert "estimate" in proc.stdout
    assert "diverge" in proc.stdout
    # "estimate" also occurs in the entropy help text, so check the usage
    # line's choice list as well.
    choices = re.search(r"\{([^}]*)\}", proc.stdout).group(1).split(",")
    assert {"estimate", "diverge"} <= set(choices), proc.stdout


def test_console_entry_point():
    # Run the [project.scripts] target the way a setuptools console-script
    # wrapper does, so the check needs no installed `nnsums` executable.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["nnsums"]
    module, func = target.split(":")
    wrapper = (
        f"import sys; sys.argv[0] = 'nnsums'; from {module} import {func}; sys.exit({func}())"
    )
    _assert_help_lists_subcommands(_run([sys.executable, "-c", wrapper, "--help"]))


@pytest.mark.skipif(shutil.which("nnsums") is None, reason="nnsums console script is not installed")
def test_installed_console_script():
    _assert_help_lists_subcommands(_run([shutil.which("nnsums"), "--help"], child_path=False))


def test_import_does_not_load_scipy_stats():
    # scipy.stats took about half of the import time of nnsums
    proc = _run([sys.executable, "-c", "import nnsums, sys; print('scipy.stats' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_does_not_load_scipy_integrate():
    # scipy.integrate and the scipy.optimize it pulls in cost 0.12-0.15 s of the import
    code = (
        "import nnsums, sys; "
        "print(sorted({'scipy.integrate', 'scipy.optimize'} & set(sys.modules)))"
    )
    proc = _run([sys.executable, "-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point(tmp_path):
    proc = _run([sys.executable, "-m", "nnsums", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "usage: nnsums" in proc.stdout
    # main's return code must reach the process exit status.
    missing = str(tmp_path / "missing.json")
    proc = _run([sys.executable, "-m", "nnsums", "check", "--config", missing])
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
