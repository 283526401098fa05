import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nnsums
from nnsums import PointSet
from nnsums.cli import main


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


def test_estimate_cli(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    PointSet([0.0, 1.0, 3.0]).to_csv(points)
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
    PointSet([0.0, 1.0, 3.0]).to_csv(points)
    payload = {"points": str(points), "j": 1, "phi": "capped"}
    cfg = _write_config(tmp_path, "est.json", payload)
    assert main(["estimate", "--config", cfg]) == 0
    assert "S_{n,phi} = 3.0" in capsys.readouterr().out


def test_estimate_rejects_both_weights(tmp_path, capsys):
    points = tmp_path / "pts.csv"
    PointSet([0.0, 1.0, 3.0]).to_csv(points)
    payload = {"points": str(points), "j": 1, "alpha": 1.0, "phi": "capped"}
    cfg = _write_config(tmp_path, "est.json", payload)
    assert main(["estimate", "--config", cfg]) == 2


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
    PointSet([0.0, 1.0, 3.0]).to_csv(tmp_path / "pts.csv")
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


def test_module_entry_point(tmp_path):
    proc = _run([sys.executable, "-m", "nnsums", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "usage: nnsums" in proc.stdout
    # main's return code must reach the process exit status.
    missing = str(tmp_path / "missing.json")
    proc = _run([sys.executable, "-m", "nnsums", "check", "--config", missing])
    assert proc.returncode == 2, proc.stderr
    assert "error:" in proc.stderr
