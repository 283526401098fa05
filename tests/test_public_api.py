"""The public surface of nnsums is what its users outside the package use.

Those users are the CLI and the experiment drivers (inside the package),
the acceptance suite and the benchmark workloads. A name that leaves
``__all__`` while one of them still imports it fails here, and so does a
name that joins ``__all__`` without being added to the list below.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import nnsums

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "AnnulusBallCounterexample",
    "Ball",
    "Box",
    "ConditionRefused",
    "ConditionReport",
    "ConfigError",
    "DegenerateStatistic",
    "DensityModel",
    "DivergenceSchedule",
    "EdgeList",
    "EntropyValue",
    "EstimatorConfig",
    "ExperimentResult",
    "GaussianStandard",
    "InvalidGammaArgument",
    "InvalidRho",
    "NeighborIndex",
    "NeighborQuery",
    "PHI_REGISTRY",
    "PointSet",
    "PowerLawTail",
    "QuadratureBudgetExceeded",
    "UniformConvexUnion",
    "build_index",
    "build_mst",
    "check_divergence",
    "check_moment_condition",
    "check_power_tail",
    "condition_report",
    "entropy_from_integral",
    "gamma_constant",
    "knn_distances",
    "l_power_nn",
    "limit_functional",
    "mann_kendall_increasing",
    "model_from_config",
    "nn_distance_bruteforce",
    "nn_distance_indexed",
    "poisson_expectation",
    "poisson_nn_moment",
    "run_convergence",
    "run_divergence",
    "run_entropy",
    "run_moment_probe",
    "sample_poisson_nn_distances",
    "statistic_phi",
    "statistic_power",
    "unit_ball_volume",
]


def test_all_is_the_expected_sorted_list():
    assert len(PUBLIC) == 48
    assert PUBLIC == sorted(PUBLIC)
    assert nnsums.__all__ == PUBLIC
    for name in nnsums.__all__:
        assert getattr(nnsums, name) is not None, name


def test_acceptance_imports_are_public():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "nnsums"
        for alias in node.names
    }
    assert imported
    assert imported <= set(nnsums.__all__), sorted(imported - set(nnsums.__all__))


def test_benchmark_workload_calls_are_public():
    text = (ROOT / "benchmarks" / "workloads.py").read_text()
    called = set(re.findall(r"\bnn\.([A-Za-z_]\w*)", text))
    assert called
    assert called <= set(nnsums.__all__), sorted(called - set(nnsums.__all__))


def test_every_traced_benchmark_boundary_resolves(monkeypatch):
    # load benchmarks/spans.py by path and look up each boundary as its
    # tracer would, without wrapping anything
    spec = importlib.util.spec_from_file_location("_bench_spans", ROOT / "benchmarks" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.BOUNDARIES
    for b in spans.BOUNDARIES:
        target = importlib.import_module(b.module)
        if b.owner is not None:
            target = getattr(target, b.owner)
        assert callable(getattr(target, b.attr)), (b.module, b.owner, b.attr)


def _load_benchmark_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_full_size_workload_reaches_its_traced_spans(monkeypatch, tmp_path):
    # what a traced benchmark worker does, in process: a layer that stops
    # calling a traced boundary (as stacked levels did once) fails here
    spans = _load_benchmark_module(monkeypatch, "spans")
    workloads = _load_benchmark_module(monkeypatch, "workloads")
    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        outdir = tmp_path / name
        outdir.mkdir()
        tracer = spans.Tracer()
        tracer.install()
        try:
            state = workload.setup(nnsums, workload.spec, workload.default_seed)
            workload.run(nnsums, state, str(outdir))
        finally:
            tracer.uninstall()
        try:
            spans.require_reached(tracer.spans, workload.reached)
        except spans.MissingBoundary as exc:
            raise AssertionError(f"{name}: {exc}") from None


#: Every private name one nnsums module takes from a sibling, as (importer,
#: sibling, name). New coupling between modules fails the test below until
#: it joins this list, where review sees it.
PRIVATE_IMPORTS = {
    ("cli", "densities", "_MODEL"),
    ("cli", "densities", "_REQUIRED"),
    ("cli", "densities", "_read_config"),
    ("cli", "errors", "_integer"),
    ("conditions", "errors", "_integer"),
    ("conditions", "errors", "_real"),
    ("densities", "errors", "_integer"),
    ("densities", "errors", "_real"),
    ("densities", "limits", "_adaptive_gauss"),
    ("densities", "limits", "_exp_or_refuse"),
    ("densities", "limits", "_log_unit_ball_volume"),
    ("experiments", "densities", "_MODEL"),
    ("experiments", "densities", "_REQUIRED"),
    ("experiments", "densities", "_read_config"),
    ("experiments", "errors", "_integer"),
    ("experiments", "errors", "_real"),
    ("experiments", "limits", "_check_rho"),
    ("experiments", "neighbors", "_power_row_sums"),
    ("limits", "errors", "_integer"),
    ("limits", "errors", "_real"),
    ("limits", "neighbors", "_elementwise"),
    ("mst", "neighbors", "_power"),
    ("mst", "neighbors", "_sq_dists_to"),
    ("mst", "neighbors", "_weighted_sum"),
    ("neighbors", "errors", "_integer"),
    ("neighbors", "errors", "_real"),
}


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_imports():
    """(importer, sibling, name) for each private name a package module
    takes from a sibling, by ``from .m import _x`` or by ``m._x`` after
    ``from . import m``."""
    found = set()
    for path in sorted((ROOT / "src" / "nnsums").glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    found.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and _is_private(node.attr)
            ):
                found.add((path.stem, siblings[node.value.id], node.attr))
    return found


def test_private_names_taken_across_modules_are_listed():
    found = _private_imports()
    assert not found - PRIVATE_IMPORTS, f"unlisted: {sorted(found - PRIVATE_IMPORTS)}"
    assert not PRIVATE_IMPORTS - found, f"no longer taken: {sorted(PRIVATE_IMPORTS - found)}"
