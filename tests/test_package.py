"""Tests of the package as a whole: module boundaries and the README's API."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import optev

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "optev"


def test_no_module_imports_a_private_name_of_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                offenders += [f"{path.name}:{node.lineno} {name}" for name in private]
    assert offenders == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", blocks[0]], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr


def test_documented_names_exist():
    # `optev.<module>.<name>` in the README, and :func:`name` or
    # :func:`optev.<module>.<name>` in a docstring, a bare name read in the
    # docstring's own module
    refs = [m.groups() for m in re.finditer(r"`optev\.(\w+)\.(\w+)", (ROOT / "README.md").read_text())]
    assert refs
    docstring_refs = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                for ref in re.findall(r":func:`([\w.]+)`", ast.get_docstring(node) or ""):
                    module, _, name = ref.removeprefix("optev.").rpartition(".")
                    docstring_refs.append((module or path.stem, name))
    assert docstring_refs
    missing = [f"optev.{module}.{name}" for module, name in refs + docstring_refs
               if not hasattr(importlib.import_module(f"optev.{module}"), name)]
    assert missing == []


def test_public_surface_is_the_documented_api():
    assert sorted(optev.__all__) == [
        "ConfigError",
        "EstimatorKind",
        "ExperimentConfig",
        "Observable",
        "PureState",
        "RadialLaw",
        "__version__",
        "analytic_delta_av",
        "analytic_delta_mixed_qubit",
        "analytic_delta_opt",
        "build_projector_occupation",
        "build_projector_permutation",
        "check_unbiased_lemma",
        "derive_stream",
        "enumerate_occupations",
        "estimate_optimal",
        "estimate_optimal_mixed_qubit",
        "estimate_sample_average",
        "expectation",
        "haar_average_tensor_power",
        "load_observable",
        "make_observable",
        "observable_to_json",
        "occupation_basis_vector",
        "outcome_distribution",
        "rows_to_csv",
        "run_experiment",
        "run_verify",
        "sample_bloch_mixed",
        "sample_haar_amplitudes",
        "sample_haar_pure",
        "simulate_measurements",
        "symmetric_dimension",
    ]
    assert all(hasattr(optev, name) for name in optev.__all__)
    # internals that stay importable from their modules, not from the top level
    internal = {
        "estimators": ["affine_form", "analytic_bias", "analytic_mse", "ensemble_moments"],
        "symmetric": ["embed_one_body", "estimator_operator", "partial_trace_last"],
        "hermitian": ["observable_from_json"],
        "harness": ["load_config", "run_sweep"],
    }
    for module, names in internal.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"optev.{module}"), name))
