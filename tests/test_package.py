"""The public API of the package: its names, their home modules, lazy loading."""

import ast
import importlib
from pathlib import Path

import pytest

import heatcount
from test_cli import LOADED, fresh

# home module -> the public names it defines
HOMES = {
    "asymptotics": ["PowerLawFit", "TauberianResult", "WeylCheckReport", "tauberian_first_term",
                    "weyl_check"],
    "errors": ["AccuracyError", "ConfigurationError", "CoverageError", "DomainError",
               "EmptySpectrumError", "HeatcountError", "InsufficientDataError",
               "InvalidParameterError", "SpectrumFormatError", "ValidationError"],
    "evaltable": ["EvalTable"],
    "inversion": ["InversionConfig", "InversionResult", "abscissa_estimate", "bromwich_invert",
                  "invert_profile"],
    "smoothing": ["beta_sweep", "default_beta", "smoothed_counting", "smoothing_error_bound"],
    "spectrum": ["Spectrum", "generate_constant_density", "generate_interval",
                 "generate_rectangle", "generate_torus", "load_spectrum", "save_spectrum"],
    "transforms": ["CountingMode", "DensityResult", "HeatTraceResult", "TailBound", "counting",
                   "density_estimate", "heat_trace", "laplace_of_counting",
                   "partial_exponential_sum", "truncation_correction"],
}
NAMES = [(home, name) for home, names in HOMES.items() for name in names]


def test_all_is_the_pinned_list():
    assert heatcount.__all__ == sorted(name for _, name in NAMES)
    assert len(heatcount.__all__) == 42


@pytest.mark.parametrize("home, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_home_modules_object(home, name):
    module = importlib.import_module(f"heatcount.{home}")
    assert getattr(heatcount, name) is getattr(module, name)


def test_dir_and_star_import_cover_every_name():
    listed = dir(heatcount)
    assert "__all__" in listed and "__version__" in listed
    assert set(heatcount.__all__) <= set(listed)
    namespace = {}
    exec("from heatcount import *", namespace)
    assert {name: namespace[name] for name in heatcount.__all__} == {
        name: getattr(heatcount, name) for name in heatcount.__all__
    }


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'heatcount' has no attribute 'no_such_name'"):
        heatcount.no_such_name  # noqa: B018
    assert not hasattr(heatcount, "generate_sphere")


def test_import_loads_no_layer_and_no_numpy():
    proc, loaded = fresh(f"import sys, heatcount\n{LOADED}")
    assert proc.returncode == 0, proc.stderr
    assert loaded == {"heatcount"}


def test_layer_modules_are_attributes_on_first_access():
    script = "\n".join([
        "import sys, heatcount",
        "assert heatcount.smoothing is sys.modules['heatcount.smoothing']",
        "assert 'inversion' in dir(heatcount) and 'heatcount.inversion' not in sys.modules",
        LOADED,
    ])
    proc, loaded = fresh(script)
    assert proc.returncode == 0, proc.stderr
    assert "heatcount.smoothing" in loaded and "heatcount.inversion" not in loaded


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_names():
    """The package names the benchmark reaches, read from its source without
    importing it: ``heatcount.<module>.<name>`` for each entry of
    ``spans.TARGETS``, which ``spans.install`` looks up with a bare getattr,
    and each ``hc.<name>`` or ``heatcount.<module>.<name>`` in ``workloads``."""
    names = set()
    for node in ast.parse((BENCH / "spans.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            names |= {f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in node.value.elts}
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Attribute):
            continue
        if isinstance(node.value, ast.Name) and node.value.id == "hc":
            names.add(node.attr)
        elif isinstance(node.value, ast.Attribute) and ast.unparse(node.value.value) == "heatcount":
            names.add(f"{node.value.attr}.{node.attr}")
    return names


def test_names_the_benchmark_reaches_resolve():
    names = bench_names()
    assert {"transforms.heat_trace", "cli.main", "heat_trace", "beta_sweep"} <= names
    missing = []
    for name in sorted(names):
        module, _, attr = name.rpartition(".")
        home = importlib.import_module(f"heatcount.{module}") if module else heatcount
        if not hasattr(home, attr):
            missing.append(name)
    assert missing == []
