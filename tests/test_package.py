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


SRC = Path(heatcount.__file__).resolve().parent


def test_every_import_and_definition_is_used():
    """Each module of the package uses every name it imports, and each
    module-level function, class and constant is read somewhere in the
    package or exported (``_EXPORTS``); dunders are exempt.  No linter is
    installed, so this is the package's dead-code check."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    read = {name: {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
                   and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Load)}
            for name, tree in trees.items()}
    everywhere = set().union(*read.values())
    exported = {name for names in heatcount._EXPORTS.values() for name in names}
    unused, unreferenced = [], []
    for module, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read[module]:
                        unused.append(f"{module}: {bound}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in defined:
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and name not in everywhere and name not in exported:
                    unreferenced.append(f"{module}: {name}")
    assert unused == []
    assert unreferenced == []
