"""Golden-bytes check of the CLI data files.

Each case reruns one subcommand on the generated acceptance spectra and
compares the CSV it writes, byte for byte, with the file of the same name
under ``tests/golden/``; the spectrum JSON that ``generate`` writes is held
to a pinned sha256 the same way.  A refactor must leave every file
unchanged; a change that means to alter an output regenerates its golden
file or digest and says so.  The files were produced on x86-64 with
numpy 2.4, at numpy's AVX-512 dispatch level and OpenBLAS's SkylakeX
kernel.

Every case is also rerun in a fresh interpreter with one OpenBLAS thread,
and, where the host has AVX-512, with numpy held to its AVX2 level
(``NPY_DISABLE_CPU_FEATURES``), whose ``exp`` rounds some arguments
differently.  So all nine files are portable across BLAS thread counts
and across those two numpy dispatch levels; every spectral sum, the
theorem-1 quadrature's parts included, is correctly rounded (equal to
math.fsum of its terms), so no byte depends on the order of a sum or on
the length of the spectrum.  Not portable: ``invert`` and ``verify-2`` take
their contour traces from a BLAS complex matrix product, whose bytes
follow the OpenBLAS kernel the CPU selects (they change under
``OPENBLAS_CORETYPE=Haswell``), and one factor of that product and
their tail sums from numpy's complex multiply, whose bytes change again
at numpy's x86-64-v2 baseline.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatcount import (
    Spectrum,
    generate_constant_density,
    generate_interval,
    generate_rectangle,
    generate_torus,
)
from heatcount.cli import main
from heatcount.inversion import InversionConfig, _resolve_config

GOLDEN = Path(__file__).parent / "golden"

SPECTRA = {
    "interval-10k": ["--shape", "interval", "--length", repr(math.pi), "--count", "10000"],
    "interval-200": ["--shape", "interval", "--length", repr(math.pi), "--count", "200"],
    "const-10k": ["--shape", "constant-density", "--density", "1", "--count", "10000"],
    "rectangle-10k": ["--shape", "rectangle", "--a", repr(math.pi), "--b", repr(math.pi),
                      "--lambda-max", "10000"],
    "torus-10k": ["--shape", "torus", "--lambda-max", "10000"],
}

# sha256 of the spectrum JSON that `generate` writes
SPECTRUM_SHA256 = {
    "interval-10k": "7f5c31d98b54d12f55a42d2d6ad2315e31c21f34905db6162f03a076f9cc2365",
    "interval-200": "bdfa93ca17a730c68875fad9ff2c03d68872f96cbf0b6404327080e984621cc3",
    "const-10k": "e04277aa836da8b8e4a24df1796a7a72161c51d84786af2899aec431d3e72ed4",
    "rectangle-10k": "d7b70bb27af82ae48bbf5224c2eebaaebbd830a5d283decfe146973a0258e312",
    "torus-10k": "ece21a9a87ab8898c0bbf5f5208e803c2dc24972bf9eb8b183d616b4ca9687a5",
}

# golden file stem -> (spectrum, subcommand and its flags)
CASES = {
    "verify-1": ("interval-10k", ["verify", "--theorem", "1", "--t", "0.01,0.1,1,10"]),
    "verify-2": ("interval-200", ["verify", "--theorem", "2", "--lambda", "2.5,6.5,12.5,20.5"]),
    "verify-3": ("interval-10k", ["verify", "--theorem", "3", "--lambda", "12",
                                  "--beta", "1,2,5,10,20"]),
    "verify-4": ("const-10k", ["verify", "--theorem", "4", "--t", "1e-3,1e-2"]),
    "invert": ("interval-200", ["invert", "--lambda", "0.5,2.5,9,12,380.5"]),
    "smooth": ("interval-10k", ["smooth", "--lambda", "12"]),
    "weyl": ("const-10k", ["weyl", "--t", "0.001:0.01:0.001"]),
    "tauber": ("const-10k", ["tauber", "--t-lo", "0.001", "--t-hi", "0.01", "--probe", "500"]),
    "density": ("const-10k", ["density", "--bin-width", "100", "--range", "0,10000"]),
}


def run_case(name: str, spectra: Path, out: Path) -> int:
    spectrum, (command, *flags) = CASES[name]
    return main([command, "--spectrum", str(spectra / f"{spectrum}.json"), *flags,
                 "--out", str(out / f"{name}.csv")])


@pytest.fixture(scope="module")
def spectra(tmp_path_factory):
    root = tmp_path_factory.mktemp("spectra")
    for name, flags in SPECTRA.items():
        assert main(["generate", *flags, "--out", str(root / f"{name}.json")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden_bytes(name, spectra, tmp_path):
    assert run_case(name, spectra, tmp_path) == 0
    got = (tmp_path / f"{name}.csv").read_bytes()
    assert got == (GOLDEN / f"{name}.csv").read_bytes()


def rerun_differs(spectra: Path, out: Path, **env) -> list:
    """The cases whose CSV differs from its golden file when every case is
    rerun in a fresh interpreter with ``env`` added to the environment."""
    script = (
        "import sys; from pathlib import Path; from test_golden import CASES, run_case\n"
        "for name in CASES: assert run_case(name, Path(sys.argv[1]), Path(sys.argv[2])) == 0"
    )
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script, str(spectra), str(out)],
                   env=env, check=True, capture_output=True)
    return [name for name in sorted(CASES)
            if (out / f"{name}.csv").read_bytes() != (GOLDEN / f"{name}.csv").read_bytes()]


def test_csv_bytes_at_one_blas_thread(spectra, tmp_path):
    # OpenBLAS reads its thread count once, when it loads, so this takes a new process
    assert rerun_differs(spectra, tmp_path, OPENBLAS_NUM_THREADS="1") == []


def dispatched(features) -> bool:
    """Whether numpy dispatches to every one of ``features`` on this host."""
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    host = getattr(umath, "__cpu_features__", {})
    return all(host.get(f) and f in getattr(umath, "__cpu_dispatch__", ()) for f in features)


AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


@pytest.mark.skipif(not dispatched(AVX512), reason="numpy dispatches to no AVX-512 level here")
def test_csv_bytes_at_numpy_avx2_dispatch(spectra, tmp_path):
    # numpy reads the disabled features once, when it loads
    assert rerun_differs(spectra, tmp_path, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512)) == []


def contour_heights() -> list:
    """float.hex of the auto contour's T at the inversion benchmark's 62
    points, the first midpoints and values of four families, and at 400
    seeded file spectra, a third of them with lam on a value."""
    points = []
    for s, n_mid, n_jump in ((generate_interval(math.pi, 200), 19, 5),
                             (generate_constant_density(1.0, 200), 19, 5),
                             (generate_torus(400.0), 7, 0),
                             (generate_rectangle(math.pi, math.pi, 2000.0), 7, 0)):
        v = s.values.tolist()
        points += [(s, 0.5 * (a + b)) for a, b in zip(v[:n_mid], v[1 : n_mid + 1])]
        points += [(s, x) for x in v[:n_jump]]
    rng = np.random.default_rng(34)
    for i in range(400):
        size = int(rng.integers(1, 31))
        values, mults = rng.uniform(0.5, 40.0, size), rng.integers(1, 4, size)
        lam = float(values[0]) if i % 3 == 0 else float(rng.uniform(0.2, 45.0))
        points.append((Spectrum.from_entries(values.tolist(), mults.tolist()), lam))
    return [_resolve_config(s, lam, InversionConfig())[0].T.hex() for s, lam in points]


@pytest.mark.skipif(not dispatched(AVX512), reason="numpy dispatches to no AVX-512 level here")
def test_contour_heights_at_numpy_avx2_dispatch():
    # the rule for T takes numpy's sin, products and quotients, never its
    # power, whose AVX-512 loop rounds some cubes differently
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512),
           "PYTHONPATH": os.pathsep.join(sys.path)}
    script = "import json; from test_golden import contour_heights; print(json.dumps(contour_heights()))"
    rerun = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                           capture_output=True, text=True)
    assert json.loads(rerun.stdout) == contour_heights()


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_spectrum_matches_pinned_digest(name, spectra):
    digest = hashlib.sha256((spectra / f"{name}.json").read_bytes()).hexdigest()
    assert digest == SPECTRUM_SHA256[name]
