import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import oracles
from heatcount import load_spectrum
from heatcount.cli import main, parse_grid


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def interval_file(tmp_path):
    path = tmp_path / "interval.json"
    code = run(
        "generate", "--shape", "interval", "--length", math.pi, "--count", 200, "--out", path
    )
    assert code == 0
    return path


@pytest.fixture()
def const_file(tmp_path):
    path = tmp_path / "const.json"
    code = run(
        "generate", "--shape", "constant-density", "--density", 1, "--count", 10000, "--out", path
    )
    assert code == 0
    return path


class TestParseGrid:
    def test_comma_list(self):
        assert parse_grid("0.01,0.1,1") == [0.01, 0.1, 1.0]

    def test_range(self):
        assert parse_grid("1:3:0.5") == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_range_inclusive_of_stop_with_roundoff(self):
        got = parse_grid("0.1:0.3:0.1")
        assert len(got) == 3
        assert got[-1] == pytest.approx(0.3)

    def test_bad_range(self):
        from heatcount import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            parse_grid("1:2")
        with pytest.raises(InvalidParameterError):
            parse_grid("2:1:0.5")
        with pytest.raises(InvalidParameterError):
            parse_grid("a,b")
        # a non-finite bound or step would never end the range loop
        for text in ("0:inf:1", "-inf:0:1", "inf:inf:1", "nan:1:1", "0:1:nan", "0:1:inf"):
            with pytest.raises(InvalidParameterError):
                parse_grid(text)

    def test_non_finite_list_point_rejected(self):
        from heatcount import InvalidParameterError

        for text in ("nan", "30.5,nan,2.5", "inf,1", "1,-inf"):
            with pytest.raises(InvalidParameterError, match="non-finite"):
                parse_grid(text)

    def test_range_of_a_million_points_at_most(self):
        from heatcount import InvalidParameterError

        assert len(parse_grid("0:999999:1")) == 1_000_000
        with pytest.raises(InvalidParameterError, match="grid"):
            parse_grid("0:1000000:1")

    def test_huge_range_rejected_before_building(self, tmp_path, interval_file, capsys):
        # a billion points would take tens of gigabytes: the count comes first
        tracemalloc.start()
        try:
            code = run("weyl", "--spectrum", interval_file, "--t", "0:1e9:1",
                       "--out", tmp_path / "w.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "error: grid: range '0:1e9:1' has more than 1000000 points" in capsys.readouterr().err
        assert peak < 4 * 2**20
        assert not (tmp_path / "w.csv").exists()


class TestGenerate:
    def test_interval_endpoints(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("generate", "--shape", "interval", "--length", math.pi,
                   "--count", 1000, "--out", out) == 0
        s = load_spectrum(out)
        assert s.values[0] == 1.0
        assert s.values[-1] == 1e6
        assert s.total_count == 1000

    def test_torus_matches_lattice_oracle(self, tmp_path):
        out = tmp_path / "t.json"
        assert run("generate", "--shape", "torus", "--lambda-max", 100, "--out", out) == 0
        s = load_spectrum(out)
        assert s.total_count == sum(oracles.torus_multiplicities(100.0).values())

    def test_invalid_length_exits_2_and_names_field(self, tmp_path, capsys):
        code = run("generate", "--shape", "interval", "--length", -1,
                   "--count", 10, "--out", tmp_path / "x.json")
        assert code == 2
        assert "length" in capsys.readouterr().err

    def test_missing_parameter_names_field(self, tmp_path, capsys):
        code = run("generate", "--shape", "torus", "--out", tmp_path / "x.json")
        assert code == 2
        assert "lambda_max" in capsys.readouterr().err

    def test_label_overrides_generator_label(self, tmp_path):
        out = tmp_path / "s.json"
        assert run("generate", "--shape", "torus", "--lambda-max", 10,
                   "--label", "unit torus", "--out", out) == 0
        s = load_spectrum(out)
        assert s.label == "unit torus"
        assert s.generator == {"kind": "torus", "lambda_max": 10.0}

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "s.json"
        run("generate", "--shape", "interval", "--length", 1, "--count", 5, "--out", out)
        manifest = json.loads((tmp_path / "s.json.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["outputs"][0]["path"] == str(out)
        assert manifest["version"]
        assert manifest["duration_s"] >= 0


class TestVerify:
    def test_theorem_1_passes(self, tmp_path, interval_file):
        out = tmp_path / "t1.csv"
        code = run("verify", "--spectrum", interval_file, "--theorem", 1,
                   "--t", "0.01,0.1,1", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,heat_trace,step_exact,quadrature,correction,step_rel_dev,quad_rel_dev,pass"
        assert len(lines) == 4
        assert all(line.endswith(",yes") for line in lines[1:])

    def test_theorem_2_fails_with_impossible_tolerance(self, tmp_path, interval_file):
        # the pre-rounding error sits near 1e-3; a 1e-9 budget must fail
        out = tmp_path / "t2.csv"
        code = run("verify", "--spectrum", interval_file, "--theorem", 2,
                   "--lambda", "2.5", "--tol", "1e-9", "--out", out)
        assert code == 1
        assert out.read_text().splitlines()[1].endswith(",no")

    def test_theorem_2_round_trip(self, tmp_path, interval_file):
        out = tmp_path / "t2.csv"
        code = run("verify", "--spectrum", interval_file, "--theorem", 2,
                   "--lambda", "2.5,6.5,12.5", "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        rounded = [line.split(",")[3] for line in lines[1:]]
        assert rounded == ["1", "2", "3"]

    def test_theorem_2_requires_lambda(self, tmp_path, interval_file, capsys):
        code = run("verify", "--spectrum", interval_file, "--theorem", 2,
                   "--out", tmp_path / "x.csv")
        assert code == 2
        assert "lambda" in capsys.readouterr().err

    def test_theorem_3_bound_based(self, tmp_path, interval_file):
        out = tmp_path / "t3.csv"
        code = run("verify", "--spectrum", interval_file, "--theorem", 3,
                   "--lambda", "12", "--beta", "1,2,5,10,20", "--out", out)
        assert code == 0

    def test_theorem_4_regime(self, tmp_path, const_file):
        out = tmp_path / "t4.csv"
        code = run("verify", "--spectrum", const_file, "--theorem", 4,
                   "--t", "1e-3,1e-2", "--out", out)
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "t,K,N_inv,ratio,flag,pass"

    def test_theorem_4_parses_its_grid_once(self, tmp_path, const_file, monkeypatch):
        # the pass rule takes the smallest t from the sorted table, not from --t per row
        calls = []

        def counted(text):
            calls.append(text)
            return parse_grid(text)

        monkeypatch.setattr("heatcount.cli.parse_grid", counted)
        code = run("verify", "--spectrum", const_file, "--theorem", 4,
                   "--t", "1e-3:1e-2:1e-3", "--out", tmp_path / "t4.csv")
        assert code == 0
        assert calls == ["1e-3:1e-2:1e-3"]

    def test_theorem_4_coverage_failure(self, tmp_path, const_file):
        out = tmp_path / "t4.csv"
        code = run("verify", "--spectrum", const_file, "--theorem", 4,
                   "--t", "1e-5,1e-2", "--out", out)
        assert code == 1
        assert "coverage" in out.read_text()

    def test_missing_spectrum_exits_2(self, tmp_path, capsys):
        code = run("verify", "--spectrum", tmp_path / "nope.json", "--theorem", 1,
                   "--out", tmp_path / "x.csv")
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path, interval_file):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for theorem, extra in ((1, ["--t", "0.01,1"]), (2, ["--lambda", "2.5,6.5"]),
                               (3, ["--lambda", "12"]), (4, ["--t", "0.1,0.5"])):
            assert run("verify", "--spectrum", interval_file, "--theorem", theorem,
                       *extra, "--out", out1) in (0, 1)
            assert run("verify", "--spectrum", interval_file, "--theorem", theorem,
                       *extra, "--out", out2) in (0, 1)
            assert out1.read_bytes() == out2.read_bytes()

    def test_quadrature_at_tiny_t_passes_its_row(self, tmp_path, interval_file):
        # at t = 1e-307 a domain end (log N + 28) / t would pass the double
        # range; the piece past the last value is exact, so the row passes
        out = tmp_path / "t1.csv"
        code = run("verify", "--spectrum", interval_file, "--theorem", 1,
                   "--t", "1e-307,1", "--out", out)
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows[0][0] == "9.9999999999999991e-308"
        assert math.isfinite(float(rows[0][3]))
        assert rows[0][-1] == "yes"
        assert rows[1][-1] == "yes"

    def test_theorem_1_trace_underflowing_to_zero_fails_its_row(self, tmp_path, interval_file):
        # K(1000) = e^-1000 + ... rounds to 0, so no relative deviation exists
        out = tmp_path / "t1.csv"
        code = run("verify", "--spectrum", interval_file, "--theorem", 1,
                   "--t", "1,1000", "--out", out)
        assert code == 1
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows[0][-1] == "yes"
        assert rows[1] == ["1000", "0", "0", "0", "0", "nan", "nan", "no"]

    @pytest.mark.parametrize("theorem, given", [
        (1, ["--beta", "1"]), (1, ["--lambda", "2.5"]), (2, ["--beta", "1"]),
        (2, ["--t", "0.1"]), (3, ["--tol", "0.1"]), (3, ["--t", "0.1"]),
        (4, ["--beta", "1"]), (4, ["--lambda", "2.5"]),
    ])
    def test_flag_the_theorem_does_not_read_exits_2(self, tmp_path, interval_file, capsys,
                                                    theorem, given):
        needed = {1: [], 2: ["--lambda", "2.5"], 3: ["--lambda", "12"], 4: []}[theorem]
        out = tmp_path / "x.csv"
        code = run("verify", "--spectrum", interval_file, "--theorem", theorem, *needed, *given,
                   "--out", out)
        assert code == 2
        assert f"{given[0][2:]}: not read by theorem {theorem}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("theorem, direct, flags", [
        (2, "invert", ["--lambda", "0.5,2.5,9,12,380.5"]),
        (3, "smooth", ["--lambda", "12", "--beta", "0.5,1,2,5,10,20"]),
        (4, "weyl", ["--t", "0.001:0.01:0.001"]),
    ])
    def test_table_is_the_direct_subcommand_plus_pass(self, tmp_path, interval_file, const_file,
                                                      theorem, direct, flags):
        spectrum = const_file if theorem == 4 else interval_file
        checked, plain = tmp_path / "verify.csv", tmp_path / "direct.csv"
        run("verify", "--spectrum", spectrum, "--theorem", theorem, *flags, "--out", checked)
        assert run(direct, "--spectrum", spectrum, *flags, "--out", plain) == 0
        lines = checked.read_text().splitlines()
        assert lines[0].endswith(",pass")
        assert [line.rsplit(",", 1)[0] for line in lines] == plain.read_text().splitlines()

    def test_manifest_records_resolved_defaults(self, tmp_path, interval_file):
        out = tmp_path / "t1.csv"
        assert run("verify", "--spectrum", interval_file, "--theorem", 1, "--out", out) == 0
        manifest = json.loads((tmp_path / "t1.csv.manifest.json").read_text())
        assert manifest["params"] == {
            "spectrum": str(interval_file), "theorem": 1, "t": "0.01,0.1,1,10", "tol": 1e-12,
            "out": str(out),
        }

    def test_rerun_from_manifest_params_reproduces(self, tmp_path, interval_file):
        out1 = tmp_path / "a.csv"
        run("verify", "--spectrum", interval_file, "--theorem", 1, "--t", "0.5,1", "--out", out1)
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        params = manifest["params"]
        out2 = tmp_path / "b.csv"
        run("verify", "--spectrum", params["spectrum"], "--theorem", params["theorem"],
            "--t", params["t"], "--out", out2)
        assert out1.read_bytes() == out2.read_bytes()
        recorded = manifest["outputs"][0]["sha256"]
        import hashlib

        assert hashlib.sha256(out1.read_bytes()).hexdigest() == recorded


class TestThinWrappers:
    def test_smooth_default_beta(self, tmp_path, interval_file):
        out = tmp_path / "s.csv"
        assert run("smooth", "--spectrum", interval_file, "--lambda", 12, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,value,deviation,bound"
        assert len(lines) == 2

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("beta", [None, "1,2"], ids=["default-beta", "beta-grid"])
    def test_smooth_non_finite_lambda_exits_2(self, tmp_path, interval_file, capsys, lam, beta):
        out = tmp_path / "s.csv"
        flags = [] if beta is None else ["--beta", beta]
        assert run("smooth", "--spectrum", interval_file, f"--lambda={lam}", *flags, "--out", out) == 2
        assert capsys.readouterr().err == f"error: smoothing requires a finite lambda, got {float(lam)!r}\n"
        assert not out.exists()

    def test_smooth_manifest_records_default_beta(self, tmp_path, interval_file):
        out = tmp_path / "s.csv"
        assert run("smooth", "--spectrum", interval_file, "--lambda", 12, "--out", out) == 0
        beta = json.loads((tmp_path / "s.csv.manifest.json").read_text())["params"]["beta"]
        assert float(beta) == float(out.read_text().splitlines()[1].split(",")[0])

    def test_invert_profile_csv(self, tmp_path, interval_file):
        out = tmp_path / "i.csv"
        assert run("invert", "--spectrum", interval_file, "--lambda", "2.5,6.5", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,value,oscillation_estimate,rounded,oracle,match"
        assert [line.split(",")[-1] for line in lines[1:]] == ["yes", "yes"]

    def test_invert_manual_config(self, tmp_path, interval_file):
        out = tmp_path / "i.csv"
        assert run("invert", "--spectrum", interval_file, "--lambda", "2.5",
                   "--c", 0.8, "--height", 400, "--step", 0.01, "--out", out) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert abs(float(row[1]) - 1.0) < 0.05

    @pytest.mark.parametrize("contour", [["--c", 0.8], ["--height", 400, "--step", 0.01],
                                         ["--c", -1, "--height", 400, "--step", 0.01]])
    def test_invert_bad_manual_contour_exits_2(self, tmp_path, interval_file, capsys, contour):
        out = tmp_path / "i.csv"
        assert run("invert", "--spectrum", interval_file, "--lambda", "2.5,6.5", *contour,
                   "--out", out) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_invert_overflowing_contour_is_an_error_row(self, tmp_path, interval_file):
        # c*lam is 300 at lam = 5 and 750 at lam = 12.5: only the second row overflows
        out = tmp_path / "i.csv"
        assert run("invert", "--spectrum", interval_file, "--lambda", "5,12.5",
                   "--c", 60, "--height", 10, "--step", 0.01, "--out", out) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 2 and "error" not in rows[0]
        assert ",error: e^(c*lam) overflows" in rows[1]

    def test_manifest_params_are_the_parsed_arguments(self, tmp_path, interval_file):
        out = tmp_path / "i.csv"
        run("invert", "--spectrum", interval_file, "--lambda", "2.5",
            "--c", 0.8, "--height", 400, "--step", 0.01, "--out", out)
        manifest = json.loads((tmp_path / "i.csv.manifest.json").read_text())
        assert manifest["command"] == "invert"
        assert manifest["params"] == {
            "spectrum": str(interval_file), "lam": "2.5", "contour_c": 0.8,
            "height": 400.0, "step": 0.01, "out": str(out),
        }

    def test_weyl_csv(self, tmp_path, const_file):
        out = tmp_path / "w.csv"
        assert run("weyl", "--spectrum", const_file, "--t", "1e-3,1e-2", "--out", out) == 0
        assert out.read_text().splitlines()[0] == "t,K,N_inv,ratio,flag"

    def test_tauber_csv(self, tmp_path, const_file):
        out = tmp_path / "tb.csv"
        assert run("tauber", "--spectrum", const_file, "--t-lo", 1e-3, "--t-hi", 1e-2,
                   "--probe", 500, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "A,p,residual,lambda_probe,predicted,actual,relative_gap"
        cells = lines[1].split(",")
        assert float(cells[0]) == pytest.approx(0.98757, rel=1e-4)
        assert cells[5] == "499"

    def test_density_csv(self, tmp_path, const_file):
        out = tmp_path / "d.csv"
        assert run("density", "--spectrum", const_file, "--bin-width", 100,
                   "--range", "0,10000", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "abscissa,value,error_estimate"
        assert len(lines) == 101
        assert all(line.split(",")[1] == "1" for line in lines[1:])

    def test_determinism_of_wrappers(self, tmp_path, const_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("weyl", "--spectrum", const_file, "--t", "1e-3:1e-2:1e-3", "--out", a)
        run("weyl", "--spectrum", const_file, "--t", "1e-3:1e-2:1e-3", "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestExitCodeContract:
    def test_success_is_zero(self, tmp_path, interval_file):
        assert run("verify", "--spectrum", interval_file, "--theorem", 1,
                   "--out", tmp_path / "x.csv") == 0

    def test_verification_failure_is_one(self, tmp_path, interval_file):
        assert run("verify", "--spectrum", interval_file, "--theorem", 2,
                   "--lambda", "2.5", "--tol", "1e-9", "--out", tmp_path / "x.csv") == 1

    def test_usage_error_is_two(self, tmp_path, interval_file):
        assert run("verify", "--spectrum", interval_file, "--theorem", 2,
                   "--lambda", "not-a-grid", "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("flags, field", [
        (["verify", "--theorem", 2, "--lambda", "1:x:1"], "grid"),
        (["density", "--bin-width", 1, "--range", "0,x"], "range"),
        (["density", "--bin-width", 1, "--range", "0,10,20"], "range"),
        (["invert", "--lambda", 2.5, "--c", 0.8, "--height", "inf", "--step", 0.01],
         "c/height/step"),
        (["invert", "--lambda", "30.5,nan,2.5"], "grid"),
        (["weyl", "--t", ","], "grid"),
        (["verify", "--theorem", 3, "--lambda", "1,2"], "lambda"),
    ], ids=["lambda-unparsable", "range-unparsable", "range-three-values", "height-inf",
            "lambda-nan-in-list", "t-empty-grid", "theorem-3-two-lambdas"])
    def test_unparsable_flag_is_two_and_named(self, tmp_path, interval_file, capsys, flags, field):
        command, *rest = flags
        out = tmp_path / "x.csv"
        assert run(command, "--spectrum", interval_file, *rest, "--out", out) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not out.exists()

    @pytest.mark.parametrize("generator", [
        '{"kind": "interval"}',
        '{"kind": "rectangle", "a": 1}',
        '{"kind": "constant_density", "density": 0, "count": 2}',
        '{"kind": "interval", "length": "x"}',
        '"abc"',
        '[["kind", "interval"], ["length", 1.0]]',
    ], ids=["no-length", "no-b", "zero-density", "string-length", "string", "list-of-pairs"])
    def test_bad_generator_is_two_and_named(self, tmp_path, capsys, generator):
        # unchecked, the first four fail in the heat trace's tail bound with
        # an error of no package type, which exits 1
        path = tmp_path / "g.json"
        path.write_text('{"generator": %s, "values": [1.0, 4.0], "multiplicities": [1, 1]}' % generator)
        out = tmp_path / "x.csv"
        assert run("weyl", "--spectrum", path, "--t", 1, "--out", out) == 2
        assert capsys.readouterr().err.startswith("error: generator")
        assert not out.exists()

    @pytest.mark.parametrize("width", ["1e-300", "5e-324"])
    def test_density_of_more_than_a_million_bins_is_two(self, tmp_path, interval_file, capsys, width):
        out = tmp_path / "x.csv"
        assert run("density", "--spectrum", interval_file, "--bin-width", width,
                   "--range", "0,100", "--out", out) == 2
        assert "more than 1000000 bins" in capsys.readouterr().err
        assert not out.exists()

    def test_argparse_usage_error_is_two(self):
        with pytest.raises(SystemExit) as info:
            run("verify", "--theorem", 9)
        assert info.value.code == 2


# the last line a script prints: the heatcount and numpy modules its interpreter loaded
LOADED = "print(' '.join(m for m in sys.modules if m == 'numpy' or m.startswith('heatcount')))"

# the package's own entry point, as `python -m heatcount` runs it
RUN_MODULE = f"""
import runpy, sys
try:
    runpy.run_module("heatcount", run_name="__main__", alter_sys=True)
finally:
    {LOADED}
"""

RUN_MAIN = f"""
import sys
from heatcount.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code
else:
    raise AssertionError("main returned without SystemExit")
{LOADED}
"""


def fresh(script, *argv):
    """Run ``script`` in a new interpreter; the process and the modules it printed last."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True)
    return proc, set(proc.stdout.splitlines()[-1].split())


class TestFreshInterpreter:
    """Each command in a new interpreter, where no layer is loaded before it runs."""

    # subcommand -> (input spectrum, its flags, the layers it loads besides cli and errors)
    CASES = {
        "generate": (None, ["--shape", "torus", "--lambda-max", 200], {"spectrum"}),
        "verify": ("interval", ["--theorem", 1, "--t", "0.01,0.1,1"],
                   {"spectrum", "transforms", "evaltable"}),
        "invert": ("interval", ["--lambda", "2.5,12.5"],
                   {"spectrum", "transforms", "evaltable", "inversion"}),
        "smooth": ("interval", ["--lambda", 12], {"spectrum", "transforms", "evaltable", "smoothing"}),
        "weyl": ("const", ["--t", "0.001,0.01"], {"spectrum", "transforms", "evaltable", "asymptotics"}),
        "tauber": ("const", ["--t-lo", 0.001, "--t-hi", 0.01, "--probe", 500],
                   {"spectrum", "transforms", "evaltable", "asymptotics"}),
        "density": ("const", ["--bin-width", 100, "--range", "0,10000"],
                    {"spectrum", "transforms", "evaltable"}),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_same_bytes_and_only_its_layers(self, command, tmp_path, request):
        spectrum, flags, layers = self.CASES[command]
        if spectrum is not None:
            flags = ["--spectrum", request.getfixturevalue(f"{spectrum}_file"), *flags]
        here, there = tmp_path / "in-process.out", tmp_path / "fresh.out"
        assert run(command, *flags, "--out", here) == 0
        proc, loaded = fresh(RUN_MODULE, command, *flags, "--out", there)
        assert proc.returncode == 0, proc.stderr
        assert there.read_bytes() == here.read_bytes()
        expected = {"heatcount", "heatcount.cli", "heatcount.errors", "numpy"}
        assert loaded == expected | {f"heatcount.{layer}" for layer in layers}

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_load_no_layer_and_no_numpy(self, flag):
        proc, loaded = fresh(RUN_MAIN, flag)
        assert proc.returncode == 0, proc.stderr
        assert loaded == {"heatcount", "heatcount.cli", "heatcount.errors"}
