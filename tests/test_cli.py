import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import resgrow as rg
from resgrow.cli import main


@pytest.fixture()
def diag_file(tmp_path):
    path = tmp_path / "diag.json"
    rg.save_matrix(str(path), np.diag([0.0 + 0j, 3.0 + 0j]))
    return str(path)


@pytest.fixture()
def shift4_file(tmp_path):
    path = tmp_path / "shift4.json"
    a = rg.weighted_shift([2, 1, 1, 1])
    rg.save_matrix(str(path), a)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_analyze_stdout(capsys, diag_file):
    code, out = run(capsys, "analyze", diag_file, "--z", "1,0")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "linear"
    assert data["norm"] == 1.0
    assert data["theta0"] == pytest.approx(np.pi)


def test_analyze_output_file(capsys, diag_file, tmp_path):
    target = tmp_path / "out.json"
    code, out = run(capsys, "analyze", diag_file, "--z", "1,0", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["case"] == "linear"


def test_analyze_deterministic(capsys, diag_file):
    _, first = run(capsys, "analyze", diag_file, "--z", "0.3,0.4")
    _, second = run(capsys, "analyze", diag_file, "--z", "0.3,0.4")
    assert first == second


def test_bad_arguments_exit_2(capsys, diag_file, tmp_path):
    assert main(["analyze", diag_file, "--z", "1;0"]) == 2
    assert main(["analyze", diag_file]) == 2
    assert main(["nonsense"]) == 2
    assert main(["analyze", str(tmp_path / "missing.json"), "--z", "1,0"]) == 2
    capsys.readouterr()


def test_malformed_inputs_exit_2(capsys, diag_file, tmp_path):
    bad_cfg = tmp_path / "cfg.json"
    bad_cfg.write_text("{broken")
    assert main(["analyze", diag_file, "--z", "1,0", "--config", str(bad_cfg)]) == 2
    bad_cfg.write_text('{"tol_typo": 1.0}')
    assert main(["analyze", diag_file, "--z", "1,0", "--config", str(bad_cfg)]) == 2
    bad_matrix = tmp_path / "bad.json"
    bad_matrix.write_text('{"n": 2, "entries": [[0, 0]]}')
    assert main(["analyze", str(bad_matrix), "--z", "1,0"]) == 2
    capsys.readouterr()


def test_integer_too_large_for_a_float_exits_2(capsys, diag_file, tmp_path):
    """A 400-digit integer in a config or matrix file is not finite: a
    usage error, not a traceback."""
    huge = "9" * 400
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"tol_svd": {huge}}}')
    assert main(["analyze", diag_file, "--z", "1,0", "--config", str(cfg)]) == 2
    matrix = tmp_path / "m.json"
    matrix.write_text(f'{{"n": 1, "entries": [[{huge}, 0]]}}')
    assert main(["analyze", str(matrix), "--z", "1,0"]) == 2
    assert capsys.readouterr().err.count("resgrow: error:") == 2


def test_near_singular_exit_3(capsys, diag_file):
    code, out = run(capsys, "analyze", diag_file, "--z", "3,0")
    assert code == 3
    data = json.loads(out)
    assert data["error"] == "near_singular"
    assert data["sigma_min"] == pytest.approx(0.0, abs=1e-14)


def test_growth_command(capsys, diag_file, tmp_path):
    csv_path = tmp_path / "seg.csv"
    code, out = run(
        capsys,
        "growth",
        diag_file,
        "--z",
        "1,0",
        "--a0",
        "0.25",
        "--samples",
        "8",
        "--expect",
        "linear",
        "--csv",
        str(csv_path),
    )
    assert code == 0
    data = json.loads(out)
    assert data["bound_check"]["passed"] is True
    assert 0.95 <= data["fitted_delta"] <= 1.05
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,re,im,norm"
    assert len(lines) == 10


def test_growth_shift2_quadratic(capsys, tmp_path):
    shift2 = tmp_path / "shift2.json"
    code, _ = run(capsys, "examples", "shift", "--weights", "2,1", "-o", str(shift2))
    assert code == 0
    code, out = run(capsys, "analyze", str(shift2), "--z", "0,0")
    assert code == 0
    point = json.loads(out)
    assert point["case"] == "quadratic"
    assert point["theta0"] == pytest.approx(0.0, abs=1e-9)
    code, out = run(capsys, "growth", str(shift2), "--z", "0,0")
    assert code == 0
    data = json.loads(out)
    assert data["fitted_delta"] == pytest.approx(2.0, abs=0.3)
    # demanding first-order growth at a second-order point fails the bound
    code, out = run(
        capsys, "growth", str(shift2), "--z", "0,0", "--expect", "linear"
    )
    assert code == 4
    assert json.loads(out)["bound_check"]["passed"] is False


def test_growth_domain_error_exit_2(capsys, diag_file):
    assert main(["growth", diag_file, "--z", "1,0", "--a0", "5"]) == 2
    capsys.readouterr()


def test_growth_failed_bound_exit_4(capsys, shift4_file):
    code, out = run(
        capsys, "growth", shift4_file, "--z", "0,0", "--theta", "0", "--expect", "linear"
    )
    assert code == 4
    data = json.loads(out)
    assert data["bound_check"]["passed"] is False
    assert data["bound_check"]["witness"] is not None


def test_path_command(capsys, diag_file):
    code, out = run(capsys, "path", diag_file, "--z", "1,0", "--epsilon", "1.25")
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalue"] == [0.0, 0.0]
    assert data["certificate"]["valid"] is True


def test_path_search_failure_exit_5(capsys, diag_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"max_steps": 1}')
    code, out = run(
        capsys, "path", diag_file, "--z", "1,0", "--epsilon", "1.25", "--config", str(cfg)
    )
    assert code == 5
    data = json.loads(out)
    assert data["error"] == "search_failure"
    assert data["reason"] == "iteration-limit"
    assert len(data["vertices"]) == 2


def test_path_from_an_exact_eigenvalue(capsys, diag_file):
    code, out = run(capsys, "path", diag_file, "--z", "0,0", "--epsilon", "1")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == [[0.0, 0.0], [0.0, 0.0]]
    assert data["delta"] == np.inf
    assert data["certificate"]["valid"] is True


def test_path_step_failure_exit_5(capsys, shift4_file):
    with mock.patch("resgrow.pseudo._line_search", return_value=None):
        code, out = run(capsys, "path", shift4_file, "--z", "0,0", "--epsilon", "0.65")
    assert code == 5
    data = json.loads(out)
    assert data["error"] == "search_failure"
    assert data["reason"] == "step-failure"
    assert data["suspected_local_min"] is True
    assert data["vertices"] == [[0.0, 0.0]]


def test_path_outside_set_exit_2(capsys, diag_file):
    assert main(["path", diag_file, "--z", "1,0", "--epsilon", "0.9"]) == 2
    capsys.readouterr()


def test_grid_command(capsys, diag_file, tmp_path):
    csv_path = tmp_path / "grid.csv"
    # values starting with a dash need the --flag=value spelling
    code, out = run(
        capsys,
        "grid",
        diag_file,
        "--bounds=-1,4,-1,1",
        "--nx",
        "20",
        "--ny",
        "10",
        "--epsilon",
        "0.8",
        "--csv",
        str(csv_path),
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["components"] == 2
    assert meta["complement_components"] == 1
    assert meta["nx"] == 20
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 1 + 20 * 10
    sidecar = tmp_path / "grid.csv.meta.json"
    assert json.loads(sidecar.read_text()) == meta
    # byte determinism of both artifacts
    first = csv_path.read_bytes()
    assert main(
        [
            "grid", diag_file, "--bounds=-1,4,-1,1", "--nx", "20", "--ny", "10",
            "--epsilon", "0.8", "--csv", str(csv_path), "--output", "-",
        ]
    ) == 0
    capsys.readouterr()
    assert csv_path.read_bytes() == first


def test_grid_malformed_bounds_exit_2(capsys, diag_file, tmp_path):
    csv_path = str(tmp_path / "g.csv")
    base = ["grid", diag_file, "--nx", "8", "--ny", "8", "--epsilon", "0.5",
            "--csv", csv_path]
    assert main(base + ["--bounds", "1,2,3"]) == 2
    assert main(base + ["--bounds", "0,1,0,x"]) == 2
    assert main(base + ["--bounds", "1,0,0,1"]) == 2
    capsys.readouterr()


def test_grid_pocket_metadata(capsys, tmp_path):
    # zigzag eigenvalues with slightly-overlapping disks leave two
    # enclosed gaps: complement count 3, inside count 1
    zz = tmp_path / "zz4.json"
    assert run(capsys, "examples", "zigzag", "--n", "4", "-o", str(zz))[0] == 0
    code, out = run(
        capsys, "grid", str(zz), "--bounds=-0.5,5.5,-2.5,2.5", "--nx", "160",
        "--ny", "160", "--epsilon", "1.08", "--csv", str(tmp_path / "zz.csv"),
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["components"] == 1
    assert meta["complement_components"] == 3


def test_examples_bad_params_exit_2(capsys, tmp_path):
    target = str(tmp_path / "never.json")
    assert main(["examples", "shift", "--weights", "2,x", "-o", target]) == 2
    assert "bad weights '2,x' (use complex literals like 2,1 or 1+2j)" in capsys.readouterr().err
    assert main(["examples", "shift", "--weights", "2,0", "-o", target]) == 2
    assert main(["examples", "zigzag", "--n", "1", "-o", target]) == 2
    assert main(["examples", "random", "--n", "0", "--seed", "1", "-o", target]) == 2
    capsys.readouterr()


def test_examples_options_before_generator_exit_2(capsys, tmp_path):
    # --output and --config go after the generator name; given before it
    # they are a usage error, not overwritten by the generator's defaults
    meta = tmp_path / "meta.json"
    target = str(tmp_path / "d.json")
    assert main(["examples", "--output", str(meta), "diag", "--entries", "0,0", "-o", target]) == 2
    assert main(["examples", "--config", str(meta), "diag", "--entries", "0,0", "-o", target]) == 2
    assert not meta.exists()
    capsys.readouterr()
    assert main(["examples", "diag", "--entries", "0,0", "-o", target, "--output", str(meta)]) == 0
    assert json.loads(meta.read_text())["n"] == 1
    assert capsys.readouterr().out == ""


def test_localmin_command(capsys, shift4_file):
    code, out = run(capsys, "localmin", shift4_file, "--z", "0,0", "--r0", "0.05")
    assert code == 0
    data = json.loads(out)
    assert data["is_local_min"] is True
    assert 1.7 <= data["fitted_exponent"] <= 2.3
    assert main(["localmin", shift4_file, "--z", "0,0", "--r0", "5"]) == 2
    capsys.readouterr()


def test_taylor_command(capsys, diag_file):
    code, out = run(capsys, "taylor", diag_file, "--z", "1,0")
    assert code == 0
    data = json.loads(out)
    assert 2.7 <= data["fitted_order"] <= 3.3
    assert len(data["steps"]) == 7


def test_taylor_local_min_needs_theta(capsys, shift4_file):
    assert main(["taylor", shift4_file, "--z", "0,0"]) == 2
    capsys.readouterr()
    code, out = run(capsys, "taylor", shift4_file, "--z", "0,0", "--theta", "0")
    assert code == 0


def test_examples_commands(capsys, tmp_path):
    specs = [
        (["examples", "diag", "--entries", "0,0;3,0"], 2, []),
        (["examples", "zigzag", "--n", "4"], 4, []),
        (["examples", "shift", "--weights", "2,1"], 2, ["weights"]),
        (["examples", "jordan", "--n", "3", "--lam", "0,0"], 3, []),
        (["examples", "random", "--n", "5", "--seed", "9"], 5, ["seed", "rng"]),
    ]
    for argv, n, extras in specs:
        target = tmp_path / f"{argv[1]}.json"
        code, out = run(capsys, *argv, "-o", str(target))
        assert code == 0
        meta = json.loads(out)
        assert list(meta) == ["name", "file", *extras, "n"]
        assert meta["name"] == argv[1]
        assert meta["n"] == n
        assert rg.load_matrix(str(target)).shape == (n, n)


def test_examples_shift_saves_the_operator(capsys, tmp_path):
    target = tmp_path / "s2.json"
    run(capsys, "examples", "shift", "--weights", "2,1", "-o", str(target))
    a = rg.load_matrix(str(target))
    assert rg.resolvent_norm(a, 0j) == pytest.approx(2.0, rel=1e-12)


def test_examples_shift_is_weighted_shift(capsys, tmp_path):
    target = tmp_path / "s4.json"
    assert run(capsys, "examples", "shift", "--weights", "2,1,1,1", "-o", str(target))[0] == 0
    expected = rg.weighted_shift([2, 1, 1, 1])
    assert rg.load_matrix(str(target)).tobytes() == expected.tobytes()


def test_examples_random_metadata(capsys, tmp_path):
    target = tmp_path / "r.json"
    code, out = run(capsys, "examples", "random", "--n", "4", "--seed", "7", "-o", str(target))
    assert code == 0
    meta = json.loads(out)
    assert meta["seed"] == 7
    assert meta["rng"] == rg.RANDOM_DENSE_RNG_ID
    assert np.array_equal(rg.load_matrix(str(target)), rg.random_dense(4, 7))


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    for command in ("analyze", "growth", "path", "grid", "examples", "localmin", "taylor"):
        assert main([command, "--help"]) == 0
    for name in ("diag", "zigzag", "shift", "jordan", "random"):
        assert main(["examples", name, "--help"]) == 0
        assert f"usage: resgrow examples {name}" in capsys.readouterr().out
    capsys.readouterr()


def test_unwritable_output_exits_2(capsys, diag_file, tmp_path):
    target = str(tmp_path / "missing" / "out.json")
    # a result, and the near-singular report written instead of one
    assert main(["analyze", diag_file, "--z", "1,0", "--output", target]) == 2
    assert main(["analyze", diag_file, "--z", "3,0", "--output", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("resgrow: error:") == 2


def test_module_entry_point(diag_file):
    proc = subprocess.run(
        [sys.executable, "-m", "resgrow", "analyze", diag_file, "--z", "1,0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["case"] == "linear"
