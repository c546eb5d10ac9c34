import csv
import json
import warnings

import numpy as np
import pytest

from bagdet.cli import DEFAULT_TOLERANCES, RunConfig, build_config, main


def test_determinant_json_output(tmp_path):
    out = tmp_path / "det.json"
    code = main(["--mode", "determinant", "--radius", "1", "--w", "1",
                 "--profile", "poly2", "--params", "1",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["bulk"] - (-1.0)) < 1e-9
    assert abs(payload["boundary_re"]) < 1e-12
    assert abs(payload["total_re"] - (-1.0)) < 1e-9
    assert set(payload) == {"bulk", "boundary_re", "boundary_im", "total_re",
                            "total_im", "flux", "oracle_residuals"}


def test_determinant_csv_output(tmp_path):
    out = tmp_path / "det.csv"
    code = main(["--mode", "determinant", "--w", "2", "--out", str(out),
                 "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][:6] == ["bulk", "boundary_re", "boundary_im", "total_re",
                           "total_im", "flux"]
    assert len(rows) == 2


def test_sweep_boundary_column(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["--mode", "sweep", "--sweep", "w=0.5,1,2",
                 "--profile", "poly2", "--params", "1", "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][0] == "w"
    boundary = [float(r[2]) for r in rows[1:]]
    # flux is 4 pi here, so the boundary column is -ln w^2
    expected = [-np.log(w * w) for w in (0.5, 1.0, 2.0)]
    assert np.allclose(boundary, expected, atol=1e-10)
    assert np.allclose(boundary, [1.3862943611, 0.0, -1.3862943611],
                       atol=1e-9)


def test_imaginary_w_spellings_agree(tmp_path):
    # w^2 = -1 for all four; the boundary term takes the principal branch
    payloads = []
    for w in ("1j", "-0+1j", "-1j", "0-1j"):
        out = tmp_path / "det.json"
        code = main(["--mode", "determinant", "--w=" + w, "--profile", "poly2",
                     "--params", "1", "--out", str(out)])
        assert code == 0
        payloads.append(json.loads(out.read_text()))
    assert all(p == payloads[0] for p in payloads)
    assert payloads[0]["boundary_im"] == -np.pi


def test_verify_zero_gauge_passes(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["--mode", "verify", "--w", "1", "--profile", "poly2",
                 "--params", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert abs(payload["determinant"]["total_re"]) < 1e-12


def test_verify_tolerance_failure_exit_code(tmp_path):
    out = tmp_path / "verify.json"
    code = main(["--mode", "verify", "--w", "0.8", "--profile", "poly2",
                 "--params", "0.5", "--tol.pde_residual", "1e-30",
                 "--out", str(out)])
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["passed"] is False


def test_ellipticity_mode(tmp_path):
    out = tmp_path / "ell.json"
    code = main(["--mode", "ellipticity", "--w", "1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert all(e["bq_norm"] < 1e-12 for e in payload["chiral_obstruction"])


def test_domain_error_exit_code():
    assert main(["--mode", "determinant", "--w", "0"]) == 3


@pytest.mark.parametrize("flags", [
    ["--radius", "nan"],
    ["--radius", "inf"],
    ["--w", "nan"],
    ["--w", "1e-300"],                    # w^2 underflows to 0
    ["--w", "1e200"],                     # w^2 overflows
    ["--alpha", "nan"],
    ["--mode", "sweep", "--sweep", "w=1,nan"],
    ["--radius", "1e-200"],               # R^2 underflows to 0
    ["--radius", "1e200"],                # R^2 overflows
    ["--mode", "sweep", "--sweep", "radius=1,1e200"],
    ["--radius", "1e-160"],               # A_theta^2 overflows in int A.A
])
def test_non_finite_or_overflowing_input_exit_code(flags):
    assert main(["--mode", "determinant"] + flags) == 3


@pytest.mark.parametrize("flags", [
    ["--radius", "0"],
    ["--radius", "-1"],
    ["--profile", "gaussian", "--params", "1,0"],
    ["--profile", "gaussian", "--params", "1,-1"],
    ["--radius", "-1e-3"],
    ["--alpha", "-1e-3"],                 # alpha outside [0, 1]
])
def test_non_positive_radius_or_width_exit_code(flags):
    assert main(["--mode", "determinant"] + flags) == 3


# argparse alone reads these values, which start with '-' and are not
# plain decimals, as flags
@pytest.mark.parametrize("flags", [
    ["--w", "-1e-3"],
    ["--w", "-1+0.5j"],
    ["--params", "-1e-3"],
    ["--profile", "polynomial", "--params", "-1,2"],
])
def test_negative_value_after_a_space_exit_code(flags):
    assert main(["--mode", "determinant"] + flags) == 0


@pytest.mark.parametrize("flags", [
    ["--params", "nan"],
    ["--params", "inf"],
    ["--profile", "gaussian", "--params", "1,inf"],
    ["--profile", "polynomial", "--params", "1,-inf,2"],
    ["--mode", "sweep", "--sweep", "phi0=1,nan"],
    ["--profile", "gaussian", "--params", "1,1e-200"],   # s^2 underflows
    ["--profile", "gaussian", "--params", "1,1e200"],    # s^2 overflows
    # A_theta^2 overflows in int A.A
    ["--params", "1e160"],
    ["--profile", "gaussian", "--params", "1e160,0.5"],
    ["--profile", "polynomial", "--params", "0,1e160"],
    ["--mode", "sweep", "--sweep", "phi0=1,1e160"],
])
def test_non_finite_profile_parameter_exit_code(flags):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--mode", "determinant"] + flags) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_determinant_mode_gates_every_oracle(tmp_path):
    out = tmp_path / "det.json"
    args = ["--mode", "determinant", "--w", "0.8", "--out", str(out)]
    assert main(args) == 0
    assert main(args + ["--tol.bulk_bessel_rel", "1e-30"]) == 2
    # off its sheet the boundary oracle does not run, so it is not gated
    off_sheet = ["--mode", "determinant", "--w", "-0.5", "--out", str(out),
                 "--tol.boundary_oracle_rel", "1e-30"]
    assert main(off_sheet) == 0
    payload = json.loads(out.read_text())
    assert "boundary_oracle_rel" not in payload["oracle_residuals"]


def test_usage_error_exit_code():
    assert main(["--mode", "nonsense"]) == 1
    assert main(["--profile", "nope"]) == 1
    assert main(["--tol.unknown", "1e-3"]) == 1
    assert main(["--rad", "2"]) == 1               # flags are not abbreviated
    assert main(["--w"]) == 1                      # missing value
    assert main(["--mode", "sweep"]) == 1          # missing sweep spec


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# determinant run\n"
        "radius = 1.0\n"
        "w = 2.0\n"
        "profile = poly2\n"
        "params = 1\n"
        "mode = determinant\n"
        "tol.pde_residual = 1e-5\n")
    cfg = build_config(["--config", str(cfg_file)])
    assert cfg.w == 2.0
    assert cfg.tolerances["pde_residual"] == 1e-5
    # flags win over the file
    cfg2 = build_config(["--config", str(cfg_file), "--w", "0.5"])
    assert cfg2.w == 0.5


# One value per option, in flag and config-file spelling.
OPTION_VALUES = {
    "radius": "1.5", "w": "0.5+0.25j", "profile": "gaussian",
    "params": "1.2,0.4", "alpha": "0.75", "mode": "sweep",
    "sweep": "phi0=0.5,1", "out": "result.csv", "format": "csv",
    **{f"tol.{name}": "1e-3" for name in DEFAULT_TOLERANCES},
}


def test_config_file_keys_are_the_flag_names(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    defaults = build_config([])
    for key, value in OPTION_VALUES.items():
        cfg_file.write_text(f"{key} = {value}\n")
        from_flag = build_config([f"--{key}", value])
        assert from_flag != defaults, key
        assert build_config(["--config", str(cfg_file)]) == from_flag, key
    # a misspelt key is a usage error, not an ignored line
    cfg_file.write_text("radus = 2\n")
    assert main(["--config", str(cfg_file)]) == 1


def test_complex_w_parsing():
    cfg = build_config(["--w", "1+0.5j"])
    assert cfg.w == 1 + 0.5j
    assert cfg.w_re == 1.0 and cfg.w_im == 0.5


def test_runconfig_defaults_and_tol():
    cfg = RunConfig()
    assert cfg.tol("pde_residual") == DEFAULT_TOLERANCES["pde_residual"]
    cfg.tolerances["pde_residual"] = 1e-3
    assert cfg.tol("pde_residual") == 1e-3
    problem = cfg.problem()
    assert problem.R == 1.0 and problem.w == 1.0
