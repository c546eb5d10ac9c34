import builtins
import contextlib
import csv
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bagdet
from bagdet import calderon, cli, determinant, greens, quadrature, seeley
from bagdet.cli import (DEFAULT_TOLERANCES, SWEEP_BLOCK, RunConfig,
                        build_config, main)
from bagdet.greens import DiskProblem
from bagdet.profiles import make_profile
from conftest import PROPERTY


EPS = float(np.finfo(float).eps)


def _grid(name, values):
    return f"{name}=" + ",".join(repr(float(v)) for v in values)


def _with_bad(bad, n=300, at=200):
    """A grid of n values in [0.5, 2] with ``bad`` at index ``at``."""
    grid = np.linspace(0.5, 2.0, n)
    grid[at] = bad
    return grid


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


# 300 values: more than one block of a radius or phi0 sweep; the w grid
# takes both signs
SWEEP_GRIDS = {
    "w": np.ravel([(v, -v) for v in np.geomspace(0.25, 4.0, 150)]),
    "radius": np.linspace(0.6, 1.9, 300),
    "phi0": np.geomspace(0.2, 2.0, 300),
}
# (profile, params, radius): the Gaussian of width 1e-3 R needs ~19 panels
SWEEP_PROFILES = [("poly2", [1.3], 1.2),
                  ("gaussian", [0.9, 1e-3], 1.0),
                  ("polynomial", [0.5, 0.0, -1.2, 0.3], 1.1)]


@pytest.mark.parametrize("name", list(SWEEP_GRIDS))
@pytest.mark.parametrize("profile, params, radius", SWEEP_PROFILES)
def test_sweep_rows_match_determinant_calls(tmp_path, name, profile, params,
                                            radius):
    out = tmp_path / "sweep.csv"
    grid = SWEEP_GRIDS[name]
    w = 0.8 + 0.3j
    assert main(["--mode", "sweep", "--sweep", _grid(name, grid),
                 "--profile", profile, "--params",
                 ",".join(map(repr, params)), "--radius", repr(radius),
                 "--w", repr(w), "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [name, *determinant.CSV_FIELDS]
    assert rows[1:] == _scalar_rows(name, grid, profile, params, radius, w)


def _scalar_rows(name, grid, profile, params, radius, w):
    """The sweep's CSV cells, from one scalar ln_det_ratio per value."""
    rows = []
    for v in grid:
        R, w_row, p = radius, w, list(params)
        if name == "w":
            w_row = complex(v)
        elif name == "radius":
            R = v
        else:
            p[0] = v
        ref = determinant.ln_det_ratio(
            DiskProblem(R=R, w=w_row, alpha=1.0,
                        gauge=make_profile(profile, p, R)),
            run_oracles=False).values()
        rows.append([repr(float(x)) for x in [v, *ref]])
    return rows


_PROFILE_PARAMS = {
    "poly2": st.tuples(st.floats(-2.0, 2.0)),
    "gaussian": st.tuples(st.floats(-2.0, 2.0), st.floats(1e-3, 2.0)),
    "polynomial": st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=5),
}
_SWEPT_VALUES = {"w": st.floats(0.05, 20.0) | st.floats(-20.0, -0.05),
                 "radius": st.floats(0.05, 5.0),
                 "phi0": st.floats(-3.0, 3.0)}


@pytest.mark.parametrize("name", sorted(_SWEPT_VALUES))
@pytest.mark.parametrize("profile", sorted(_PROFILE_PARAMS))
@PROPERTY
@given(data=st.data())
def test_sweep_row_is_the_scalar_run_bit_for_bit(profile, name, data):
    grid = data.draw(st.lists(_SWEPT_VALUES[name], min_size=1, max_size=40))
    params = list(data.draw(_PROFILE_PARAMS[profile]))
    radius = data.draw(st.floats(0.3, 3.0))
    w = data.draw(st.complex_numbers(min_magnitude=0.05, max_magnitude=5.0,
                                     allow_nan=False, allow_infinity=False))
    cfg = RunConfig(radius=radius, w_re=w.real, w_im=w.imag, profile=profile,
                    profile_params=params, mode="sweep",
                    sweep_spec=(name, grid))
    with tempfile.TemporaryDirectory() as tmp:
        cfg.output_path = os.path.join(tmp, "sweep.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(cfg) == 0
        with open(cfg.output_path, newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[1:] == _scalar_rows(name, grid, profile, params, radius, w)


@pytest.mark.parametrize("name", ["w", "radius", "phi0"])
def test_sweep_makes_one_int_a_a_call_per_block(monkeypatch, tmp_path, name):
    # guards against a per-row loop: the whole grid is one block, one
    # ln_det_ratio call, whose int A.A is the profile's closed form
    calls = []
    for fn in ("ln_det_ratio", "a_squared_integral"):
        monkeypatch.setattr(determinant, fn, lambda *args, fn=fn,
                            inner=getattr(determinant, fn), **kwargs:
                            calls.append(fn) or inner(*args, **kwargs))

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a sweep runs no int A.A quadrature")

    monkeypatch.setattr(determinant, "a_squared_quadrature", no_quadrature)
    grid = np.linspace(0.5, 2.0, 960)
    for profile, params in (("poly2", "1.3"), ("gaussian", "1.1,0.4"),
                            ("polynomial", "0.3,0.1,-1.2")):
        calls.clear()
        assert main(["--mode", "sweep", "--sweep", _grid(name, grid),
                     "--profile", profile, "--params", params,
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        assert calls == ["ln_det_ratio", "a_squared_integral"]


def test_poly2_sweep_row_past_the_quadrature_overflow_is_exact(tmp_path):
    # at R = 2e-154, phi0 = 2 the quadrature's A_theta^2 = (2 phi0 r/R^2)^2
    # overflows but 2 pi phi0^2 and R^2 do not, so the sweep row is the
    # closed form; --mode determinant still exits 3, because its int A.A
    # oracle overflows
    out = tmp_path / "sweep.csv"
    assert main(["--mode", "sweep", "--sweep", "radius=2e-154,1.0",
                 "--params", "2", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    for row in rows[1:]:
        assert float(row[1]) == -4.0
        assert float(row[6]) == pytest.approx(8.0 * math.pi, rel=4 * EPS)
    assert main(["--mode", "determinant", "--radius", "2e-154",
                 "--params", "2"]) == 3


def _csv_writer_text(rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _assert_same_text(got: str, expected: str) -> None:
    # pytest's diff of two long strings takes minutes; name the first
    # differing character instead
    same = got == expected
    at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
              min(len(got), len(expected)))
    assert same, (at, got[at - 20:at + 20], expected[at - 20:at + 20])


def _assert_csv_rows(columns, n):
    table = np.column_stack([np.broadcast_to(np.asarray(c, dtype=float), (n,))
                             for c in columns])
    _assert_same_text("".join(cli._csv_rows(columns)),
                      _csv_writer_text(table.tolist()))


def test_csv_rows_match_csv_writer():
    values = [0.0, -0.0, 5e-324, -5e-324, 1e15, 1e16, -1e16, 1e-5, 1e22,
              1.7976931348623157e308, -1.7976931348623157e308, 0.1, -2.5]
    v = np.array(values)
    table = np.column_stack([v, -v, v[::-1]])
    assert cli._csv_rows([v, -v, v[::-1]]) == [
        _csv_writer_text(table.tolist())]
    # 0-d columns alone are one row
    assert cli._csv_rows(values) == [_csv_writer_text([values])]
    assert cli._csv_rows(list(v)) == [_csv_writer_text([values])]
    # one string per block of SWEEP_BLOCK rows
    tall = np.tile(v, 30)
    blocks = cli._csv_rows([tall, -tall, tall[::-1]])
    assert [b.count("\r\n") for b in blocks] == [SWEEP_BLOCK] * 3 + [6]
    _assert_same_text("".join(blocks), _csv_writer_text(
        np.column_stack([tall, -tall, tall[::-1]]).tolist()))
    for n in (SWEEP_BLOCK - 1, SWEEP_BLOCK, SWEEP_BLOCK + 1, 3 * SWEEP_BLOCK):
        few = np.resize(v, n)                  # 13 values, repeated
        distinct = np.linspace(-1.0, 1.0, n)
        zeroed = distinct.copy()
        zeroed[-1] = 0.0
        signed = zeroed.copy()                 # differs in one signed zero,
        signed[-1] = -0.0                      # past the first 32 rows
        late = np.concatenate([np.full(32, 2.0), distinct[32:]])
        _assert_csv_rows([
            distinct, 0.5, -0.0, np.nan, few, np.full(n, -0.0),
            np.full(n, 0.0), np.full(n, -0.0), zeroed, signed, zeroed,
            np.full(n, 5e-324), np.full(n, -2.5e-310), few, distinct,
            np.full(n, np.nan), np.full(n, -np.nan), late,
            np.where(np.arange(n) % 3, 0.0, -0.0)], n)


@pytest.mark.parametrize("name, grid, most", [
    # bulk and flux are 0-d, boundary_im holds 0.0 and -0.0 (the sign of
    # ln w^2 changes at |w| = 1) and total_im is 0.0: five texts
    ("w", np.linspace(0.5, 2.0, 960) * (-1.0) ** np.arange(960),
     3 * 960 + 5),
    # bulk is 0-d; flux, and with it the boundary and total parts, rounds
    # at most five ways; total_im repeats boundary_im
    ("radius", np.linspace(0.5, 2.0, 960), 960 + 1 + 4 * 5),
    ("phi0", np.linspace(0.2, 2.0, 960), 6 * 960),
])
def test_sweep_formats_each_repeated_value_once(monkeypatch, tmp_path, name,
                                                grid, most):
    # guards against a return to one repr per cell (7 * 960 here)
    formatted = []
    monkeypatch.setattr(cli, "repr", lambda x: formatted.append(x)
                        or builtins.repr(x), raising=False)
    assert main(["--mode", "sweep", "--sweep", _grid(name, grid),
                 "--w", "0.8+0.3j", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert 960 <= len(formatted) <= most


@pytest.mark.parametrize("n", [1, SWEEP_BLOCK - 1, SWEEP_BLOCK,
                               SWEEP_BLOCK + 1, 960])
@pytest.mark.parametrize("name", ["w", "phi0"])
def test_sweep_csv_bytes(tmp_path, capsys, name, n):
    out = tmp_path / "sweep.csv"
    args = ["--mode", "sweep", "--sweep", _grid(name, np.geomspace(0.3, 3, n))]
    assert main(args + ["--out", str(out)]) == 0
    text = out.read_bytes().decode()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert len(rows) == n + 1 and rows[0] == [name, *determinant.CSV_FIELDS]
    # repr round-trips, so csv.writer on the parsed floats gives the bytes
    # back exactly when the file is in csv.writer's format
    _assert_same_text(text, _csv_writer_text(
        [rows[0]] + [[float(x) for x in row] for row in rows[1:]]))
    capsys.readouterr()
    assert main(args) == 0
    _assert_same_text(capsys.readouterr().out,
                      text + f"swept {name} over {n} values\n")


@pytest.mark.parametrize("w, columns", [("0.8", 11), ("-0.5", 10)])
def test_determinant_csv_bytes(tmp_path, capsys, w, columns):
    # off its sheet (Re w < 0) the boundary oracle does not run, so
    # boundary_oracle_rel has no column
    out = tmp_path / "det.csv"
    args = ["--mode", "determinant", "--format", "csv", "--w", w]
    assert main(args + ["--out", str(out)]) == 0
    result = determinant.ln_det_ratio(build_config(args).problem())
    expected = _csv_writer_text([result.csv_header(), result.csv_row()])
    assert len(result.csv_header()) == columns
    assert out.read_bytes() == expected.encode()
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.startswith(expected + "bulk = ")


@pytest.mark.parametrize("name", ["radius", "phi0"])
def test_sweep_failing_in_a_later_block_writes_nothing(tmp_path, name):
    out = tmp_path / "sweep.csv"
    assert main(["--mode", "sweep", "--sweep", _grid(name, _with_bad(np.nan)),
                 "--out", str(out)]) == 3
    assert not out.exists()


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


def test_verify_report_does_not_depend_on_its_path(tmp_path):
    args = ["--mode", "verify", "--w", "0.8+0.3j", "--profile", "gaussian",
            "--params", "1.2,0.4"]
    outs = [tmp_path / "a" / "verify.json", tmp_path / "b" / "v.json"]
    for out in outs:
        out.parent.mkdir()
        assert main(args + ["--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    config = json.loads(outs[0].read_text())["config"]
    assert "output_path" not in config and "sweep_spec" not in config


def test_verify_runs_each_check_as_one_batched_call(monkeypatch, tmp_path,
                                                    cold_caches):
    # guards against per-sample loops in verify: one Riesz solve over the
    # 12 q_lambda samples, one d_minus1 call over the 20 d_tilde samples,
    # the stencil and G_B of the pde pairs in two disk_green calls, and
    # the fixed samples drawn, and the checks that see only them run,
    # once per process
    solves, d_calls, green_calls, seeds = [], [], [], []
    in_pde = []
    inner = {"solve": np.linalg.solve, "d_minus1": seeley.d_minus1,
             "disk_green": greens.disk_green,
             "pde_residual": greens.pde_residual,
             "default_rng": np.random.default_rng}

    def solve(a, b):
        solves.append(np.shape(a))
        return inner["solve"](a, b)

    def d_minus1(theta, t, xi, tau, lam, w):
        d_calls.append(np.shape(tau))
        return inner["d_minus1"](theta, t, xi, tau, lam, w)

    def disk_green(p, x, y):
        if in_pde:
            green_calls.append(np.broadcast_shapes(np.shape(x.X),
                                                   np.shape(y.X)))
        return inner["disk_green"](p, x, y)

    def pde_residual(*args, **kwargs):
        in_pde.append(True)
        try:
            return inner["pde_residual"](*args, **kwargs)
        finally:
            in_pde.pop()

    def default_rng(*args, **kwargs):
        seeds.append(args[0] if args else None)
        return inner["default_rng"](*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(seeley, "d_minus1", d_minus1)
    monkeypatch.setattr(greens, "disk_green", disk_green)
    monkeypatch.setattr(greens, "pde_residual", pde_residual)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    argv = ["--mode", "verify", "--w", "0.8+0.3j", "--profile", "poly2",
            "--params", "0.5", "--out", str(tmp_path / "verify.json")]
    assert main(argv) == 0
    assert solves == [(256, 12, 2, 2)]
    assert d_calls == [(128, 20)]
    assert sorted(green_calls) == [(5,), (8, 5)]
    assert seeds.count(2024) == 1
    # the q_lambda solve sees only the fixed samples: once per process
    for calls in (solves, d_calls, green_calls, seeds):
        calls.clear()
    assert main(argv) == 0
    assert solves == []
    assert d_calls == [(128, 20)]
    assert sorted(green_calls) == [(5,), (8, 5)]
    assert 2024 not in seeds
    for arrays in cli._verify_samples().values():
        assert not any(a.flags.writeable for a in arrays)


@pytest.fixture
def cold_caches():
    """Empties verify's and ellipticity's per-process caches before and
    after the test, so that a patched run leaves no value behind."""
    caches = (cli._verify_samples, cli._fixed_sample_values,
              cli._chiral_obstruction)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("flags", [
    ["--w", "0.8+0.3j", "--profile", "poly2", "--params", "0.5"],
    ["--w", "-1.3+0.2j", "--profile", "gaussian", "--params", "1.2,0.4",
     "--radius", "1.3", "--alpha", "0.6"],
])
def test_cold_and_warm_runs_write_the_same_bytes(tmp_path, cold_caches,
                                                 flags):
    out = tmp_path / "out.json"
    texts = []
    for _ in range(2):                       # cold, then warm
        for mode in ("verify", "ellipticity"):
            assert main(flags + ["--mode", mode, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
    assert texts[:2] == texts[2:]
    # a cached value is made of tuples and floats, which no caller can
    # change in place
    hash(cli._fixed_sample_values())
    hash(cli._chiral_obstruction())


def test_verify_sees_a_broken_fixed_sample_oracle(monkeypatch, tmp_path,
                                                  cold_caches):
    contour = calderon.q_lambda_contour
    monkeypatch.setattr(calderon, "q_lambda_contour",
                        lambda *args: contour(*args) * (1.0 + 1e-6))
    out = tmp_path / "verify.json"
    assert main(["--mode", "verify", "--out", str(out)]) == 2
    failed = [c["name"] for c in json.loads(out.read_text())["checks"]
              if not c["pass"]]
    assert failed == ["q_lambda_match"]


def test_k_nu_bessel_is_computed_once_per_verify_process(monkeypatch,
                                                          tmp_path,
                                                          cold_caches):
    calls = []
    bessel = seeley.k_nu_bessel

    def counted(nu):
        calls.append(nu)
        return bessel(nu)

    monkeypatch.setattr(seeley, "k_nu_bessel", counted)
    argv = ["--mode", "verify", "--out", str(tmp_path / "verify.json")]
    assert main(argv) == 0
    assert main(argv) == 0
    assert calls == [2, 3, 4]
    cli._fixed_sample_values.cache_clear()
    assert main(argv) == 0
    assert calls == [2, 3, 4] * 2


@pytest.mark.parametrize("w", ["20", "100", "0.02", "20+5j"])
def test_verify_residue_far_from_w_1(tmp_path, w):
    out = tmp_path / "verify.json"
    assert main(["--mode", "verify", "--profile", "poly2", "--params", "1.0",
                 "--alpha", "0.9", "--w", w, "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["residue"]["value"] <= 1e-12


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
    assert payload["disk"]["rank_rel_tol"] == 1e-9
    assert len(payload["disk"]["entries"]) == 32
    assert all(e["rank_q"] == 1 for e in payload["disk"]["entries"])
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
    ["--radius", "1e-160"],               # R^2 is subnormal
    # one bad value among the rows of a sweep
    ["--mode", "sweep", "--sweep", _grid("w", _with_bad(np.nan))],
    ["--mode", "sweep", "--sweep", _grid("w", _with_bad(1e200))],
    ["--mode", "sweep", "--sweep", _grid("radius", _with_bad(np.nan))],
    ["--mode", "sweep", "--sweep", _grid("radius", _with_bad(1e200))],
    ["--mode", "sweep", "--sweep", _grid("radius", _with_bad(1e-160))],
])
def test_non_finite_or_overflowing_input_exit_code(flags, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--mode", "determinant"] + flags) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().out == ""          # no CSV row, no result


@pytest.mark.parametrize("flags", [
    ["--radius", "0"],
    ["--radius", "-1"],
    ["--profile", "gaussian", "--params", "1,0"],
    ["--profile", "gaussian", "--params", "1,-1"],
    ["--radius", "-1e-3"],
    ["--alpha", "-1e-3"],                 # alpha outside [0, 1]
    ["--profile", "gaussian", "--params", "1,1e-9"],     # s < 1e-8 R
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
    # one bad value among the rows of a sweep
    ["--mode", "sweep", "--sweep", _grid("phi0", _with_bad(np.nan))],
    ["--mode", "sweep", "--sweep", _grid("phi0", _with_bad(1e160))],
    ["--profile", "gaussian", "--params", "1,1e-3", "--mode", "sweep",
     "--sweep", _grid("phi0", _with_bad(1e160))],
    ["--profile", "polynomial", "--params", "1,0,-1", "--mode", "sweep",
     "--sweep", _grid("phi0", _with_bad(np.inf))],
    # a Gaussian of width 1e-8 swept past R = 1e8 s, where s < 1e-8 R
    ["--profile", "gaussian", "--params", "1,1e-8", "--mode", "sweep",
     "--sweep", _grid("radius", np.linspace(0.5, 2.0, 300))],
])
def test_non_finite_profile_parameter_exit_code(flags, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--mode", "determinant"] + flags) == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().out == ""          # no CSV row, no result


@pytest.mark.parametrize("w, bound", [("1e-8", 1e-12), ("1e-160", 1e-12)])
def test_boundary_oracle_at_small_w(tmp_path, w, bound):
    # |u| = |1 - w^2|/2|w| is 5e7 and 5e159 here; the real route stays
    # finite and gated, and the closed form rescales w by a power of two
    # before squaring it, so the subnormal w^2 = 1e-320 never enters.
    out = tmp_path / "det.json"
    assert main(["--mode", "determinant", "--w", w, "--out", str(out)]) == 0
    rel = json.loads(out.read_text())["oracle_residuals"]["boundary_oracle_rel"]
    assert rel <= bound


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


def test_determinant_mode_needs_no_hankel_function(monkeypatch, tmp_path):
    # the Bessel-kernel route takes its constant in closed form; only
    # verify's K_nu runs the Hankel Laplace integral
    def hankel1e(*args, **kwargs):
        raise AssertionError("determinant mode evaluated a Hankel function")

    monkeypatch.setattr(quadrature, "_hankel1e", hankel1e)
    out = tmp_path / "det.json"
    assert main(["--mode", "determinant", "--w", "1.3+0.2j", "--profile",
                 "gaussian", "--params", "1.2,0.4", "--out", str(out)]) == 0
    bessel_rel = json.loads(out.read_text())["oracle_residuals"][
        "bulk_bessel_rel"]
    assert bessel_rel <= DEFAULT_TOLERANCES["bulk_bessel_rel"]


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")


# One run of each mode; the output name gets the mode's index.
_MODE_RUNS = (
    "[['--mode', 'sweep', '--sweep', 'w=0.5,2'],\n"
    " ['--mode', 'determinant'], ['--mode', 'determinant', '--format', 'csv'],\n"
    " ['--mode', 'verify'], ['--mode', 'ellipticity']]")


def _run_every_mode(tmp_path, before="", after_each=""):
    # a fresh interpreter runs all four modes in turn; each must exit 0
    script = (
        "import sys\n" + before +
        "from bagdet.cli import main\n"
        f"for i, args in enumerate({_MODE_RUNS}):\n"
        "    out = sys.argv[1] + str(i)\n"
        "    assert main(args + ['--out', out]) == 0, args\n"
        + after_each)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_no_mode_imports_scipy(tmp_path):
    # nor csv: CSV text is formatted by cli itself; nor decimal and
    # fractions, which numpy does not import either
    _run_every_mode(tmp_path, after_each=(
        "    loaded = [m for m in sys.modules\n"
        "              if m.split('.')[0] in ('scipy', 'csv', '_csv',\n"
        "                                     'decimal', '_decimal',\n"
        "                                     'fractions')]\n"
        "    assert not loaded, (args, loaded)\n"))


def test_every_exported_name_resolves():
    # the benchmark's tracer calls getattr on each __all__ entry of the
    # modules it wraps, so a stale entry would crash a traced run
    modules = [bagdet] + [importlib.import_module(f"bagdet.{m.name}")
                          for m in pkgutil.iter_modules(bagdet.__path__)]
    exported = [(m.__name__, attr) for m in modules
                for attr in getattr(m, "__all__", ())]
    assert {"bagdet.clifford", "bagdet.profiles"} <= {n for n, _ in exported}
    stale = [f"{name}.{attr}" for name, attr in exported
             if not hasattr(importlib.import_module(name), attr)]
    assert not stale


def test_every_mode_runs_with_scipy_blocked(tmp_path):
    # a None entry makes every `import scipy...` raise ImportError
    _run_every_mode(tmp_path, before="sys.modules['scipy'] = None\n")


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
