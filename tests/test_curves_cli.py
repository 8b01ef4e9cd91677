import argparse
import io
import json
import math
import random
import re
import sys

import numpy as np
import pytest

from logndiv import channel, montecarlo
from logndiv.cli import build_parser, main
from logndiv.curves import Curve, CurvePoint, curves_to_text, read_curves
from logndiv.errors import DomainError
from logndiv.presets import _y_grid, figure_curves

EPS = sys.float_info.epsilon


def _curve(**kw):
    base = dict(label="c1", scheme="sc", source="asymptotic", L=2, rho=0.5,
                sigma_G=0.8, gamma_th=0.1,
                points=(CurvePoint(x=0.0, outage=0.5),
                        CurvePoint(x=10.0, outage=1e-3, stderr=1e-5, n=100, hits=7),
                        CurvePoint(x=20.0, outage=None, note="below_asymptotic_regime;min_er_db=3.2")))
    base.update(kw)
    return Curve(**base)


class TestCurveContainer:
    def test_x_strictly_increasing_enforced(self):
        with pytest.raises(DomainError):
            _curve(points=(CurvePoint(x=1.0, outage=0.5), CurvePoint(x=1.0, outage=0.4)))

    def test_outage_range_enforced(self):
        with pytest.raises(DomainError):
            _curve(points=(CurvePoint(x=1.0, outage=1.5),))

    def test_unknown_source_rejected(self):
        with pytest.raises(DomainError):
            _curve(source="guess")


class TestCsvRoundTrip:
    def test_round_trip(self):
        c = _curve()
        text = curves_to_text([c], meta={"seed": "7", "command": "test"})
        meta, curves = read_curves(io.StringIO(text))
        assert meta == {"seed": "7", "command": "test"}
        assert len(curves) == 1
        got = curves[0]
        assert (got.label, got.scheme, got.source, got.L) == ("c1", "sc", "asymptotic", 2)
        assert got.rho == pytest.approx(0.5, rel=1e-12)
        for p, q in zip(got.points, c.points):
            assert p.x == pytest.approx(q.x)
            if q.outage is None:
                assert p.outage is None
            else:
                assert p.outage == pytest.approx(q.outage, rel=1e-11)
            assert p.note == q.note

    def test_ten_significant_digits(self):
        text = curves_to_text([_curve()])
        assert "1.000000000000e-03" in text

    def test_header_required(self):
        with pytest.raises(DomainError):
            read_curves(io.StringIO("a,b,c\n1,2,3\n"))


class TestCli:
    def test_asymptotic_roundtrips(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = main(["asymptotic", "--L", "2", "--rho", "0.5", "--sigma-g", "0.8",
                   "--gamma-th", "0.1", "--scheme", "sc", "--er-db", "0:40:5",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as f:
            meta, curves = read_curves(f)
        assert meta["scheme"] == "sc"
        assert len(curves) == 1 and len(curves[0].points) == 9

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["asymptotic", "--L", "2", "--rho", "0.1", "--sigma-g", "0.8",
                "--gamma-th", "0.1", "--scheme", "egc", "--er-db", "0:30:5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_grid_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["asymptotic", "--L", "2", "--rho", "0.1", "--sigma-g", "0.8",
                  "--gamma-th", "0.1", "--scheme", "sc", "--er-db", "10:0:5"])
        assert exc.value.code == 2

    def test_negative_grid_start_is_written_with_equals(self, tmp_path):
        # After a space argparse reads "-20:40:30" as an option (exit 2), so a
        # grid that starts below 0 dB is written --er-db=-20:40:30.
        out = tmp_path / "c.csv"
        rc = main(["asymptotic", "--L", "2", "--rho", "0.5", "--sigma-g", "0.8",
                   "--gamma-th", "0.1", "--scheme", "sc", "--er-db=-20:40:30",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as f:
            _, curves = read_curves(f)
        assert curves[0].points[0].x == -20.0

    def test_missing_channel_flags_is_domain_error(self, capsys):
        rc = main(["asymptotic", "--rho", "0.1", "--sigma-g", "0.8",
                   "--gamma-th", "0.1", "--scheme", "sc", "--er-db", "0:10:5"])
        assert rc == 3
        assert "missing channel parameter" in capsys.readouterr().err

    def test_simulate_echoes_seed(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--L", "2", "--rho", "0.0", "--sigma-g", "0.8",
                   "--gamma-th", "0.1", "--scheme", "sc", "--er-db", "0:10:5",
                   "--samples", "20000", "--seed", "99", "--out", str(out)])
        assert rc == 0
        head = out.read_text().splitlines()[:10]
        assert any("seed=99" in line for line in head if line.startswith("#"))

    def test_simulate_resolution_marker(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--L", "2", "--rho", "0.0", "--sigma-g", "0.8",
                   "--gamma-th", "0.1", "--scheme", "mrc", "--er-db", "80:80:1",
                   "--samples", "2000", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert "resolution_exhausted" in out.read_text()

    def test_sumcdf_quadrature_needs_two_branches(self, capsys):
        rc = main(["sumcdf", "--L", "3", "--rho", "0.0", "--mu-g", "0", "--sigma-g",
                   "0.55", "--y", "0.1:1:0.1", "--method", "quadrature"])
        assert rc == 3

    def test_sumcdf_runs(self, tmp_path):
        out = tmp_path / "y.csv"
        rc = main(["sumcdf", "--L", "2", "--rho", "0.0", "--mu-g", "0", "--sigma-g",
                   "0.547722557505", "--y", "0.2:1.0:0.2", "--method", "asym",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as f:
            _, curves = read_curves(f)
        assert curves[0].x_kind == "y"

    def test_verify_suite_selection(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["verify", "--suite", "lemma", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert all(c["suite"] == "lemma" for c in report["checks"])
        printed = capsys.readouterr().out
        assert printed.count("PASS") >= len(report["checks"])

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        from logndiv import cli as cli_mod
        from logndiv.verify_suites import CheckResult

        def fake(names):
            return [CheckResult(suite="lemma", name="forced", passed=False, detail="x")]

        monkeypatch.setattr(cli_mod, "run_suites", fake)
        assert main(["verify", "--suite", "lemma"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_figure_presets_emit(self, tmp_path):
        out = tmp_path / "fig4.csv"
        rc = main(["figure", "fig4", "--out", str(out)])
        assert rc == 0
        with open(out) as f:
            meta, curves = read_curves(f)
        assert meta["preset"] == "fig4"
        # 3 schemes x 3 correlations + single-branch baseline.
        assert len(curves) == 10
        assert sum(1 for c in curves if c.source == "exact" and c.L == 1) == 1

    def test_figure_with_simulated_curves(self, tmp_path):
        out = tmp_path / "fig4s.csv"
        rc = main(["figure", "fig4", "--samples", "2000", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        with open(out) as f:
            meta, curves = read_curves(f)
        assert meta["samples"] == "2000" and meta["seed"] == "5"
        assert sum(1 for c in curves if c.source == "simulation") == 9
        assert sum(1 for c in curves if c.source == "asymptotic") == 9

    def test_figure_obj_format(self, tmp_path):
        out = tmp_path / "fig7.json"
        rc = main(["figure", "fig7", "--out", str(out), "--format", "obj"])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["curves"]) == 6

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOGNDIV_SEED", "777")
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--L", "1", "--rho", "0.0", "--sigma-g", "0.8",
                   "--gamma-th", "0.1", "--scheme", "sc", "--er-db", "0:0:1",
                   "--samples", "2000", "--out", str(out)])
        assert rc == 0
        assert any("seed=777" in line for line in out.read_text().splitlines()
                   if line.startswith("#"))

    def test_config_file_channel(self, tmp_path):
        cfg = tmp_path / "chan.json"
        cfg.write_text(json.dumps({"L": 2, "rho": 0.5, "sigma_G": 0.8, "Er_dB": 10.0}))
        out = tmp_path / "c.csv"
        rc = main(["asymptotic", "--config", str(cfg), "--gamma-th", "0.1",
                   "--scheme", "sc", "--er-db", "0:20:5", "--out", str(out)])
        assert rc == 0
        with open(out) as f:
            _, curves = read_curves(f)
        assert curves[0].rho == pytest.approx(0.5)


_SUMCDF = ["sumcdf", "--L", "2", "--rho", "0", "--mu-g", "0", "--sigma-g", "0.5",
           "--y", "0.1:1:0.1", "--method", "asym"]


def _flag(argv, flag, value):
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


@pytest.mark.parametrize("argv", [
    _flag(_SUMCDF, "--sigma-g", "0"),
    _flag(_SUMCDF, "--sigma-g", "-1"),
    _flag(_SUMCDF, "--L", "0"),
    _flag(_flag(_SUMCDF, "--mu-g", "nan"), "--method", "quadrature"),
    _flag(_SUMCDF, "--rho", "1"),
    _flag(_SUMCDF, "--y", "0:1:0.1") + ["--y-spacing", "log"],
    ["asymptotic", "--L", "2", "--rho", "0.5", "--sigma-g", "0.8", "--gamma-th", "0.1",
     "--scheme", "sc", "--er-db", "0:4000:1000"],
    ["asymptotic", "--config", "{cfg}", "--gamma-th", "0.1", "--scheme", "sc",
     "--er-db", "0:10:5"],
    ["asymptotic", "--L", "2", "--rho", "0.5", "--sigma-g", "0.8", "--gamma-th", "0.1",
     "--scheme", "sc", "--er-db", "0:10:1e-300"],
    ["asymptotic", "--L", "2", "--rho", "0.5", "--sigma-g", "1e200", "--gamma-th", "0.1",
     "--scheme", "sc", "--er-db", "0:10:5"],
    ["simulate", "--L", "2", "--rho", "0.5", "--sigma-g", "1e200", "--gamma-th", "0.1",
     "--scheme", "sc", "--er-db", "0:10:5", "--samples", "1000"],
    _flag(_flag(_SUMCDF, "--sigma-g", "1e200"), "--method", "fw"),
    _flag(_flag(_SUMCDF, "--mu-g", "1e300"), "--method", "fw"),
    _flag(_flag(_SUMCDF, "--y", "0:0.2:0.1"), "--method", "fw"),
    _flag(_flag(_SUMCDF, "--rho", "1"), "--method", "fw"),
    ["figure", "fig7", "--samples", "1000"],
    ["figure", "fig4", "--samples", "0"],
    ["sumcdf", "--L", "2", "--rho", "0.5", "--mu-g", "5", "--sigma-g", "1e-10",
     "--y", "296.8263182:296.8263182:1", "--method", "quadrature"],
    ["sumcdf", "--L", "2", "--rho", "0.5", "--mu-g", "0", "--sigma-g", "0.65",
     "--y=0:1:0.5", "--method", "quadrature"],
    ["sumcdf", "--L", "2", "--rho", "0.5", "--mu-g", "1", "--sigma-g", "1e-100",
     "--y", "5.436563656918089:5.436563656918089:1", "--method", "quadrature"],
], ids=["sigma0", "sigma-negative", "L0", "quadrature-mu-nan", "rho1", "log-y-from-0",
        "er-db-overflow", "config-er-db-overflow", "er-db-too-many-points",
        "asymptotic-sigma-squared-overflow", "simulate-sigma-squared-overflow",
        "fw-sigma-squared-overflow", "fw-mean-overflow", "fw-y-zero", "fw-rho1", "sumcdf-preset-samples",
        "outage-preset-zero-samples", "quadrature-peak-missed", "quadrature-y-zero",
        "quadrature-narrow-far-out"])
def test_bad_input_is_domain_error(argv, tmp_path, capsys):
    cfg = tmp_path / "chan.json"
    cfg.write_text(json.dumps({"L": 2, "rho": 0.5, "sigma_G": 0.8, "Er_dB": 1e308}))
    assert main([a.replace("{cfg}", str(cfg)) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert "np.float64" not in err


_SIMULATE = ["simulate", "--L", "2", "--rho", "0.5", "--sigma-g", "0.8", "--gamma-th", "0.1",
             "--scheme", "sc", "--er-db", "0:10:5", "--samples", "1000"]


@pytest.mark.parametrize("argv", [_SIMULATE, ["figure", "fig4", "--samples", "1000"]],
                         ids=["simulate", "figure-samples"])
def test_bad_env_seed_is_domain_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LOGNDIV_SEED", "abc")
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "LOGNDIV_SEED" in err and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("argv", [
    ["asymptotic", "--L", "2", "--rho", "0.5", "--sigma-g", "0.8", "--gamma-th", "0.1",
     "--scheme", "sc", "--er-db", "0:10:5"],
    ["figure", "fig4"],
    _SIMULATE + ["--seed", "7"],
], ids=["asymptotic", "figure-closed-form", "simulate-seed-flag"])
def test_bad_env_seed_is_ignored_where_no_seed_is_read(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("LOGNDIV_SEED", "abc")
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 0


def test_oversized_simulation_batch_is_domain_error(monkeypatch, capsys):
    # One row of 2^27 + 1 branches passes the 1 GiB batch; it must be refused before drawing.
    def no_draw(*_):
        raise AssertionError("drew before checking the batch size")
    monkeypatch.setattr(channel, "batch_rng", no_draw)
    argv = ["simulate", "--L", str(2 ** 27 + 1), "--rho", "0.5", "--sigma-g", "0.8",
            "--gamma-th", "0.1", "--scheme", "sc", "--er-db", "0:0:1", "--samples", "1000"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "branches" in err


def _points(path):
    with open(path) as f:
        _, curves = read_curves(f)
    return curves, [(p.x, p.outage, p.note) for c in curves for p in c.points]


@pytest.mark.parametrize("L, sigma", [("2.7", "0.8"), ("true", "0.8"), ("2", '"0.8"'),
                                      ("1e300", "0.8"), ("1" + "0" * 300, "0.8"),
                                      ("1" + "0" * 5000, "0.8")],
                         ids=["L-fraction", "L-bool", "sigma-string", "L-1e300", "L-301-digits",
                              "L-5001-digits"])
def test_bad_config_value_is_domain_error(L, sigma, tmp_path, capsys):
    cfg = tmp_path / "chan.json"
    cfg.write_text(f'{{"L": {L}, "rho": 0.5, "sigma_G": {sigma}, "Er_dB": 10.0}}')
    argv = ["asymptotic", "--config", str(cfg), "--gamma-th", "0.1", "--scheme", "sc",
            "--er-db", "0:10:5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not re.search(r"\d{20}", err)


@pytest.mark.parametrize("sigma", ["1e-4", "1e-15"])
def test_quadrature_underflow_on_narrow_channel(sigma, tmp_path):
    # Far left of a narrow channel's mass the CDF underflows; every point is that 0.
    out = tmp_path / "q.csv"
    argv = _flag(_flag(_flag(_SUMCDF, "--rho", "0.5"), "--sigma-g", sigma), "--method",
                 "quadrature")
    assert main(_flag(argv, "--y", "0.1:1:0.3") + ["--out", str(out)]) == 0
    assert [v for _, v, _ in _points(out)[1]] == [0.0] * 4


def test_single_branch_sumcdf_ignores_rho(tmp_path):
    # One branch has no correlation: rho = 0.5 is the same channel as rho = 0.
    outs = []
    for rho in ("0", "0.5"):
        out = tmp_path / f"rho{rho}.csv"
        argv = _flag(_flag(_SUMCDF, "--L", "1"), "--rho", rho) + ["--out", str(out)]
        assert main(argv) == 0
        outs.append(_points(out)[1])
    assert outs[0] == outs[1] and all(v is not None for _, v, _ in outs[0])


def test_single_branch_asymptotic_is_exact(tmp_path):
    out = tmp_path / "l1.csv"
    assert main(_flag(_ASYMPTOTIC, "--L", "1") + ["--out", str(out)]) == 0
    curves, _ = _points(out)
    assert [c.source for c in curves] == ["exact"]


@pytest.mark.parametrize("scheme", ["sc", "egc", "mrc"])
def test_regime_edge_beyond_float_range_is_annotated(scheme, tmp_path):
    # At sigma_G = 30 the smallest valid Er is about 7800 dB, past the float range in watts.
    out = tmp_path / "big.csv"
    assert main(["asymptotic", "--L", "2", "--rho", "0.5", "--sigma-g", "30", "--gamma-th", "0.1",
                 "--scheme", scheme, "--er-db", "0:10:5", "--out", str(out)]) == 0
    with open(out) as f:
        _, curves = read_curves(f)
    notes = [p.note.split("=") for p in curves[0].points]
    assert len(notes) == 3
    assert all(k == "below_asymptotic_regime;min_er_db" and 7700 < float(v) < 7900
               for k, v in notes)


_ASYMPTOTIC = ["asymptotic", "--L", "2", "--rho", "0.5", "--sigma-g", "0.8", "--gamma-th", "0.1",
               "--scheme", "sc", "--er-db", "0:10:5"]


@pytest.mark.parametrize("scheme", ["sc", "egc", "mrc"])
def test_power_ratio_below_the_float_range_is_annotated(scheme, tmp_path):
    # Er/gamma_th reaches 1e-610, which a float quotient would round to 0.
    out = tmp_path / "low.csv"
    assert main(["asymptotic", "--L", "3", "--rho", "0.5", "--sigma-g", "1", "--gamma-th", "1e300",
                 "--scheme", scheme, "--er-db=-3100:0:1000", "--out", str(out)]) == 0
    curves, points = _points(out)
    assert [x for x, _, _ in points] == [-3100.0, -2100.0, -1100.0, -100.0]
    assert all(v is None and note.startswith("below_asymptotic_regime;min_er_db=")
               for _, v, note in points)


@pytest.mark.parametrize("scheme", ["sc", "egc", "mrc"])
def test_power_ratio_above_the_float_range_is_evaluated(scheme, tmp_path):
    # Er/gamma_th reaches 1e600, which a float quotient would round to inf.
    out = tmp_path / "high.csv"
    assert main(["asymptotic", "--L", "3", "--rho", "0.5", "--sigma-g", "1", "--gamma-th", "1e-300",
                 "--scheme", scheme, "--er-db", "0:3100:1000", "--out", str(out)]) == 0
    _, points = _points(out)
    assert [(x, v, note) for x, v, note in points] == [
        (x, 0.0, "") for x in (0.0, 1000.0, 2000.0, 3000.0)]
    from logndiv import asymptotics
    from logndiv.channel import ChannelSpec, derive_params
    params = derive_params(ChannelSpec(L=3, rho=0.5, sigma_G=1.0, Er=1.0))
    log10 = getattr(asymptotics, f"{scheme}_outage_asym_log10")
    lgs = [log10(params, asymptotics.OutageQuery(1e-300, 10.0 ** (db / 10.0)))
           for db in (0, 1000, 2000, 3000)]
    assert all(a > b > -math.inf for a, b in zip(lgs, lgs[1:]))
    if scheme == "egc":
        assert lgs[-1] == pytest.approx(-155227.3, abs=0.05)


@pytest.mark.parametrize("argv", [
    _flag(_ASYMPTOTIC, "--er-db", "nan:10:5"),
    _flag(_ASYMPTOTIC, "--er-db", "0:inf:5"),
    _flag(_SUMCDF, "--y", "nan:1:0.1"),
    _flag(_SUMCDF, "--y", "0.1:1:inf"),
], ids=["er-db-nan-start", "er-db-inf-stop", "y-nan-start", "y-inf-step"])
def test_non_finite_grid_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "grid fields must be finite" in err and "Traceback" not in err


def test_sumcdf_single_point_grid(tmp_path):
    # start = stop is one point, as it is for --er-db.
    out = tmp_path / "y.csv"
    assert main(_flag(_SUMCDF, "--y", "0.5:0.5:0.1") + ["--out", str(out)]) == 0
    with open(out) as f:
        _, curves = read_curves(f)
    assert [p.x for p in curves[0].points] == [0.5]


def _random_grids(seed: int, n_grids: int) -> list[tuple[float, float, int]]:
    """(start, stop, points) with start <= stop in [1e-3, 1e3], some of one
    point and some whose ends coincide; then fig7's grid, the grid of the
    startup checks, one whose step rounds to 0 and one single point."""
    rng = random.Random(seed)
    grids = []
    for _ in range(n_grids):
        start, stop = sorted(10.0 ** rng.uniform(-3.0, 3.0) for _ in range(2))
        if rng.random() < 0.1:
            stop = start
        grids.append((start, stop, rng.choice([1, 2, 3, 30, rng.randint(1, 500)])))
    return grids + [(0.1, 5.0, 30), (0.05, 3.0, 60), (5e-324, 1e-323, 4), (2.0, 2.0, 1)]


def test_linear_y_grid_is_numpy_linspace():
    for start, stop, n in _random_grids(1, 400):
        for a, b in ((start, stop), (-stop, start), (-stop, -start)):
            cfg = {"start": a, "stop": b, "points": n, "spacing": "linear"}
            assert _y_grid(cfg) == np.linspace(a, b, n).tolist()


def test_log_y_grid_is_numpy_geomspace():
    # Both take 10^v over the linear grid of the log10 ends. Where the two
    # log10 of an end agree, the points differ only by the rounding of the
    # power. Elsewhere one ulp of an end moves v by about eps |v|, which the
    # power turns into about ln(10) eps |v| relative.
    for start, stop, n in _random_grids(2, 400):
        got = _y_grid({"start": start, "stop": stop, "points": n, "spacing": "log"})
        ref = np.geomspace(start, stop, n)
        assert got[0] == start and (n == 1 or got[-1] == stop)
        ends = [math.log10(v) for v in (start, stop)]
        if ends == np.log10([start, stop]).tolist():
            tol = 2.0 * np.spacing(ref)
        else:
            tol = 2.0 * np.spacing(ref) + 4.0 * math.log(10.0) * EPS * max(map(abs, ends)) * ref
        assert np.all(np.abs(np.array(got) - ref) <= tol)


def test_overlong_ncx2_series_is_domain_error(capsys):
    # At rho = 0.9999 the EGC series would rise for about 3e8 terms.
    argv = ["asymptotic", "--L", "2", "--rho", "0.9999", "--sigma-g", "0.8", "--gamma-th",
            "0.1", "--scheme", "egc", "--er-db", "100:100:5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_single_branch_simulation_echoes_rho(tmp_path):
    # The rho column echoes the requested rho at L = 1, as the header does,
    # for the simulated curve as for the closed form.
    columns = []
    for argv in (_flag(_flag(_ASYMPTOTIC, "--L", "1"), "--rho", "0.5"),
                 _flag(_flag(_SIMULATE, "--L", "1"), "--rho", "0.5")):
        out = tmp_path / f"{argv[0]}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert "# rho=0.5" in rows
        header = next(r for r in rows if r.startswith("label,")).split(",")
        columns.append({r.split(",")[header.index("rho")]
                        for r in rows if not r.startswith(("#", "label,"))})
    assert columns[0] == columns[1] == {"5.000000000000e-01"}


def test_figure_draws_each_channel_once(monkeypatch):
    # fig4: 3 channels, each stream shared by all 9 points and SC, EGC and MRC.
    calls = []
    real = montecarlo.iter_latent_batches

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(montecarlo, "iter_latent_batches", counted)
    _, curves = figure_curves("fig4", samples=2000)
    assert sum(c.source == "simulation" for c in curves) == 9
    assert len(calls) == 3


def test_simulate_matches_figure_stream(tmp_path):
    # One channel and one scheme on the CLI draw the streams of the figure's
    # sweep of that channel, so their counts agree point by point.
    sim, fig = tmp_path / "sim.csv", tmp_path / "fig.csv"
    assert main(["simulate", "--L", "2", "--rho", "0.5", "--sigma-g", "0.8", "--gamma-th", "0.1",
                 "--scheme", "egc", "--er-db", "0:40:5", "--samples", "2000", "--seed", "5",
                 "--out", str(sim)]) == 0
    assert main(["figure", "fig4", "--samples", "2000", "--seed", "5", "--out", str(fig)]) == 0
    [one], _ = _points(sim)
    [match] = [c for c in _points(fig)[0] if c.label == "egc-L2-rho0.5-sg0.8-sim"]
    assert [(p.x, p.n, p.hits) for p in one.points] == [(p.x, p.n, p.hits) for p in match.points]


def test_each_subcommand_takes_exactly_its_flags():
    # A new option lands only with an edit here.
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    channel_flags = ["--L", "--rho", "--sigma-g", "--config", "--gamma-th", "--scheme", "--er-db"]
    output_flags = ["--out", "--format"]
    expected = {
        "asymptotic": channel_flags + output_flags,
        "simulate": channel_flags + ["--samples", "--seed"] + output_flags,
        "sumcdf": ["--L", "--rho", "--mu-g", "--sigma-g", "--y", "--y-spacing", "--method"]
                  + output_flags,
        "verify": ["--suite", "--out"],
        "figure": ["preset", "--samples", "--seed"] + output_flags,
    }
    got = {name: [s for a in sp._actions if not isinstance(a, argparse._HelpAction)
                  for s in (a.option_strings or [a.dest])]
           for name, sp in sub.choices.items()}
    assert got == expected
    assert len(got["simulate"]) == 11 and len(got["figure"]) == 5


def test_simulate_header_echoes_only_inputs(tmp_path):
    out = tmp_path / "s.csv"
    assert main(_SIMULATE + ["--out", str(out)]) == 0
    meta, _ = read_curves(io.StringIO(out.read_text()))
    assert sorted(meta) == sorted(["command", "gamma_th", "L", "rho", "samples", "scheme",
                                   "seed", "sigma_G"])


_DEEP_EGC = ["asymptotic", "--L", "8", "--rho", "0.99", "--sigma-g", "1", "--gamma-th", "0.1",
             "--scheme", "egc", "--er-db", "0:10:5"]


@pytest.mark.parametrize("argv, target", [
    (_DEEP_EGC, "missing/x.csv"),
    (_DEEP_EGC, "a-directory"),
    (["verify", "--suite", "limits"], "a-directory"),
], ids=["missing-parent", "directory", "verify-directory"])
def test_unwritable_out_is_one_line_usage_error(argv, target, tmp_path, capsys):
    (tmp_path / "a-directory").mkdir()
    out = tmp_path / target
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob(".logndiv-*")] == []
    assert [p.name for p in tmp_path.iterdir()] == ["a-directory"]
