"""Hypothesis fuzz of the command line, run in process: whatever the field
values (nan, infinities, zero, negatives, values at the ends of the float
range, ordinary ones), a command ends in an exit code of the map (0 success,
2 usage, 3 domain), never in an exception."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from logndiv.cli import main

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)

SPECIAL = ("nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "1e-300", "1e200", "30")
scheme = st.sampled_from(("sc", "egc", "mrc"))


def _fields(ordinary):
    """Every field an ordinary value, then up to two of them replaced by special ones."""
    base = st.fixed_dictionaries({k: st.sampled_from(v) for k, v in ordinary.items()})
    bad = st.dictionaries(st.sampled_from(sorted(ordinary)), st.sampled_from(SPECIAL),
                          max_size=2)
    return st.builds(lambda b, x: {**b, **x}, base, bad)


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _argv(cmd, fields):
    # --flag=value, so that a negative value is not read as a flag. Grids have one point.
    return [cmd] + [f"{k}={v}:{v}:1" if k in ("--er-db", "--y") else f"{k}={v}"
                    for k, v in fields.items()]


ASYMPTOTIC = {"--L": ("1", "2", "3", "8"), "--rho": ("0", "0.2", "0.5", "0.9"),
              "--sigma-g": ("0.5", "0.8", "2"), "--gamma-th": ("0.1", "1"),
              "--er-db": ("0", "20", "40", "100")}


@FUZZ
@given(_fields(ASYMPTOTIC), scheme)
@example({"--L": "2", "--rho": "0.5", "--sigma-g": "30", "--gamma-th": "0.1", "--er-db": "5"},
         "sc")
def test_asymptotic_one_point(fields, s):
    _exit_code(_argv("asymptotic", {**fields, "--scheme": s}))


SUMCDF = {"--L": ("1", "2", "3"), "--rho": ("0", "0.3", "0.8"), "--mu-g": ("-1", "0", "1"),
          "--sigma-g": ("0.5", "0.8", "1.2"), "--y": ("0.01", "0.1", "1", "3")}


@FUZZ
@given(_fields(SUMCDF), st.sampled_from(("asym", "fw")), st.sampled_from(("linear", "log")))
def test_sumcdf(fields, method, spacing):
    _exit_code(_argv("sumcdf", {**fields, "--method": method, "--y-spacing": spacing}))


CONFIG = {"L": ("1", "2", "3"), "rho": ("0", "0.5"), "sigma_G": ("0.5", "0.8"),
          "anchor": ("0", "1", "10")}


@FUZZ
@given(_fields(CONFIG), st.sampled_from(("mu_G", "Er_watts", "Er_dB")), scheme,
       st.sampled_from(("asymptotic", "simulate")))
def test_config(fields, anchor, s, cmd):
    # JSON as Python writes it: nan and the infinities appear as NaN/Infinity.
    cfg = {k: float(v) for k, v in fields.items() if k != "anchor"}
    cfg[anchor] = float(fields["anchor"])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "chan.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        argv = [cmd, "--config", path, "--gamma-th=0.1", f"--scheme={s}", "--er-db=10:20:10"]
        if cmd == "simulate":
            argv.append("--samples=1000")
        _exit_code(argv)
