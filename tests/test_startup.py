"""Start-up cost: the package surface resolves lazily, and only the verify
suites that run an optimiser load scipy. scipy is already loaded in the test
process, so the import checks run in a fresh interpreter."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import logndiv

# The directory holding the package under test, for the child's sys.path.
PACKAGE_ROOT = str(Path(logndiv.__file__).resolve().parents[1])

_CHILD = textwrap.dedent("""
    import json, sys
    import logndiv
    import logndiv.cli as cli

    outdir, commands = sys.argv[1], json.loads(sys.argv[2])
    codes = [cli.main(argv + ["--out", f"{outdir}/{i}.out"]) for i, argv in enumerate(commands)]
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps({"codes": codes, "scipy": scipy}))
""")

_ASYMPTOTIC = ["asymptotic", "--L", "3", "--rho", "0.5", "--sigma-g", "1", "--gamma-th",
               "0.1", "--scheme", "egc", "--er-db", "0:300:5"]
_SUMCDF = ["sumcdf", "--L", "2", "--rho", "0.5", "--mu-g", "0", "--sigma-g", "0.65",
           "--y", "0.05:3:0.05", "--method"]


def _run_fresh(tmp_path, commands: list[list[str]]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.pop("LOGNDIV_SEED", None)
    r = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path), json.dumps(commands)],
                       env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.strip().splitlines()[-1])


def test_closed_form_commands_load_no_scipy(tmp_path):
    commands = [["figure", "fig4"], ["figure", "fig5"], ["figure", "fig6"], _ASYMPTOTIC,
                _SUMCDF + ["asym"], _SUMCDF + ["fw"]]
    out = _run_fresh(tmp_path, commands)
    assert out["codes"] == [0] * len(commands)
    assert out["scipy"] == []


def test_import_alone_loads_no_scipy(tmp_path):
    out = _run_fresh(tmp_path, [])
    assert out == {"codes": [], "scipy": []}


@pytest.mark.parametrize("argv", [["verify", "--suite", "lemma"], _SUMCDF + ["quadrature"]],
                         ids=["verify-lemma", "sumcdf-quadrature"])
def test_scipy_commands_still_run_from_a_fresh_process(argv, tmp_path):
    assert _run_fresh(tmp_path, [argv])["codes"] == [0]


def test_quadrature_commands_load_neither_scipy_integrate_nor_optimize(tmp_path):
    commands = [["figure", "fig7"], _SUMCDF + ["quadrature"]]
    out = _run_fresh(tmp_path, commands)
    assert out["codes"] == [0] * len(commands)
    assert [m for m in out["scipy"] if m.startswith(("scipy.integrate", "scipy.optimize"))] == []


def test_quadrature_and_monte_carlo_commands_load_no_scipy(tmp_path):
    # 2e4 samples leave fewer than 30 hits at 20 dB, so the Clopper-Pearson
    # interval is solved too.
    simulate = ["simulate", "--L", "2", "--rho", "0.5", "--sigma-g", "1", "--gamma-th", "0.1",
                "--scheme", "egc", "--er-db", "0:20:10", "--samples", "20000"]
    commands = [["figure", "fig7"], _SUMCDF + ["quadrature"], simulate,
                ["figure", "fig4", "--samples", "1000"],
                *[["verify", "--suite", s] for s in ("lemma", "subset", "limits")]]
    out = _run_fresh(tmp_path, commands)
    assert out["codes"] == [0] * len(commands)
    assert out["scipy"] == []


def test_optimiser_suite_still_runs_from_a_fresh_process(tmp_path):
    assert _run_fresh(tmp_path, [["verify", "--suite", "kkt"]])["codes"] == [0]


def test_every_exported_name_is_listed_by_dir():
    assert set(logndiv.__all__) <= set(dir(logndiv))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from logndiv import *", namespace)
    for name in logndiv.__all__:
        assert namespace[name] is getattr(logndiv, name)


def test_resolved_name_is_cached_in_the_package():
    from logndiv import montecarlo

    assert logndiv.sweep is montecarlo.sweep
    assert vars(logndiv)["sweep"] is montecarlo.sweep


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        logndiv.no_such_name
