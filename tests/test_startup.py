"""Start-up cost: the package surface resolves lazily, no command loads
scipy, and neither the closed forms below the noncentrality nor the
quadrature load numpy. scipy and
numpy are already loaded in the test process, so the import checks run in a
fresh interpreter."""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import logndiv
from logndiv import channel, special_fn
from logndiv.baselines import fenton_wilkinson_cdf
from logndiv.cli import main
from logndiv.errors import DomainError

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


# Whether numpy is loaded after `import logndiv`, after `import logndiv.cli`,
# after `import logndiv.oracles` and after each command.
_NUMPY_CHILD = textwrap.dedent("""
    import json, sys
    loaded = []
    import logndiv
    loaded.append("numpy" in sys.modules)
    import logndiv.cli as cli
    loaded.append("numpy" in sys.modules)
    import logndiv.oracles
    loaded.append("numpy" in sys.modules)

    outdir, commands = sys.argv[1], json.loads(sys.argv[2])
    codes = []
    for i, argv in enumerate(commands):
        codes.append(cli.main(argv + ["--out", f"{outdir}/{i}.out"]))
        loaded.append("numpy" in sys.modules)
    print(json.dumps({"codes": codes, "numpy": loaded}))
""")

# Array work in a fresh process: a point at or above the noncentrality, which
# takes the Ding window, then figure fig7.
_ARRAY_CHILD = textwrap.dedent("""
    import json, sys
    from logndiv import special_fn
    import logndiv.cli as cli

    before = "numpy" in sys.modules
    window = special_fn.noncentral_chi2_cdf_log(4.0, 1.0, 9.0)
    after = "numpy" in sys.modules
    code = cli.main(["figure", "fig7", "--out", f"{sys.argv[1]}/fig7.csv"])
    print(json.dumps({"numpy": [before, after], "window": window, "code": code}))
""")


# Incomplete gammas above shape 15 in a fresh process.
_GAMMA_CHILD = textwrap.dedent("""
    import json, sys
    from logndiv.special_fn import reg_gamma_lower, reg_gamma_upper

    values = [reg_gamma_upper(20.0, 3.0), reg_gamma_lower(40.0, 45.0)]
    print(json.dumps({"numpy": "numpy" in sys.modules, "values": values}))
""")


def _run_fresh(tmp_path, commands: list[list[str]], child: str = _CHILD) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.pop("LOGNDIV_SEED", None)
    r = subprocess.run([sys.executable, "-c", child, str(tmp_path), json.dumps(commands)],
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


def test_optimiser_suites_load_no_scipy(tmp_path):
    commands = [["verify", "--suite", s] for s in ("kkt", "derivatives", "all")]
    out = _run_fresh(tmp_path, commands)
    assert out["codes"] == [0] * len(commands)
    assert out["scipy"] == []


def test_closed_form_commands_load_no_numpy(tmp_path):
    commands = [["figure", "fig4"], ["figure", "fig5"], ["figure", "fig6"],
                *[_ASYMPTOTIC[:-3] + [s] + _ASYMPTOTIC[-2:] for s in ("sc", "egc", "mrc")],
                ["verify", "--suite", "limits"], _SUMCDF + ["quadrature"], _SUMCDF + ["fw"]]
    out = _run_fresh(tmp_path, commands, _NUMPY_CHILD)
    assert out["codes"] == [0] * len(commands)
    assert out["numpy"] == [False] * (3 + len(commands))


def test_array_work_loads_numpy_where_it_runs(tmp_path):
    out = _run_fresh(tmp_path, [], _ARRAY_CHILD)
    assert out["numpy"] == [False, True]
    assert out["code"] == 0
    assert out["window"] == special_fn.noncentral_chi2_cdf_log(4.0, 1.0, 9.0)
    here = tmp_path / "here.csv"
    assert main(["figure", "fig7", "--out", str(here)]) == 0
    assert (tmp_path / "fig7.csv").read_bytes() == here.read_bytes()


def test_incomplete_gamma_above_shape_15_loads_no_numpy(tmp_path):
    out = _run_fresh(tmp_path, [], _GAMMA_CHILD)
    assert out == {"numpy": False, "values": [special_fn.reg_gamma_upper(20.0, 3.0),
                                              special_fn.reg_gamma_lower(40.0, 45.0)]}


@pytest.mark.parametrize("v", [-50.0, -3.0, 0.0, 9.0])
def test_numpy_float_takes_the_scalar_route_of_log_ndtr(v):
    got = special_fn.log_ndtr(np.float64(v))
    assert not isinstance(got, np.ndarray) and got == special_fn.log_ndtr(v)


def test_numpy_float_takes_the_scalar_route_of_log_poisson():
    assert special_fn._log_poisson(np.float64(20.0), 3.0) == special_fn._log_poisson(20.0, 3.0)


def test_numpy_integers_are_counts():
    spec = channel.ChannelSpec(L=np.int64(3), rho=0.5, sigma_G=1.0, Er=1.0)
    assert spec.L == 3
    batches = channel.iter_latent_batches(channel.derive_params(spec), np.int64(2000), 1)
    assert sum(g.shape[0] for g in batches) == 2000
    assert fenton_wilkinson_cdf(np.int64(2), 0.5, 0.0, 1.0, 0.1) == \
        fenton_wilkinson_cdf(2, 0.5, 0.0, 1.0, 0.1)


@pytest.mark.parametrize("v", [np.float64(3.0), np.bool_(True)], ids=["float64", "bool_"])
def test_numpy_non_integers_are_refused_as_counts(v):
    with pytest.raises(DomainError, match=re.escape(
            f"branch count must be an integer in [1, 2^53], got {v!r}")):
        channel.ChannelSpec(L=v, rho=0.5, sigma_G=1.0, Er=1.0)
    params = channel.derive_params(channel.ChannelSpec(L=2, rho=0.5, sigma_G=1.0, Er=1.0))
    with pytest.raises(DomainError, match=re.escape(
            f"sample count must be an integer >= 1, got {v!r}")):
        next(channel.iter_latent_batches(params, v, 1))


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
