"""The exact bytes of a set of closed-form and simulated curve files, pinned
by sha256. A change that moves any of them changes what users get, so it
must say so in the README (section "Pinned curve files") before it updates a
hash here."""

import hashlib

import pytest

from logndiv.cli import main

_CHANNEL = ["--L", "3", "--rho", "0.5", "--sigma-g", "1", "--gamma-th", "1000",
            "--er-db", "0:300:5"]

PINNED = {
    "figure fig4": (["figure", "fig4"],
                    "b48f1592fcbfeb90337afab05e34d2622777cd42c2f1d1a9a5f1b384cb2a03b0"),
    "figure fig5": (["figure", "fig5"],
                    "ad5c1f8c396aac5a322b79b529dfc5ad830670a85f8da4d81b38a523f6a734fe"),
    "figure fig6": (["figure", "fig6"],
                    "d347a7a3563988afa614766eded6d64e88039382853f25049f8cd6122d3467e8"),
    "figure fig7": (["figure", "fig7"],
                    "2ff25158606da8a5f68a244bea8fd6411a10abab5879166ee625572de2290c7d"),
    "figure fig4 --samples 20000 --seed 3": (
        ["figure", "fig4", "--samples", "20000", "--seed", "3"],
        "9e6e2e992eb74e523f4e6d2ecf77eb8c3ad979f369b591b885a2d639c11a788e"),
    # At gamma_th = 1000 the first SC and MRC points lie below their regimes.
    "asymptotic sc": (["asymptotic", "--scheme", "sc", *_CHANNEL],
                      "145441d47dcb73bd118fa60acab45e0d54874090b84a845a28954a2fd50b407b"),
    "asymptotic egc": (["asymptotic", "--scheme", "egc", *_CHANNEL],
                       "4ef04dea20f456f6daf1740fb9441737ab67aed47fa7b4412f173d21059bee6b"),
    "asymptotic mrc": (["asymptotic", "--scheme", "mrc", *_CHANNEL],
                       "72335dd946d9759dade7c29443787c9bb32d40139fd6370cfb542b6864e44014"),
    # The last 60 of these log-spaced y lie beyond the tail region.
    "sumcdf --method asym": (
        ["sumcdf", "--L", "3", "--rho", "0.5", "--mu-g", "0", "--sigma-g", "1",
         "--y", "0.01:10000:50", "--y-spacing", "log", "--method", "asym"],
        "9aa7ea47416665b728b898d1ef1cc6389575638db79bd3104c82c4814f2f10b8"),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_curve_file_bytes_are_pinned(name, tmp_path):
    argv, digest = PINNED[name]
    out = tmp_path / "curves.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
