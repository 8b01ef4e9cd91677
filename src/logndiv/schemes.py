"""Diversity combining schemes and their instantaneous output SNRs."""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:   # imported by the MRC sum, so that the closed forms do not pay for it
    import numpy as np

# MRC squares its gains this many values at a time, so that it never holds a
# second batch-sized array (8 MiB of float64).
_SQUARE_VALUES = 2 ** 20


class SchemeKind(str, Enum):
    SC = "sc"    # selection combining: best branch
    EGC = "egc"  # equal-gain combining: unit weights
    MRC = "mrc"  # maximum-ratio combining: optimal weights

    @classmethod
    def parse(cls, text: str) -> "SchemeKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise DomainError(f"unknown scheme {text!r}; expected one of sc/egc/mrc") from None


def combiner_snr(scheme: SchemeKind, gains: np.ndarray) -> np.ndarray:
    """Instantaneous output SNR per draw from a (n, L) array of branch
    amplitudes (unit noise covariance):

        SC:  max_l c_l^2        EGC: (sum_l c_l)^2 / L      MRC: sum_l c_l^2
    """
    if scheme is SchemeKind.SC:
        m = gains.max(axis=1)
        return m * m
    if scheme is SchemeKind.EGC:
        s = gains.sum(axis=1)
        return s * s / gains.shape[1]
    if scheme is SchemeKind.MRC:
        import numpy as np

        # Parts of two rows or more: numpy sums a lone row in another order.
        m = gains.shape[0]
        parts = max(min(gains.size // _SQUARE_VALUES, m // 2), 1)
        out = np.empty(m)
        for i in range(parts):
            a, b = i * m // parts, (i + 1) * m // parts
            np.sum(gains[a:b] * gains[a:b], axis=1, out=out[a:b])
        return out
    raise DomainError(f"unknown scheme {scheme!r}")
