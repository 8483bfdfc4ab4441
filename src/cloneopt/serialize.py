"""JSON encodings of the CLI's answers; encoders only, since the one
input the CLI decodes, a --state list of [re, im] pairs, is read by
cli.py itself.

Conventions: rationals as [numerator, denominator] in lowest terms,
matrices as {"rows", "cols", "entries"} with row-major [re, im] pairs,
occupation vectors and weights as plain integer arrays.  numpy is
imported by matrix_to_json only, so the exact commands' output needs
none.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .omega_opt import OmegaReport

__all__ = [
    "fraction_pair",
    "matrix_to_json",
    "omega_report_to_json",
    "estimate_report",
    "dumps",
]


def fraction_pair(x: Fraction) -> list[int]:
    x = Fraction(x)
    return [x.numerator, x.denominator]


def matrix_to_json(mat: np.ndarray) -> dict:
    import numpy as np

    mat = np.atleast_2d(np.asarray(mat, dtype=complex))
    return {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "entries": np.stack([mat.real, mat.imag], -1).reshape(-1, 2).tolist(),
    }


def omega_report_to_json(report: OmegaReport) -> dict:
    return {
        "d": report.d,
        "n": report.n_in,
        "m_out": report.m_out,
        "omega_max": fraction_pair(report.omega_max),
        "gamma": fraction_pair(report.gamma),
        "delta_one": fraction_pair(report.delta_one),
        "maximizers": [
            {"m": list(p.m), "mu": list(p.mu)} for p in report.maximizers
        ],
        "unique": report.unique,
        "count_enumerated": report.count_enumerated,
    }


def estimate_report(estimate: float, samples: int, seed: int) -> dict:
    """A seeded sampled estimate.  The sampled suprema are maxima, not
    means, so there is no standard error to report."""
    return {
        "estimate": float(estimate),
        "samples": int(samples),
        "seed": int(seed),
    }


def dumps(obj) -> str:
    """Deterministic JSON text: fixed separators, no key sorting (dicts
    are built in a fixed order), trailing newline."""
    return json.dumps(obj, separators=(", ", ": "), indent=None) + "\n"
