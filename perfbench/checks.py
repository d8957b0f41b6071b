"""Checks of the verifier's outputs against independent answers.

Each check returns a list of problems (empty when the output is right), so
the benchmark's tests can feed it a wrong answer and see it complain.
"""

from __future__ import annotations

import re
from math import comb


def betti(label: str, got, expected) -> list[str]:
    if tuple(got) != tuple(expected):
        return [f"{label}: betti {tuple(got)} != expected {tuple(expected)}"]
    return []


def poincare_duality(label: str, b) -> list[str]:
    b = tuple(b)
    if b != b[::-1]:
        return [f"{label}: betti {b} is not palindromic on a unimodular model"]
    return []


def eta_splitting(label: str, betti_eta, betti_omega1) -> list[str]:
    """betti_eta[p] = betti_omega1[p] + betti_omega1[p - 1] (co-Kahler)."""
    want = [betti_omega1[p] + (betti_omega1[p - 1] if p else 0)
            for p in range(len(betti_omega1))]
    if list(betti_eta) != want:
        return [f"{label}: betti_eta {list(betti_eta)} != H_1 + [eta]H_1 "
                f"{want}"]
    return []


def report(label: str, rep: dict, expected_betti, unimodular: bool,
           co_kahler: bool) -> list[str]:
    """A report --json record: verdicts, Betti numbers and the splitting."""
    problems = []
    if rep.get("ok") is not True:
        problems.append(f"{label}: report ok is {rep.get('ok')!r}")
    bad = [r["check"] for r in rep.get("asserted", []) if r.get("ok") is not True]
    if bad:
        problems.append(f"{label}: asserted checks failed: {bad}")
    problems += betti(label, rep["model"]["betti"], expected_betti)
    if rep["model"]["unimodular"] is not unimodular:
        problems.append(f"{label}: unimodular is {rep['model']['unimodular']}, "
                        f"expected {unimodular}")
    if unimodular:
        problems += poincare_duality(label, rep["model"]["betti"])
    if "classification" in rep:
        got = rep["classification"]["coKahler"]
        if got is not co_kahler:
            problems.append(f"{label}: coKahler is {got}, expected {co_kahler}")
        if co_kahler:
            split = rep["splitting"]
            problems += eta_splitting(label, split["betti_eta"],
                                      split["betti_omega1"])
    return problems


def flat_torus_report(label: str, rep: dict, n: int) -> list[str]:
    """Closed forms on the flat co-Kahler n-torus (n odd): Lefschetz ranks
    C(n, p) for p <= (n - 1) / 2, H_1 = Lambda(R^{n-1}), and a minimal
    model with n generators, all in degree 1."""
    problems = []
    half = (n - 1) // 2
    ranks = {d["p"]: d["rank"] for d in rep["lefschetz"]["degrees"]}
    want = {p: comb(n, p) for p in range(half + 1)}
    if ranks != want:
        problems.append(f"{label}: Lefschetz ranks {ranks} != {want}")
    omega1 = rep["splitting"]["betti_omega1"]
    want_omega1 = [comb(n - 1, p) for p in range(n)] + [0]
    if list(omega1) != want_omega1:
        problems.append(f"{label}: betti_omega1 {omega1} != {want_omega1}")
    counts = rep["minimal_model"]["generator_counts"]
    if counts != {"1": n}:
        problems.append(f"{label}: minimal-model generators {counts} != "
                        f"{{'1': {n}}}")
    return problems


def _tuple_after(prefix: str, text: str):
    m = re.search(re.escape(prefix) + r"\s*\(([-\d, ]*)\)", text)
    if m is None:
        return None
    return tuple(int(v) for v in m.group(1).split(",") if v.strip())


def cli_betti(label: str, stdout: str, expected) -> list[str]:
    got = _tuple_after("betti", stdout)
    if got is None:
        return [f"{label}: no Betti numbers in {stdout!r}"]
    return betti(label, got, expected)


def cli_mapping_torus(label: str, stdout: str, expected) -> list[str]:
    got = _tuple_after("mapping torus betti:", stdout)
    if got is None:
        return [f"{label}: no mapping-torus Betti numbers in {stdout!r}"]
    return betti(label, got, expected)


def cli_lefschetz_torus(label: str, stdout: str, n: int) -> list[str]:
    """Flat n-torus: rank C(n, p) of C(n, p) -> C(n, n - p), all iso."""
    got = {int(p): (int(r), iso == "True") for p, r, iso in re.findall(
        r"p=(\d+): rank (\d+) of \d+->\d+, iso: (\w+)", stdout)}
    want = {p: (comb(n, p), True) for p in range((n - 1) // 2 + 1)}
    if got != want:
        return [f"{label}: Lefschetz (rank, iso) {got} != {want}"]
    return []


def cli_classify(label: str, stdout: str, co_kahler: bool) -> list[str]:
    if f"coKahler: {co_kahler}" not in stdout.splitlines():
        return [f"{label}: classify does not say coKahler: {co_kahler}"]
    return []


def exit_code(label: str, code, expected: int = 0) -> list[str]:
    if code != expected:
        return [f"{label}: exit {code}, expected {expected}"]
    return []


def idempotent(label: str, first: str, second: str) -> list[str]:
    if first != second:
        return [f"{label}: canonicalize is not idempotent"]
    return []
