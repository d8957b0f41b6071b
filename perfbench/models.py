"""Model files the benchmark feeds to the verifier, generated from a seed.

Every generated model is a Lie algebra with the standard almost-contact
data: identity metric, xi = X1, eta = e1, and J rotating the planes
(X2, X3), (X4, X5), ...  The rotation models R x_D R^{2k} let ad(X1) rotate
the same planes with integer weights, so D commutes with J and the
structure is co-Kahler with d != 0 and L_xi != 0 (the Lie-algebra form of
a mapping torus of a Kahler isometry).
"""

from __future__ import annotations

import itertools
import random

CORPUS = ("torus3", "torus5", "heisenberg", "t2-rot4-mapping-torus",
          "t2-negid-mapping-torus")
MAPPING_TORI = ("t2-rot4-mapping-torus", "t2-negid-mapping-torus")

# rot7 weight triples from 1..4, sorted and never all equal.  The cohomology,
# and with it a report's cost, grows with coincidences among the weights, so
# a round draws one triple from each of two classes: three distinct weights
# (Betti sum 16 or 20) and a repeated weight (24).
# (1, 1, 2) and (2, 2, 4), where the doubled weight is the third (28), cost
# more and are not drawn, so a round's cost hardly depends on the seed.
ROT7_DISTINCT = tuple(itertools.combinations(range(1, 5), 3))
ROT7_REPEATED = tuple(
    t for t in itertools.combinations_with_replacement(range(1, 5), 3)
    if len(set(t)) == 2 and not (t[0] == t[1] and 2 * t[0] == t[2]))
# rot5 weight pairs from 1..4, sorted and distinct.
ROT5_PAIRS = tuple(itertools.combinations(range(1, 5), 2))


def model_text(name: str, dimension: int, brackets=(), contact=True) -> str:
    """Model file text; brackets are (i, j, k, c) meaning [X_i, X_j] = c X_k."""
    lines = [f"name: {name}", f"dimension: {dimension}", "", "[brackets]"]
    lines += [f"{i} {j} {k} {c}" for i, j, k, c in brackets]
    lines += ["", "[metric]", "identity"]
    if contact:
        lines += ["", "[xi]", "X1", "", "[eta]", "e1", "", "[J]"]
        J = [[0] * dimension for _ in range(dimension)]
        for a in range(1, dimension - 1, 2):
            J[a][a + 1] = -1
            J[a + 1][a] = 1
        lines += [" ".join(map(str, row)) for row in J]
    return "\n".join(lines) + "\n"


def rotation_brackets(weights) -> list[tuple[int, int, int, int]]:
    """ad(X1) rotates the plane (X_{2t+2}, X_{2t+3}) with weight w_t."""
    out = []
    for t, w in enumerate(weights):
        a = 2 + 2 * t
        out += [(1, a, a + 1, w), (1, a + 1, a, -w)]
    return out


def rot_name(weights) -> str:
    return f"rot{1 + 2 * len(weights)}-" + "-".join(map(str, weights))


def rot_text(weights) -> str:
    return model_text(rot_name(weights), 1 + 2 * len(weights),
                      rotation_brackets(weights))


def torus7_text() -> str:
    return model_text("torus7", 7)


def h3r2_text() -> str:
    """h3 x R^2: [X1, X2] = X3, xi = X1 (cosymplectic, not co-Kahler)."""
    return model_text("h3xR2", 5, [(1, 2, 3, 1)])


def nil5_text() -> str:
    """5-dim nilpotent [X1, X2] = X4: well-formed, not cosymplectic."""
    return model_text("nil5", 5, [(1, 2, 4, 1)])


def rot7_weights(seed: int) -> list[tuple[int, ...]]:
    """The two rot7 weight triples of one round for this seed."""
    rng = random.Random(f"rot7:{seed}")
    return [rng.choice(ROT7_DISTINCT), rng.choice(ROT7_REPEATED)]


def rot5_weights(seed: int) -> tuple[int, ...]:
    return random.Random(f"rot5:{seed}").choice(ROT5_PAIRS)


def report_models() -> dict[str, str | None]:
    """Every model whose report any seed of any workload can produce."""
    out: dict[str, str | None] = {"torus7": torus7_text()}
    for w in ROT7_DISTINCT + ROT7_REPEATED + ROT5_PAIRS:
        out[rot_name(w)] = rot_text(w)
    out.update({name: None for name in CORPUS})
    out["h3xR2"] = h3r2_text()
    out["nil5"] = nil5_text()
    return out


def workload_models(workload: str, seed: int) -> dict[str, str | None]:
    """Model label -> file text, or None for a bundled corpus model."""
    if workload == "torus7":
        return {"torus7": torus7_text()}
    if workload == "rot7":
        return {rot_name(w): rot_text(w) for w in rot7_weights(seed)}
    if workload == "sweep":
        models: dict[str, str | None] = {name: None for name in CORPUS}
        w = rot5_weights(seed)
        models[rot_name(w)] = rot_text(w)
        models["h3xR2"] = h3r2_text()
        models["nil5"] = nil5_text()
        return models
    raise ValueError(f"unknown workload {workload!r}")
