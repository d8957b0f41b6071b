"""Human-editable model files.

A model file is line-oriented text with a header and named sections::

    name: heisenberg
    dimension: 3

    [brackets]
    1 2 3 1          # [X_1, X_2] = X_3; entries are i j k c with i < j

    [metric]
    identity

    [xi]
    X1               # or explicit components: 1 0 0

    [eta]
    e1

    [J]
    0 0 0
    0 0 -1
    0 1 0

The optional section ``[automorphism]`` holds a first row ``order m``
followed by a matrix, for mapping-torus runs; a singular matrix, or one
whose m-th power is not the identity, is refused.  The fundamental 2-form is
always computed from J and the metric.  ``#`` starts a comment; rationals are
written like ``-1/2``, and each is read as an ``int`` where it is integral and
a ``Fraction`` otherwise, as ``linalg`` keeps them.  The dimension is at most
``MAX_DIMENSION``.  Every parse error carries a line diagnostic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import linalg
from .errors import ModelParseError
from .geometry import LieModel
from .record import Fresh, Record

_SECTIONS = ("brackets", "metric", "xi", "eta", "J", "automorphism")
# above it nothing could be computed (the CE algebra has 2^dimension
# monomials), and the dense vectors and matrices read here would fill memory
MAX_DIMENSION = 64
CORPUS_MODELS = ("torus3", "torus5", "heisenberg", "kx5",
                 "t2-rot4-mapping-torus", "t2-negid-mapping-torus")
_CORPUS = resources.files("cokahler.corpus")


class ModelFile(Record):
    name: str
    dimension: int
    brackets: list[tuple[int, int, int, linalg.Rational]] = Fresh(list)
    metric: list[list[linalg.Rational]] | None = None
    xi: list[linalg.Rational] | None = None
    eta: list[linalg.Rational] | None = None
    J: list[list[linalg.Rational]] | None = None
    automorphism: tuple[list[list[linalg.Rational]], int] | None = None

    def to_lie_model(self) -> LieModel:
        grouped: dict[tuple[int, int], dict[int, linalg.Rational]] = {}
        for i, j, k, c in self.brackets:
            slot = grouped.setdefault((i - 1, j - 1), {})
            slot[k - 1] = slot.get(k - 1, 0) + c
        return LieModel(
            self.dimension, grouped, name=self.name, metric=self.metric,
            xi=self.xi, eta=self.eta, J=self.J,
            automorphism=self.automorphism)


def _number(token: str, line: int, fieldname: str, kind=Fraction):
    """The rational ``token`` names, an ``int`` where it is integral and a
    ``Fraction`` otherwise, or with ``kind=int`` (indices, orders) an ``int``.
    Both read any Unicode decimal digit, so a non-ASCII token is refused.
    ``Fraction`` reads an exponent by computing the power, so a rational with
    one is refused too: ``1e99999999`` took over a minute.  ``int`` reads a
    token with no ``/`` and no ``.``, and accepts what ``Fraction`` would."""
    what = "integer" if kind is int else "rational"
    if not token.isascii():
        raise ModelParseError(f"{what} {token!r} needs ASCII digits", line,
                              fieldname)
    if kind is Fraction and "e" in token.lower():
        raise ModelParseError(f"rational {token!r} has an exponent; write it "
                              "out", line, fieldname)
    try:
        if kind is int or not ("/" in token or "." in token):
            return int(token)
        return linalg.exact(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise ModelParseError(f"bad {what} {token!r}", line, fieldname) from None


def loads(text: str, name_hint: str = "model") -> ModelFile:
    name = name_hint
    dimension = None
    section = None
    header: dict[str, int] = {}     # key -> line
    rows: dict[str, list[tuple[int, list[str]]]] = {s: [] for s in _SECTIONS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ModelParseError(f"unknown section [{section}]", lineno)
            continue
        if section is None:
            if ":" not in line:
                raise ModelParseError("expected 'key: value' in the header",
                                      lineno)
            key, _, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if header.setdefault(key, lineno) != lineno:
                raise ModelParseError(f"repeated header key {key!r}, first on "
                                      f"line {header[key]}", lineno)
            if key == "name":
                name = value
            elif key == "dimension":
                dimension = _number(value, lineno, "dimension", int)
                if not 1 <= dimension <= MAX_DIMENSION:
                    raise ModelParseError(f"dimension must be 1.."
                                          f"{MAX_DIMENSION}", lineno,
                                          "dimension")
            else:
                raise ModelParseError(f"unknown header key {key!r}", lineno)
            continue
        rows[section].append((lineno, line.split()))
    if dimension is None:
        raise ModelParseError("missing 'dimension:' header")
    mf = ModelFile(name=name, dimension=dimension)
    _parse_brackets(mf, rows["brackets"])
    _parse_metric(mf, rows["metric"])
    mf.xi = _parse_vector(rows["xi"], dimension, "xi", prefix="X")
    mf.eta = _parse_vector(rows["eta"], dimension, "eta", prefix="e")
    mf.J = _parse_matrix(rows["J"], dimension, "J")
    _parse_automorphism(mf, rows["automorphism"])
    return mf


def _parse_brackets(mf: ModelFile, entries):
    seen: dict[tuple[int, int, int], int] = {}     # (i, j, k) -> line
    for lineno, toks in entries:
        if len(toks) != 4:
            raise ModelParseError("bracket rows are 'i j k c'", lineno,
                                  "brackets")
        i, j, k = (_number(t, lineno, "brackets", int) for t in toks[:3])
        c = _number(toks[3], lineno, "brackets")
        for idx in (i, j, k):
            if not 1 <= idx <= mf.dimension:
                raise ModelParseError(f"index {idx} out of range 1.."
                                      f"{mf.dimension}", lineno, "brackets")
        if i >= j:
            raise ModelParseError("bracket rows need i < j (antisymmetry is "
                                  "completed automatically)", lineno, "brackets")
        if seen.setdefault((i, j, k), lineno) != lineno:
            raise ModelParseError(f"repeated bracket triple {i} {j} {k}, "
                                  f"first on line {seen[i, j, k]}", lineno,
                                  "brackets")
        mf.brackets.append((i, j, k, c))
    mf.brackets.sort()


def _parse_metric(mf: ModelFile, entries):
    if not entries:
        return
    if len(entries) == 1 and entries[0][1] == ["identity"]:
        mf.metric = None
        return
    mf.metric = _parse_matrix(entries, mf.dimension, "metric")


def _parse_vector(entries, dim: int, fieldname: str, prefix: str):
    if not entries:
        return None
    if len(entries) != 1:
        raise ModelParseError(f"{fieldname} must be a single line",
                              entries[1][0], fieldname)
    lineno, toks = entries[0]
    index = toks[0][len(prefix):]
    if len(toks) == 1 and toks[0].startswith(prefix) and index.isdigit():
        # isdigit also holds for non-ASCII digits such as '²' and '١'
        if not index.isascii():
            raise ModelParseError(f"index {toks[0]!r} needs ASCII digits",
                                  lineno, fieldname)
        idx = _number(index, lineno, fieldname, int)
        if not 1 <= idx <= dim:
            raise ModelParseError(f"{toks[0]} out of range", lineno, fieldname)
        return [int(t == idx) for t in range(1, dim + 1)]
    if len(toks) != dim:
        raise ModelParseError(f"{fieldname} needs {dim} components",
                              lineno, fieldname)
    return [_number(t, lineno, fieldname) for t in toks]


def _parse_matrix(entries, dim: int, fieldname: str):
    if not entries:
        return None
    if len(entries) != dim:
        raise ModelParseError(f"{fieldname} needs {dim} rows",
                              entries[0][0], fieldname)
    out = []
    for lineno, toks in entries:
        if len(toks) != dim:
            raise ModelParseError(f"{fieldname} rows need {dim} entries",
                                  lineno, fieldname)
        out.append([_number(t, lineno, fieldname) for t in toks])
    return out


def _parse_automorphism(mf: ModelFile, entries):
    if not entries:
        return
    lineno, toks = entries[0]
    if len(toks) != 2 or toks[0] != "order":
        raise ModelParseError("automorphism section starts with 'order m'",
                              lineno, "automorphism")
    order = _number(toks[1], lineno, "automorphism", int)
    if order < 1:
        raise ModelParseError("order must be >= 1", lineno, "automorphism")
    matrix = _parse_matrix(entries[1:], mf.dimension, "automorphism")
    if matrix is None:
        raise ModelParseError("automorphism needs a matrix", lineno,
                              "automorphism")
    # on degree 1 what cdga.invariant_subalgebra checks on generators
    sparse = [linalg.sparse(row) for row in matrix]
    if linalg.rank(sparse) < mf.dimension:
        raise ModelParseError("automorphism matrix is singular",
                              entries[1][0], "automorphism")
    if linalg.mat_pow(sparse, math.gcd(order, _order_bound(mf.dimension))
                      ) != linalg.identity(mf.dimension):
        raise ModelParseError(f"automorphism matrix does not have order "
                              f"{order}", lineno, "automorphism")
    mf.automorphism = (matrix, order)


def _order_bound(n: int) -> int:
    """A multiple of the order of every finite-order n x n rational matrix,
    so M^m = I exactly when M^gcd(m, bound) = I: the product of the prime
    powers q with phi(q) <= n, since an eigenvalue whose order q divides
    comes with at least phi(q) conjugates."""
    out = 1
    for p in range(2, n + 2):
        if all(p % f for f in range(2, p)):
            q = p
            while q * (p - 1) <= n:         # phi(q p) = q (p - 1)
                q *= p
            out *= q
    return out


def serialize(mf: ModelFile) -> str:
    """Canonical rendering: load(serialize(load(x))) == load(serialize(...))."""
    def rows(mat):
        return [" ".join(str(v) for v in row) for row in mat]
    sections = [
        ("brackets", [f"{i} {j} {k} {c}" for i, j, k, c in sorted(mf.brackets)]),
        ("metric", ["identity"] if mf.metric is None else rows(mf.metric)),
        ("xi", mf.xi and rows([mf.xi])), ("eta", mf.eta and rows([mf.eta])),
        ("J", mf.J and rows(mf.J))]
    if mf.automorphism is not None:
        matrix, order = mf.automorphism
        sections.append(("automorphism", [f"order {order}", *rows(matrix)]))
    out = [f"name: {mf.name}", f"dimension: {mf.dimension}", ""]
    for label, lines in sections:
        if lines or label in ("brackets", "metric"):
            out += [f"[{label}]", *lines, ""]
    return "\n".join(out).rstrip() + "\n"


def load(path: str | Path) -> ModelFile:
    path = Path(path)
    return loads(path.read_text(), name_hint=path.stem)


def corpus_path(name: str):
    """Path-like handle to a bundled corpus model."""
    stem = name.removesuffix(".model")
    if stem not in CORPUS_MODELS:
        raise ModelParseError(f"unknown corpus model {name!r}; available: "
                              + ", ".join(CORPUS_MODELS))
    return _CORPUS.joinpath(f"{stem}.model")


def load_corpus(name: str) -> ModelFile:
    stem = name.removesuffix(".model")
    return loads(corpus_path(stem).read_text(), name_hint=stem)


def resolve(name_or_path: str) -> ModelFile:
    """Load a model from a filesystem path, else the bundled corpus."""
    path = Path(name_or_path)
    if path.exists():
        return load(path)
    return load_corpus(name_or_path)
