"""Seeded generators for the null and the alternative distributions.

Alternatives are described by :class:`AlternativeSpec` values, parseable from
a compact string grammar (used by the CLI): ``kind:name=value,...`` or
``kind(v1,v2,...)``, the values in the order listed.  A parameter listed as
``name=default`` may be left out; the others are required::

    std                          standard normal, any d
    mt(nu)                       multivariate t, any d
    nmix(p, mu=0, sigma=1)       (1-p) N(0, I) + p N(mu, sigma), any d; for d >= 2,
                                 mu=3 is the vector of 3's and sigma a variance
                                 times I, "I" or "Bd" (unit diagonal, 0.9 off)
    t(nu), uniform, chisq(nu), beta(alpha, beta), gamma(shape, rate),
    gumbel(loc=0, scale), lognormal(mu=0, sigma=1), weibull(scale, shape),
    laplace(loc=0, scale=1/sqrt2), logistic(loc=0, scale=sqrt3/pi), cauchy,
    pvii(theta), exp(rate=1)
    prod:<univariate spec>       i.i.d. coordinates, e.g. prod:gamma(5,1)
    spherical:<univariate spec>  R * (uniform direction), e.g. spherical:exp(1)

nmix and the kinds from t on are univariate (a base of prod or spherical); the
kinds from t on are drawn at d = 1 only.  uniform, and laplace and logistic at
their default scales, have unit variance; pvii(theta) has density c (1+x^2)^-theta.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .parallel import substream
from .standardize import check_sample_size


@dataclass(frozen=True)
class AlternativeSpec:
    """Tagged description of a sampling distribution."""

    kind: str
    params: dict = field(default_factory=dict)  # as given; the label shows these
    base: "AlternativeSpec | None" = None  # for prod / spherical
    values: tuple = field(init=False, repr=False, compare=False)  # in positional order, defaults filled in

    def __post_init__(self):
        row = _row(self.kind)
        form = _form(self.kind)
        if row.takes_base:
            if self.base is None or not _TABLE[self.base.kind].univariate:
                raise ValueError(f"{self.kind} needs a univariate base distribution: {self.kind}:<spec>")
        elif self.base is not None:
            raise ValueError(f"{form} takes no base distribution")
        unknown = [k for k in self.params if k not in row.params]
        if unknown:
            raise ValueError(f"{form} has no parameter {', '.join(map(repr, unknown))}")
        values = {**row.params, **self.params}
        missing = [k for k, v in values.items() if v is None]
        if missing:
            raise ValueError(f"{form} needs {', '.join(missing)}")
        values = tuple(values.values())
        try:
            valid = row.rule(*values)
        except TypeError:  # a string in a numeric slot
            valid = False
        if not valid:
            raise ValueError(f"{form} requires {row.message}; got {self.label()}")
        object.__setattr__(self, "values", values)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        if self.base is not None:
            return f"{self.kind}:{self.base.label()}"
        return f"{self.kind}({inner})" if inner else self.kind


def _row(kind: str) -> _Kind:
    if kind not in _TABLE:
        raise ValueError(f"unknown distribution kind {kind!r}; choose from {', '.join(_TABLE)}")
    return _TABLE[kind]


def _form(kind: str) -> str:
    """The kind with its parameters in positional order, e.g. ``gumbel(loc=0, scale)``."""
    names = (k if v is None else f"{k}={v:g}" for k, v in _TABLE[kind].params.items())
    return f"{kind}({', '.join(names)})"


def _number(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text  # "I" or "Bd"; the kind's rule refuses any other string


def parse_spec(text: str) -> AlternativeSpec:
    """Parse the compact string grammar into an :class:`AlternativeSpec`."""
    text = text.strip()
    head, _, rest = text.partition(":")
    kind = head.strip().lower()
    if kind in _TABLE and _TABLE[kind].takes_base:
        return AlternativeSpec(kind, base=parse_spec(rest) if rest.strip() else None)
    positional = re.fullmatch(r"(\w+)\((.*)\)", text)
    if positional:
        kind = positional.group(1).lower()
        names = list(_row(kind).params)
        vals = positional.group(2).split(",") if positional.group(2).strip() else []
        if len(vals) > len(names):
            raise ValueError(f"{_form(kind)} takes at most {len(names)} parameters, got {len(vals)}")
        items = zip(names, vals)
    else:
        pairs = (item.partition("=") for item in rest.split(",")) if rest.strip() else ()
        items = [(key.strip().lower(), val) for key, _, val in pairs]
        keys = [key for key, _ in items]
        for key in keys:
            if keys.count(key) > 1:
                _row(kind)  # an unknown kind is refused as such
                raise ValueError(f"{_form(kind)} takes {key!r} once, got it {keys.count(key)} times")
    return AlternativeSpec(kind, {key: _number(val.strip()) for key, val in items})


def sphere_uniform(d: int, rng: np.random.Generator) -> np.ndarray:
    """One point uniform on the unit sphere in R^d (rotation invariant)."""
    return _sphere_uniform_many(d, 1, rng)[0]


def _sphere_uniform_many(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    if d < 1:
        raise ValueError("d must be >= 1")
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    # a zero draw has probability 0; regenerate defensively
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def _b_matrix(d: int) -> np.ndarray:
    b = np.full((d, d), 0.9)
    np.fill_diagonal(b, 1.0)
    return b


_MATRIX = {"I": np.eye, "Bd": _b_matrix}  # the named covariances nmix's sigma takes at d >= 2


def _pos(x) -> bool:
    return 0 < x < math.inf


def _real(x) -> bool:
    return -math.inf < x < math.inf


def _draw(spec: AlternativeSpec, rng: np.random.Generator, n: int, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """One (n, d) draw from ``spec``, written into ``out`` if one is given.  The
    null fills ``out`` in place, in the order of a fresh (n, d) draw."""
    if out is None:
        return _TABLE[spec.kind].draw(rng, n, d, spec)
    if spec.kind == "std":
        return rng.standard_normal(out=out)
    out[...] = _TABLE[spec.kind].draw(rng, n, d, spec)
    return out


def _mt(rng, n, d, spec):
    (nu,) = spec.values
    z = rng.standard_normal((n, d))
    return z / np.sqrt(rng.chisquare(nu, size=n) / nu)[:, None]


@functools.lru_cache
def _nmix_factor(sigma, d: int) -> np.ndarray:
    """Cholesky factor, read-only, of the covariance of nmix's second component."""
    if isinstance(sigma, str):
        cov = _MATRIX[sigma](d)
    else:
        cov = sigma * np.eye(d)
    factor = np.linalg.cholesky(cov)
    factor.flags.writeable = False
    return factor


def _nmix(rng, n, d, spec):
    p, mu, sigma = spec.values
    factor = _nmix_factor(sigma, d)
    out = rng.standard_normal((n, d))
    pick = rng.random(n) < p
    out[pick] = mu + rng.standard_normal((int(pick.sum()), d)) @ factor.T
    return out


def _pvii(rng, n, theta):
    # density c (1+x^2)^{-theta}: x = t_{2 theta - 1} / sqrt(2 theta - 1)
    nu = 2.0 * theta - 1.0
    return rng.standard_t(nu, size=n) / math.sqrt(nu)


class _Kind(NamedTuple):
    draw: Callable  # (rng, n, d, spec) -> (n, d) array
    params: dict = {}  # name -> default, in positional order; a default of None marks a required one
    rule: Callable[..., bool] = lambda: True  # of every parameter, in positional order
    message: str = ""  # what the rule requires
    univariate: bool = False  # may be the base of prod and spherical
    takes_base: bool = False  # draws from a univariate base, spec.base
    d_one: bool = False  # drawn at d = 1 only


def _uni(draw1, *validation) -> _Kind:
    """Row of a univariate kind whose ``draw1(rng, n, *values)`` returns n draws, at d = 1 only."""

    def draw(rng, n, d, spec):
        return draw1(rng, n, *spec.values)[:, None]

    return _Kind(draw, *validation, univariate=True, d_one=True)


def _positive(*names: str) -> tuple:
    """Params, rule and message of required parameters that must all be positive."""
    return dict.fromkeys(names), lambda *v: all(map(_pos, v)), " and ".join(f"{k} > 0" for k in names)


_NU = ({"nu": None}, lambda nu: 1 <= nu < math.inf, "nu >= 1")  # params, rule and message
_LOC = (lambda loc, scale: _real(loc) and _pos(scale), "a finite location and a positive scale")  # rule, text

# The one per-kind table: parsing, validation, defaults and draws all read it.
# Where a draw takes *v, the parameters are numpy's arguments in their order.
_TABLE = {
    "std": _Kind(lambda g, n, d, s: g.standard_normal((n, d))),
    "mt": _Kind(_mt, *_NU),
    "nmix": _Kind(
        _nmix, {"p": None, "mu": 0.0, "sigma": 1.0},
        lambda p, mu, sigma: 0 < p < 1 and _real(mu) and (sigma in _MATRIX or _pos(sigma)),
        "p in (0, 1), a finite mu and sigma > 0, 'I' or 'Bd'", univariate=True,
    ),
    "prod": _Kind(lambda g, n, d, s: np.hstack([_draw(s.base, g, n, 1) for _ in range(d)]), takes_base=True),
    "spherical": _Kind(
        lambda g, n, d, s: _draw(s.base, g, n, 1) * _sphere_uniform_many(d, n, g), takes_base=True
    ),
    "t": _uni(lambda g, n, nu: g.standard_t(nu, n), *_NU),
    "uniform": _uni(lambda g, n: g.uniform(-math.sqrt(3.0), math.sqrt(3.0), n)),
    "chisq": _uni(lambda g, n, nu: g.chisquare(nu, n), *_NU),
    "beta": _uni(lambda g, n, *v: g.beta(*v, n), *_positive("alpha", "beta")),
    "gamma": _uni(lambda g, n, shape, rate: g.gamma(shape, 1.0 / rate, n), *_positive("shape", "rate")),
    "gumbel": _uni(lambda g, n, *v: g.gumbel(*v, n), {"loc": 0.0, "scale": None}, *_LOC),
    "lognormal": _uni(lambda g, n, *v: g.lognormal(*v, n), {"mu": 0.0, "sigma": 1.0}, *_LOC),
    "weibull": _uni(lambda g, n, scale, shape: scale * g.weibull(shape, n), *_positive("scale", "shape")),
    "laplace": _uni(lambda g, n, *v: g.laplace(*v, n), {"loc": 0.0, "scale": 1 / math.sqrt(2.0)}, *_LOC),
    "logistic": _uni(
        lambda g, n, *v: g.logistic(*v, n), {"loc": 0.0, "scale": math.sqrt(3.0) / math.pi}, *_LOC
    ),
    "cauchy": _uni(lambda g, n: g.standard_cauchy(n)),
    "pvii": _uni(_pvii, {"theta": None}, lambda theta: 0.5 < theta < math.inf, "theta > 1/2"),
    "exp": _uni(lambda g, n, rate: g.exponential(1.0 / rate, n), {"rate": 1.0}, _pos, "rate > 0"),
}


def _check_dimension(spec: AlternativeSpec, d: int) -> None:
    """Refuse a kind drawn at d = 1 only at any other d, and nmix's matrix sigma at d = 1.

    A base of prod or spherical is drawn at d = 1.
    """
    if d != 1 and _TABLE[spec.kind].d_one:
        raise ValueError(f"{spec.kind} is univariate; use prod:{spec.label()} for d={d}")
    if d == 1 and spec.kind == "nmix" and isinstance(spec.values[2], str):
        raise ValueError(f"nmix sigma={spec.values[2]} is a matrix, for d >= 2; give a variance at d = 1")
    if spec.base is not None:
        _check_dimension(spec.base, 1)


def sample(spec: AlternativeSpec, n: int, seed_or_rng, d: int = 1) -> np.ndarray:
    """Draw an (n, d) data matrix; deterministic given (spec, n, seed, d)."""
    check_sample_size(math.inf, d)
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_dimension(spec, d)
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else substream(int(seed_or_rng))
    return _draw(spec, rng, n, d)
