"""Seeded generators for the null and the alternative distributions.

Alternatives are described by :class:`AlternativeSpec` values, parseable from
a compact string grammar (used by the CLI)::

    std                      standard normal, any d
    nmix:p=0.1,mu=3,sigma=1  normal mixture (1-p) N(0, I) + p N(mu, sigma);
                             for d >= 2, mu=3 means the vector of 3's and
                             sigma accepts "Bd" (unit diagonal, 0.9 off) or
                             "I" or a scalar variance
    t:nu=5 / mt:nu=5         univariate / multivariate t
    uniform                  U(-sqrt3, sqrt3)
    chisq(5), beta(1,4), gamma:shape=5,rate=1, gumbel:loc=1,scale=2,
    lognormal, weibull:scale=1,shape=0.5, laplace, logistic, cauchy,
    pvii:theta=10            Pearson type VII with density c (1+x^2)^-theta
    prod:<univariate spec>   i.i.d. coordinates, e.g. prod:gamma(5,1)
    spherical:<radius spec>  R * (uniform direction), e.g. spherical:exp(1)

Parameters follow their conventional roles: gamma is (shape, rate), weibull
is (scale, shape), gumbel is (location, scale).  Bare laplace/logistic
default to the unit-variance scalings (scale 1/sqrt2 and sqrt3/pi).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .parallel import substream

_UNIVARIATE = {
    "t",
    "uniform",
    "chisq",
    "beta",
    "gamma",
    "gumbel",
    "lognormal",
    "weibull",
    "laplace",
    "logistic",
    "cauchy",
    "pvii",
    "exp",
    "nmix",
}
_KINDS = _UNIVARIATE | {"std", "mt", "prod", "spherical"}


@dataclass(frozen=True)
class AlternativeSpec:
    """Tagged description of a sampling distribution."""

    kind: str
    params: dict = field(default_factory=dict)
    base: "AlternativeSpec | None" = None  # for prod / spherical

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        _validate(self)

    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        if self.base is not None:
            return f"{self.kind}:{self.base.label()}"
        return f"{self.kind}({inner})" if inner else self.kind


_POSITIONAL = {
    "t": ("nu",),
    "mt": ("nu",),
    "chisq": ("nu",),
    "beta": ("alpha", "beta"),
    "gamma": ("shape", "rate"),
    "gumbel": ("loc", "scale"),
    "weibull": ("scale", "shape"),
    "pvii": ("theta",),
    "exp": ("rate",),
    "nmix": ("p", "mu", "sigma"),
}


def _validate(spec: AlternativeSpec) -> None:
    p = spec.params
    kind = spec.kind
    if kind in ("t", "mt", "chisq") and not p.get("nu", 1) >= 1:
        raise ValueError(f"{kind} requires nu >= 1")
    if kind == "beta" and (p.get("alpha", 1) <= 0 or p.get("beta", 1) <= 0):
        raise ValueError("beta requires positive shape parameters")
    if kind == "gamma" and (p.get("shape", 1) <= 0 or p.get("rate", 1) <= 0):
        raise ValueError("gamma requires positive shape and rate")
    if kind == "weibull" and (p.get("scale", 1) <= 0 or p.get("shape", 1) <= 0):
        raise ValueError("weibull requires positive scale and shape")
    if kind == "gumbel" and p.get("scale", 1) <= 0:
        raise ValueError("gumbel requires positive scale")
    if kind == "pvii" and not p.get("theta", 1) > 0.5:
        raise ValueError("pvii requires theta > 1/2")
    if kind == "exp" and p.get("rate", 1) <= 0:
        raise ValueError("exp requires positive rate")
    if kind == "nmix":
        if not 0.0 < p.get("p", 0.5) < 1.0:
            raise ValueError("nmix requires p in (0, 1)")
        sigma = p.get("sigma", 1.0)
        if not (sigma == "Bd" or sigma == "I" or (isinstance(sigma, float) and sigma > 0)):
            raise ValueError("nmix sigma must be positive, 'I' or 'Bd'")
    if kind in ("prod", "spherical"):
        if spec.base is None:
            raise ValueError(f"{kind} requires a base distribution")
        if spec.base.kind not in _UNIVARIATE:
            raise ValueError(f"{kind} base must be univariate, got {spec.base.kind!r}")


def parse_spec(text: str) -> AlternativeSpec:
    """Parse the compact string grammar into an :class:`AlternativeSpec`."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    head = head.strip().lower()
    if head in ("prod", "spherical"):
        if not sep:
            raise ValueError(f"{head} needs a base distribution, e.g. {head}:exp(1)")
        return AlternativeSpec(kind=head, base=parse_spec(rest))
    # positional form name(v1,v2): rewrite into the kv form
    m = re.fullmatch(r"([a-z0-9_]+)\(([^)]*)\)", text.strip().lower())
    if m:
        head = m.group(1)
        names = _POSITIONAL.get(head)
        if names is None:
            raise ValueError(f"{head!r} takes no positional parameters")
        vals = [v.strip() for v in m.group(2).split(",") if v.strip()]
        if len(vals) > len(names):
            raise ValueError(f"too many parameters for {head!r}")
        rest = ",".join(f"{k}={v}" for k, v in zip(names, vals))
        sep = ":"
    params: dict = {}
    if sep and rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"expected key=value in {item!r}")
            key = key.strip().lower()
            val = val.strip()
            params[key] = val if val in ("Bd", "I") else float(val)
    return AlternativeSpec(kind=head, params=params)


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


def _sample_univariate(spec: AlternativeSpec, size, rng: np.random.Generator) -> np.ndarray:
    kind, p = spec.kind, spec.params
    if kind == "t":
        return rng.standard_t(p["nu"], size=size)
    if kind == "uniform":
        s3 = math.sqrt(3.0)
        return rng.uniform(-s3, s3, size=size)
    if kind == "chisq":
        return rng.chisquare(p["nu"], size=size)
    if kind == "beta":
        return rng.beta(p["alpha"], p["beta"], size=size)
    if kind == "gamma":
        return rng.gamma(p["shape"], 1.0 / p["rate"], size=size)
    if kind == "gumbel":
        return rng.gumbel(p.get("loc", 0.0), p["scale"], size=size)
    if kind == "lognormal":
        return rng.lognormal(p.get("mu", 0.0), p.get("sigma", 1.0), size=size)
    if kind == "weibull":
        return p["scale"] * rng.weibull(p["shape"], size=size)
    if kind == "laplace":
        return rng.laplace(p.get("loc", 0.0), p.get("scale", 1.0 / math.sqrt(2.0)), size=size)
    if kind == "logistic":
        return rng.logistic(p.get("loc", 0.0), p.get("scale", math.sqrt(3.0) / math.pi), size=size)
    if kind == "cauchy":
        return rng.standard_cauchy(size=size)
    if kind == "pvii":
        # density c (1+x^2)^{-theta}: x = t_{2 theta - 1} / sqrt(2 theta - 1)
        nu = 2.0 * p["theta"] - 1.0
        return rng.standard_t(nu, size=size) / math.sqrt(nu)
    if kind == "exp":
        return rng.exponential(1.0 / p.get("rate", 1.0), size=size)
    if kind == "nmix":
        mu, sigma = p.get("mu", 0.0), p.get("sigma", 1.0)
        if isinstance(sigma, str):
            raise ValueError("matrix sigma is only meaningful for d >= 2")
        out = rng.standard_normal(size)
        pick = rng.random(size) < p["p"]
        out[pick] = mu + math.sqrt(sigma) * rng.standard_normal(int(pick.sum()))
        return out
    raise ValueError(f"{kind!r} is not a univariate distribution")


def _b_matrix(d: int) -> np.ndarray:
    b = np.full((d, d), 0.9)
    np.fill_diagonal(b, 1.0)
    return b


def sample(spec: AlternativeSpec, n: int, seed_or_rng, d: int = 1) -> np.ndarray:
    """Draw an (n, d) data matrix; deterministic given (spec, n, seed, d)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else substream(int(seed_or_rng))
    kind, p = spec.kind, spec.params
    if kind == "std":
        return rng.standard_normal((n, d))
    if kind == "mt":
        z = rng.standard_normal((n, d))
        w = rng.chisquare(p["nu"], size=n)
        return z / np.sqrt(w / p["nu"])[:, None]
    if kind == "prod":
        return np.column_stack([_sample_univariate(spec.base, n, rng) for _ in range(d)])
    if kind == "spherical":
        radius = _sample_univariate(spec.base, n, rng)
        return radius[:, None] * _sphere_uniform_many(d, n, rng)
    if kind == "nmix" and d > 1:
        mu = np.full(d, p.get("mu", 0.0))
        sigma = p.get("sigma", 1.0)
        if sigma == "Bd":
            cov = _b_matrix(d)
        elif sigma == "I":
            cov = np.eye(d)
        else:
            cov = float(sigma) * np.eye(d)
        chol = np.linalg.cholesky(cov)
        out = rng.standard_normal((n, d))
        pick = rng.random(n) < p["p"]
        out[pick] = mu + rng.standard_normal((int(pick.sum()), d)) @ chol.T
        return out
    if kind in _UNIVARIATE:
        if d != 1:
            raise ValueError(
                f"{kind!r} is univariate; use 'prod:{spec.label()}' for i.i.d. coordinates in d={d}"
            )
        return _sample_univariate(spec, n, rng)[:, None]
    raise ValueError(f"cannot sample kind {spec.kind!r}")
