"""Independent high-precision reference for the entropy-sweep workload.

Computed with mpmath at DPS significant digits from the raw histogram, the
exact binary value of q and the closed-form deformation of each reference
family; nothing here calls qentropy.  The Weierstrass series uses its own
exact rational argument reduction (b^k h mod 2 on integers) and the same
term count as the library's truncation, so the reference is the truncated
series the library promises to within eps, evaluated without float error.

The reference S_q is written with the cancellation-free numerator
-sum p * expm1(-alpha(q) ln p), so it keeps its digits for q next to 1.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

DPS = 30
# Relative tolerance between the library and the reference.  Double
# precision kernels over up to 1e5 terms land within ~1e-14; 1e-12 leaves
# headroom without admitting a wrong formula or a lost digit block.
REL_TOL = 1e-12
# The library's documented crossover: strictly inside |q - 1| < Q_WINDOW it
# returns the Shannon limit instead of S_q.
Q_WINDOW = 1e-9


def _term_count(a: Fraction, eps: Fraction) -> int:
    count = 1
    tail = a / (1 - a)
    while tail > eps:
        tail *= a
        count += 1
    return count


class WeierstrassSeries:
    """W_K(x) = sum_{k<K} a^k cos(pi b^k x) at DPS digits for dyadic x."""

    def __init__(self, a: float, b: int, eps: float) -> None:
        self.a = mpmath.mpf(a)
        self.b = b
        self.terms = _term_count(Fraction(a), Fraction(eps))

    def __call__(self, x: Fraction) -> mpmath.mpf:
        num, den = x.numerator, x.denominator
        mod = 2 * den
        r = num % mod
        total = mpmath.mpf(0)
        ak = mpmath.mpf(1)
        for _ in range(self.terms):
            total += ak * mpmath.cospi(mpmath.mpf(r) / den)
            r = (r * self.b) % mod
            ak *= self.a
        return total


class ReferenceFamily:
    """phi and alpha of one reference family, evaluated exactly in q."""

    def __init__(self, kind: str, k: float = 1.0, gamma: float = 0.5,
                 a: float = 0.5, b: int = 13, eps: float = 1e-12) -> None:
        self.kind = kind
        self.k = mpmath.mpf(k)
        self.gamma = mpmath.mpf(gamma)
        self.series = WeierstrassSeries(a, b, eps) if kind == "weierstrass" else None

    def phi_alpha(self, q: float) -> tuple[mpmath.mpf, mpmath.mpf]:
        h_exact = Fraction(q) - 1
        h = mpmath.mpf(h_exact.numerator) / h_exact.denominator
        if self.kind == "tsallis":
            return h / self.k, -h
        if self.kind == "power":
            s = mpmath.sign(h) * abs(h) ** self.gamma
            return s / self.k, -s
        if self.kind == "weierstrass":
            w0 = self.series(Fraction(0))
            w = self.series(h_exact)
            return h / self.k * (w + 2 * w0) / (3 * w0), -h
        raise ValueError(f"unknown reference family {self.kind!r}")


class ReferenceDistribution:
    """p_i = raw_i / sum(raw) and ln p_i at DPS digits, zeros dropped."""

    def __init__(self, raw: list[float]) -> None:
        with mpmath.workdps(DPS):
            total = mpmath.fsum(mpmath.mpf(v) for v in raw)
            self.p = [mpmath.mpf(v) / total for v in raw if v > 0.0]
            self.logp = [mpmath.log(p) for p in self.p]

    def shannon(self, k: mpmath.mpf) -> mpmath.mpf:
        with mpmath.workdps(DPS):
            return -k * mpmath.fsum(p * lp for p, lp in zip(self.p, self.logp))

    def entropy(self, family: ReferenceFamily, q: float) -> mpmath.mpf:
        """S_q = -sum p expm1(-alpha ln p) / phi, or the Shannon value at q = 1."""
        with mpmath.workdps(DPS):
            if q == 1.0:
                return self.shannon(family.k)
            phi, alpha = family.phi_alpha(q)
            num = -mpmath.fsum(
                p * mpmath.expm1(-alpha * lp) for p, lp in zip(self.p, self.logp))
            return num / phi


def rel_err(value: float, ref: mpmath.mpf) -> float:
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(value) - ref) / abs(ref))
