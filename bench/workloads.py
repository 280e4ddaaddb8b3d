"""Seeded request generators for the four benchmark workloads.

Each workload is an endless sequence of *rounds*.  A round is a short list of
requests with a fixed mix of families, so that every run of every seed sees
the same proportions; the seed only picks the numbers inside each family.
A request is one CLI invocation: its arguments, the documents it reads, the
number of documents it decides and the answer it must produce.

Expected answers come from the construction (closed-form group orders,
divisibility of a known change, maps built to be morphisms or to fail), never
from ``toricdm`` itself.  The only exact arithmetic done here is small
determinants and gcds, in :func:`det` and :func:`chain`.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

WORKLOADS = ("fan-scale", "gerbe-batch", "morphism-mix", "small-docs")


@dataclass
class Request:
    """One CLI invocation and its reference answer.

    ``argv`` holds the arguments after the global flags; an entry ``@name``
    stands for the path of ``files[name]`` once written.  ``expect`` keys:

    - ``exit``: the exit code, or a list of acceptable codes;
    - ``command``: the report's ``command`` field;
    - ``error``: the code an invalid input must be rejected with, as the
      error's code or its location;
    - ``checks``: ``(op, pointer, value)`` triples, ``op`` one of ``eq``
      (equal after integer decoding), ``prod`` (product of an integer list),
      ``in`` (value is one of a list) and ``len`` (list length);
    - ``verify``: the report must carry a ``--verify`` block that agrees;
    - ``invalid``: the input is invalid, so the contract answer is exit 1;
    - ``known_defect``: why the program misses this valid input's answer;
      the request still fails, but the run stays correct (see ``checker``).
    """

    kind: str
    argv: list
    files: dict
    docs: int
    expect: dict
    flags: list = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.expect["command"]


# ---------------------------------------------------------------------------
# Exact helpers (independent of the program)
# ---------------------------------------------------------------------------

def det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _factor(n: int) -> dict:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def chain(orders) -> list:
    """Invariant factors of the sum of Z/r, factors 1 dropped, as a divisor chain."""
    powers = {}
    for r in orders:
        for p, e in _factor(r).items():
            powers.setdefault(p, []).append(p ** e)
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for plist in powers.values():
        plist.sort(reverse=True)
        for i, q in enumerate(plist):
            factors[length - 1 - i] *= q
    return [f for f in factors if f >= 2]


def max_minor_gcd(rays, d: int) -> int:
    """gcd of the d x d minors of the ray matrix: the order of its torsion."""
    g = 0
    for combo in itertools.combinations(range(len(rays)), d):
        g = gcd(g, det([rays[i] for i in combo]))
        if g == 1:
            break
    return abs(g)


def stacky_doc(rank, rays, cones, r=(), b=()) -> dict:
    return {"schema_version": "1", "lattice_rank": rank,
            "rays": [list(v) for v in rays], "cones": [sorted(c) for c in cones],
            "r": list(r), "b": [list(row) for row in b]}


def dump(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def unit(d, i, scale=1):
    return tuple(scale if k == i else 0 for k in range(d))


# ---------------------------------------------------------------------------
# Fan families
# ---------------------------------------------------------------------------

def p1_power(k, mults=None):
    """(P1)^k with rays -m_i e_i, m_i e_i; maximal cones pick one ray per factor."""
    mults = mults or [1] * k
    rays = []
    for i in range(k):
        rays += [unit(k, i, -mults[i]), unit(k, i, mults[i])]
    cones = [[2 * i + s for i, s in enumerate(choice)]
             for choice in itertools.product((0, 1), repeat=k)]
    return rays, cones


def projective(d, weights=None):
    """P^d with rays w_i e_i and -w_0 (1,...,1); cones omit one ray each."""
    weights = weights or [1] * (d + 1)
    rays = [unit(d, i, weights[i + 1]) for i in range(d)]
    rays.append(tuple(-weights[0] for _ in range(d)))
    cones = [[i for i in range(d + 1) if i != skip] for skip in range(d + 1)]
    return rays, cones


def _half(v):
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def rank2_complete(rng, n_rays, bound):
    """A complete rank-2 fan on n_rays seeded primitive rays, cones between
    angular neighbours.  Every gap is below a half turn."""
    while True:
        dirs = set()
        while len(dirs) < n_rays:
            v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if v != (0, 0) and gcd(*v) == 1:
                dirs.add(v)

        def cmp(a, b):
            ha, hb = _half(a), _half(b)
            if ha != hb:
                return ha - hb
            cross = a[0] * b[1] - a[1] * b[0]
            return -1 if cross > 0 else (1 if cross < 0 else 0)

        rays = sorted(dirs, key=functools.cmp_to_key(cmp))
        pairs = [(i, (i + 1) % n_rays) for i in range(n_rays)]
        if all(rays[i][0] * rays[j][1] - rays[i][1] * rays[j][0] > 0 for i, j in pairs):
            return rays, [list(p) for p in pairs]


def triangular_cone(rng, d, mults):
    """d rays m_i e_i + (small entries below the diagonal): one simplicial cone."""
    rays = []
    for i in range(d):
        ray = [0] * d
        ray[i] = mults[i]
        for j in range(i + 1, d):
            ray[j] = rng.randint(-2, 2)
        rays.append(tuple(ray))
    return rays


def all_faces(n):
    return [list(c) for size in range(n + 1) for c in itertools.combinations(range(n), size)]


def build_checks(rays, d):
    """Closed-form build answer for rigid spanning data."""
    return [("eq", "/quotient_group/torus_rank", len(rays) - d),
            ("eq", "/rays_span", True),
            ("eq", "/dm_torus/dimension", d),
            ("eq", "/generic_stabilizer", []),
            ("prod", "/quotient_group/invariant_factors", max_minor_gcd(rays, d))]


# ---------------------------------------------------------------------------
# fan-scale: validation-bound
# ---------------------------------------------------------------------------

def _fan_request(kind, cmd, doc, expect, cone=None):
    argv = [cmd, "@doc"]
    if cone is not None:
        argv += ["--cone", ",".join(str(i) for i in sorted(cone))]
    return Request(kind, argv, {"doc": dump(doc)}, 1, dict(expect, command=cmd))


def _valid_fan_requests(kind, cmd, d, rays, cones, rng):
    doc = stacky_doc(d, rays, cones)
    if cmd == "validate":
        expect = {"exit": 0, "checks": [("eq", "/valid", True)]}
        return _fan_request(kind, cmd, doc, expect)
    if cmd == "build":
        return _fan_request(kind, cmd, doc, {"exit": 0, "checks": build_checks(rays, d)})
    if cmd == "split":
        return _fan_request(kind, cmd, doc, {"exit": 0, "checks": [
            ("eq", "/torus_factor_rank", 0), ("eq", "/data/lattice_rank", d)]})
    cone = rng.choice([c for c in cones if len(c) == d])
    order = abs(det([rays[i] for i in sorted(cone)]))
    return _fan_request(kind, cmd, doc, {"exit": 0, "checks": [
        ("eq", "/stabilizer/order", order)]}, cone=cone)


def _nonspanning(rng):
    """A complete rank-2 fan pushed into Z^3 through two 2-digit vectors: the
    rays span a rank-2 sublattice and split must re-coordinatize them."""
    rays2, cones = rank2_complete(rng, rng.randint(5, 7), 3)
    while True:
        u = [rng.randint(10, 99) * rng.choice((1, -1)) for _ in range(3)]
        v = [rng.randint(10, 99) * rng.choice((1, -1)) for _ in range(3)]
        if any(u[i] * v[j] - u[j] * v[i] for i in range(3) for j in range(i + 1, 3)):
            break
    rays = [tuple(a * u[k] + b * v[k] for k in range(3)) for a, b in rays2]
    return rays, cones


def _overlapping(rng):
    """A complete rank-2 fan plus one cone spanning two neighbouring cones."""
    rays, cones = rank2_complete(rng, rng.randint(8, 12), 6)
    n = len(rays)
    for i in range(n):
        a, b = rays[i], rays[(i + 2) % n]
        if a[0] * b[1] - a[1] * b[0] > 0:
            return rays, cones + [[i, (i + 2) % n]]
    raise RuntimeError("no overlapping cone found")


def _dependent(rng):
    """Rank-3 fan whose one cone has three coplanar rays."""
    u, v = (1, 0, rng.randint(-2, 2)), (0, 1, rng.randint(-2, 2))
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    w = tuple(a * x + b * y for x, y in zip(u, v))
    g = gcd(*w)
    w = tuple(x // g for x in w)
    rays = [u, v, w, (0, 0, 1)]
    return rays, [[0, 1, 2], [0, 3]]


def fan_scale_round(rng, index):
    """Twelve or thirteen requests.  Two mid-heavy fans of equal cost (a
    rank-2 fan on 31 rays and an affine cone in Z^9) make a sixth of the
    requests, so p90 falls inside their plateau and not on the edge between
    two families; every third round adds a heavy fan beyond it: (P1)^5,
    48 rays, or Z^10."""
    commands = ("validate", "build", "split", "stabilizer")
    out = []

    def add(label, d, rays, cones, slot):
        cmd = commands[(index + slot) % 4]
        out.append(_valid_fan_requests(f"{cmd}:{label}", cmd, d, rays, cones, rng))

    for slot, k in enumerate((2, 3, 4)):
        add(f"p1^{k}", k, *p1_power(k, [rng.randint(1, 3) for _ in range(k)]), slot)
    for slot, n in enumerate((12, 20, 31)):
        add(f"rank2-{n}", 2, *rank2_complete(rng, n, 9), slot + 1)
    for slot, d in enumerate((6, 7, 9)):
        rays = triangular_cone(rng, d, [rng.randint(1, 3) for _ in range(d)])
        add(f"affine-{d}", d, rays, all_faces(d), slot + 2)
    d = 2 + index % 3
    add(f"P^{d}", d, *projective(d, [rng.randint(1, 3) for _ in range(d + 1)]), 3)
    if index % 3 == 0:
        # Z^10 first: it has the largest memory footprint, so even a short run
        # measures peak_rss_mb on it.
        heavy = index // 3 % 3
        if heavy == 0:
            rays = triangular_cone(rng, 10, [rng.randint(1, 2) for _ in range(10)])
            add("affine-10", 10, rays, all_faces(10), index // 9)
        elif heavy == 1:
            add("p1^5", 5, *p1_power(5, [rng.randint(1, 2) for _ in range(5)]), index // 9)
        else:
            add("rank2-48", 2, *rank2_complete(rng, 48, 12), index // 9)
    rays, cones = _nonspanning(rng)
    out.append(_fan_request("split:nonspanning", "split", stacky_doc(3, rays, cones), {
        "exit": 0, "checks": [("eq", "/torus_factor_rank", 1),
                              ("eq", "/data/lattice_rank", 2)]}))
    # invalid fans: overlapping cones, or a dependent cone
    if index % 2 == 0:
        rays, cones = _overlapping(rng)
        code = "bad_intersection"
        doc = stacky_doc(2, rays, cones)
    else:
        rays, cones = _dependent(rng)
        code = "dependent_cone"
        doc = stacky_doc(3, rays, cones)
    if index % 4 < 2:
        out.append(_fan_request(f"validate:invalid-{code}", "validate", doc, {
            "exit": 1, "invalid": True, "checks": [("eq", "/valid", False),
                                                   ("eq", "/violations/0/code", code)]}))
    else:
        out.append(_fan_request(f"build:invalid-{code}", "build", doc, {
            "exit": 1, "invalid": True, "error": code}))
    return out


def fan_scale_warmup(rng):
    rays, cones = p1_power(1, [5])
    return [_valid_fan_requests(f"warmup:{cmd}", cmd, 1, rays, cones, rng)
            for cmd in ("validate", "build", "split", "stabilizer")]


# ---------------------------------------------------------------------------
# gerbe-batch: Smith-form-bound
# ---------------------------------------------------------------------------

SMALL_FANS = {
    "P^2": (2, *projective(2)),
    "P^3": (3, *projective(3)),
    "(P1)^2": (2, *p1_power(2)),
}


def pic_class(fan_name, row):
    """Class of a divisor in Pic, which is Z (P^d) or Z^2 ((P1)^2) here."""
    if fan_name == "(P1)^2":
        return (row[0] + row[1], row[2] + row[3])
    return (sum(row),)


def torsion_order(betas, r):
    """Torsion order of (Pic + Z^R) / <(beta_i, r_i e_i)>, with Pic free of
    rank p <= 2: the gcd of the maximal minors of [B | diag(r)]."""
    big_r, p = len(r), len(betas[0])
    total = prod(r)
    g = total
    for j in range(big_r):
        rest = total // r[j]
        for c in range(p):
            g = gcd(g, betas[j][c] * rest)
    if p == 2:
        for j, k in itertools.combinations(range(big_r), 2):
            minor = betas[j][0] * betas[k][1] - betas[j][1] * betas[k][0]
            g = gcd(g, minor * (total // (r[j] * r[k])))
    return g


def _roots(rng, count, top=400):
    return [rng.randint(2, top) for _ in range(count)]


def _twists(rng, count, n, span=40):
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(count)]


def _gerbe_data(rng, fan_name, count):
    d, rays, cones = SMALL_FANS[fan_name]
    r = _roots(rng, count)
    b = _twists(rng, count, len(rays))
    return d, rays, cones, r, b


def _gerbe_build(rng, fan_name, count):
    d, rays, cones, r, b = _gerbe_data(rng, fan_name, count)
    betas = [pic_class(fan_name, row) for row in b]
    checks = [("eq", "/quotient_group/torus_rank", len(rays) - d),
              ("prod", "/quotient_group/invariant_factors", torsion_order(betas, r)),
              ("eq", "/generic_stabilizer", chain(r)),
              ("eq", "/dm_torus/band", chain(r)),
              ("eq", "/rays_span", True)]
    return Request(f"build:{fan_name}-R{count}", ["build", "@doc"],
                   {"doc": dump(stacky_doc(d, rays, cones, r, b))}, 1,
                   {"command": "build", "exit": 0, "checks": checks})


def _gerbe_canonicalize(rng, fan_name, count):
    d, rays, cones, r, b = _gerbe_data(rng, fan_name, count)
    c = chain(r)
    checks = [("eq", "/chain", c), ("eq", "/data/r", c),
              ("len", "/data/b", len(c)), ("len", "/certificate", len(c))]
    return Request(f"canonicalize:{fan_name}-R{count}", ["canonicalize", "@doc"],
                   {"doc": dump(stacky_doc(d, rays, cones, r, b))}, 1,
                   {"command": "canonicalize", "exit": 0, "checks": checks})


def _gerbe_pic(rng, fan_name, count):
    d, rays, cones, r, b = _gerbe_data(rng, fan_name, count)
    checks = [("eq", "/picard/free_rank", len(rays) - d),
              ("eq", "/picard/invariant_factors", []),
              ("eq", "/gerbe_classes", b)]
    return Request(f"pic:{fan_name}-R{count}", ["pic", "@doc"],
                   {"doc": dump(stacky_doc(d, rays, cones, r, b))}, 1,
                   {"command": "pic", "exit": 0, "checks": checks})


def _gerbe_stabilizer(rng, fan_name, count, zero_cone, verify):
    d, rays, cones, r, b = _gerbe_data(rng, fan_name, count)
    cone = [] if zero_cone else rng.choice(cones)
    order = prod(r) * (1 if zero_cone else abs(det([rays[i] for i in cone])))
    req = Request(f"stabilizer:{fan_name}-R{count}{'-zero' if zero_cone else ''}",
                  ["stabilizer", "@doc", "--cone", ",".join(map(str, cone))],
                  {"doc": dump(stacky_doc(d, rays, cones, r, b))}, 1,
                  {"command": "stabilizer", "exit": 0, "verify": verify,
                   "checks": [("eq", "/stabilizer/order", order)]})
    if verify:
        req.flags = ["--verify"]
    return req


def _gerbe_classify(rng, fan_name, count, others, verify):
    """A base document plus others over the same fan with known verdicts.

    An isomorphic partner adds r_i w_i plus relation columns to each b row; a
    non-isomorphic one also adds t e_0 to one row, with t not divisible by
    that row's root order, so its class changes by a non-divisible amount.
    """
    d, rays, cones, r, b = _gerbe_data(rng, fan_name, count)
    n = len(rays)
    files = {"base": dump(stacky_doc(d, rays, cones, r, b))}
    verdicts = []
    for k in range(others):
        new_b = []
        for i, row in enumerate(b):
            w = [rng.randint(-3, 3) for _ in range(n)]
            c = [rng.randint(-3, 3) for _ in range(d)]
            new_b.append([row[x] + r[i] * w[x] + sum(c[l] * rays[x][l] for l in range(d))
                          for x in range(n)])
        iso = (k + rng.randint(0, 1)) % 2 == 0
        if not iso:
            i0 = rng.randrange(count)
            t = rng.randint(1, r[i0] - 1)
            new_b[i0][0] += t
        verdicts.append(iso)
        files[f"other{k}"] = dump(stacky_doc(d, rays, cones, r, new_b))
    checks = [("eq", f"/results/{k}/isomorphic", v) for k, v in enumerate(verdicts)]
    checks.append(("eq", "/isomorphic", all(verdicts)))
    req = Request(f"classify:{fan_name}-R{count}x{others + 1}",
                  ["classify", "@base"] + [f"@other{k}" for k in range(others)],
                  files, others + 1,
                  {"command": "classify", "exit": 0 if all(verdicts) else 2,
                   "verify": verify, "checks": checks})
    if verify:
        req.flags = ["--verify"]
    return req


SPLIT_DEFECT = ("the banded verdict identifies Z/2 + Z/3 with Z/6 through the Smith "
                "transform (a, b) -> 3a + 2b, not the Chinese-remainder map 3a + 4b, so "
                "it answers 'not isomorphic' when the twist class is not divisible by 3")


def _gerbe_split_pair(rng, fan_name, residue):
    """Z/6 against Z/2 + Z/3: r = (6) with row beta against r = (2, 3) with
    rows (beta, beta).  The sixth root of a line bundle is the fibre product
    of its square and cube roots, with bands matched by the Chinese-remainder
    map, so the pair is isomorphic for every beta.  Every component of the
    class of beta in Pic is ``residue`` modulo 3; the rounds cycle through
    the three residues."""
    d, rays, cones = SMALL_FANS[fan_name]
    beta = [rng.randint(-9, 9) for _ in rays]
    for first in ((0, 2) if fan_name == "(P1)^2" else (0,)):
        cls = pic_class(fan_name, beta)[first // 2]
        beta[first] += (residue - cls) % 3
    files = {"six": dump(stacky_doc(d, rays, cones, [6], [beta])),
             "split": dump(stacky_doc(d, rays, cones, [2, 3], [beta, beta]))}
    expect = {"command": "classify", "exit": 0,
              "checks": [("eq", "/results/0/isomorphic", True), ("eq", "/isomorphic", True)]}
    if residue:
        expect["known_defect"] = SPLIT_DEFECT
    return Request(f"classify:{fan_name}-split6-class{residue}mod3",
                   ["classify", "@six", "@split"], files, 2, expect)


def gerbe_batch_round(rng, index):
    """Eleven requests.  Root counts are fixed per slot (8 to 32 across the
    round) so that output sizes do not drift with the seed.  The two builds
    with 27 roots each are the slowest requests and a sixth of them, so p90
    falls inside their plateau."""
    fans = list(SMALL_FANS)

    def fan(slot):
        return fans[(index + slot) % 3]

    return [
        _gerbe_build(rng, fan(0), 27),
        _gerbe_build(rng, fan(1), 27),
        _gerbe_canonicalize(rng, fan(2), 32),
        _gerbe_canonicalize(rng, fan(0), 16),
        _gerbe_pic(rng, fan(1), 20),
        _gerbe_stabilizer(rng, fan(2), 24, zero_cone=False, verify=False),
        _gerbe_stabilizer(rng, fan(0), 12, zero_cone=True, verify=True),
        _gerbe_classify(rng, fan(1), 14, 3, verify=False),
        _gerbe_classify(rng, fan(2), 12, 4, verify=False),
        _gerbe_classify(rng, fan(0), 10, 2, verify=True),
        _gerbe_split_pair(rng, fan(index % 3), index // 3 % 3),
    ]


def gerbe_batch_warmup(rng):
    d, rays, cones = SMALL_FANS["P^2"]
    doc = dump(stacky_doc(d, rays, cones, [3], [[1, 0, 0]]))
    out = []
    for cmd in ("build", "canonicalize", "pic", "stabilizer"):
        argv = [cmd, "@doc"] + (["--cone", "0,1"] if cmd == "stabilizer" else [])
        out.append(Request(f"warmup:{cmd}", argv, {"doc": doc}, 1,
                           {"command": cmd, "exit": 0, "checks": []}))
    out.append(Request("warmup:classify", ["classify", "@doc", "@doc"], {"doc": doc}, 2,
                       {"command": "classify", "exit": 0, "checks": []}))
    return out


# ---------------------------------------------------------------------------
# morphism-mix: condition-B-bound
# ---------------------------------------------------------------------------

def _frac(rng):
    return Fraction(rng.choice((1, -1, 2, -2, 3, 5, 7)), rng.choice((1, 1, 2, 3)))


def _terms(poly):
    return [{"coefficient": str(c), "exponents": list(e)} for c, e in poly]


def morphism_doc(source, target, polys):
    """A morphism document with rigid target, so no twist classes."""
    return {"schema_version": "1", "source": source, "target": target,
            "polynomials": [_terms(p) for p in polys], "chi": []}


def _mono(n, var, power, coeff):
    e = [0] * n
    e[var] = power
    return [(coeff, tuple(e))]


def _p1_self_monomial(rng, k, m, fail):
    """Self-map of (P1)^k sending factor i to factor pi(i) by m-th powers.

    With ``fail`` one factor's two coordinates both become the same monomial,
    so the whole factor vanishes on a cone: refuted."""
    rays, cones = p1_power(k)
    doc = stacky_doc(k, rays, cones)
    pi = list(range(k))
    rng.shuffle(pi)
    n = 2 * k
    polys = [None] * n
    for i in range(k):
        flip = rng.randint(0, 1)
        polys[2 * i] = _mono(n, 2 * pi[i] + flip, m, _frac(rng))
        polys[2 * i + 1] = _mono(n, 2 * pi[i] + 1 - flip, m, _frac(rng))
    if fail:
        i = rng.randrange(k)
        polys[2 * i + 1] = _mono(n, polys[2 * i][0][1].index(m), m, _frac(rng))
    return doc, doc, polys


def _pd_self_monomial(rng, d, m, fail):
    """Self-map of P^d by x_rho -> c x_sigma(rho)^m; refuted when sigma misses a ray."""
    rays, cones = projective(d)
    doc = stacky_doc(d, rays, cones)
    sigma = list(range(d + 1))
    rng.shuffle(sigma)
    if fail:
        j = rng.randrange(d + 1)
        sigma[j] = sigma[(j + 1) % (d + 1)]
    polys = [_mono(d + 1, sigma[rho], m, _frac(rng)) for rho in range(d + 1)]
    return doc, doc, polys


def _p1_binomial(rng, k, m, fail):
    """(P1)^k self-map with two-term coordinates.

    True map: factor i goes to (a x_-^m, b x_+^m + c x_-^m), which vanishes
    only where x_- = x_+ = 0.  Failing map: one factor goes to
    (x_- - s x_+) (x_-^(m-1), x_+^(m-1)), which vanishes at x_- = s x_+; s is
    one of the sample values, so a rational witness exists."""
    rays, cones = p1_power(k)
    doc = stacky_doc(k, rays, cones)
    n = 2 * k
    polys = []
    for i in range(k):
        lo, hi = 2 * i, 2 * i + 1
        e_lo = tuple(m if v == lo else 0 for v in range(n))
        e_hi = tuple(m if v == hi else 0 for v in range(n))
        polys.append([(_frac(rng), e_lo)])
        polys.append([(_frac(rng), e_hi), (_frac(rng), e_lo)])
    if fail:
        i = rng.randrange(k)
        lo, hi = 2 * i, 2 * i + 1
        s = Fraction(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 1, 2)))

        def exps(a, b):
            return tuple(a if v == lo else (b if v == hi else 0) for v in range(n))

        polys[2 * i] = [(Fraction(1), exps(m, 0)), (-s, exps(m - 1, 1))]
        polys[2 * i + 1] = [(Fraction(1), exps(1, m - 1)), (-s, exps(0, m))]
    return doc, doc, polys


def _check_request(kind, source, target, polys, status):
    doc = morphism_doc(source, target, polys)
    allowed = {"proven": [0], "refuted": [2], "true": [0, 3], "false": [2, 3]}[status]
    states = {"proven": ["proven"], "refuted": ["refuted"],
              "true": ["proven", "unknown"], "false": ["refuted", "unknown"]}[status]
    return Request(kind, ["morphism", "check", "@doc"], {"doc": dump(doc)}, 1,
                   {"command": "morphism", "exit": allowed, "checks": [
                       ("eq", "/condition_a", True),
                       ("in", "/condition_b/status", states)]})


def _iso_request(rng, k, same):
    """Two tuples on (P1)^k differing by scalars; the action of the torus
    scales both coordinates of a factor by the same ratio, so the pair is
    isomorphic exactly when each factor's two ratios agree."""
    source, target, polys = _p1_binomial(rng, k, rng.randint(1, 3), fail=False)
    scaled = []
    ratios = []
    for i in range(k):
        lam = _frac(rng)
        mu = lam if same or i else lam * 2
        ratios += [lam, mu]
    for poly, ratio in zip(polys, ratios):
        scaled.append([(c * ratio, e) for c, e in poly])
    files = {"first": dump(morphism_doc(source, target, polys)),
             "second": dump(morphism_doc(source, target, scaled))}
    status = "yes" if same else "no"
    return Request(f"morphism-iso:p1^{k}-{status}", ["morphism", "iso", "@first", "@second"],
                   files, 2, {"command": "morphism", "exit": 0 if same else 2,
                              "checks": [("eq", "/iso/status", status)]})


def morphism_mix_round(rng, index):
    """Twelve requests.  The two two-term maps on (P1)^2 exhaust the sample
    budget and sit around p90; one heavier check per round lies beyond it."""
    out = []
    for k in (2, 3):
        k += index % 2
        src, tgt, polys = _p1_self_monomial(rng, k, rng.randint(1, 4), fail=False)
        out.append(_check_request(f"check:p1^{k}-monomial", src, tgt, polys, "proven"))
    d = 2 + index % 3
    src, tgt, polys = _pd_self_monomial(rng, d, rng.randint(1, 4), fail=False)
    out.append(_check_request(f"check:P^{d}-monomial", src, tgt, polys, "proven"))
    src, tgt, polys = _p1_self_monomial(rng, 2 + index % 3, rng.randint(1, 3), fail=True)
    out.append(_check_request("check:p1-monomial-refuted", src, tgt, polys, "refuted"))
    src, tgt, polys = _pd_self_monomial(rng, 2 + (index + 1) % 3, rng.randint(1, 3), fail=True)
    out.append(_check_request("check:P^d-monomial-refuted", src, tgt, polys, "refuted"))
    for k in (1, 2, 2):
        src, tgt, polys = _p1_binomial(rng, k, rng.randint(1, 3), fail=False)
        out.append(_check_request(f"check:p1^{k}-binomial-true", src, tgt, polys, "true"))
    if index % 2 == 0:
        src, tgt, polys = _p1_binomial(rng, 3, 2, fail=False)
        out.append(_check_request("check:p1^3-binomial-true", src, tgt, polys, "true"))
    else:
        src, tgt, polys = _p1_self_monomial(rng, 5, 2, fail=False)
        out.append(_check_request("check:p1^5-monomial", src, tgt, polys, "proven"))
    src, tgt, polys = _p1_binomial(rng, 1 + index % 2, rng.randint(2, 3), fail=True)
    out.append(_check_request("check:p1-binomial-false", src, tgt, polys, "false"))
    out.append(_iso_request(rng, 1 + index % 3, same=True))
    out.append(_iso_request(rng, 1 + (index + 1) % 3, same=False))
    return out


def morphism_mix_warmup(rng):
    rays, cones = p1_power(1)
    doc = stacky_doc(1, rays, cones)
    polys = [_mono(2, 0, 7, Fraction(1)), _mono(2, 1, 7, Fraction(1))]
    text = dump(morphism_doc(doc, doc, polys))
    return [Request("warmup:check", ["morphism", "check", "@doc"], {"doc": text}, 1,
                    {"command": "morphism", "exit": 0, "checks": []}),
            Request("warmup:iso", ["morphism", "iso", "@doc", "@doc"], {"doc": text}, 2,
                    {"command": "morphism", "exit": 0, "checks": []})]


# ---------------------------------------------------------------------------
# small-docs: start-up-bound
# ---------------------------------------------------------------------------

def _cyclic_quotient(rng):
    a = rng.randint(1, 12)
    return a, stacky_doc(1, [(a,)], [[0]])


def _weighted_line(rng):
    p, q = rng.randint(1, 6), rng.randint(1, 6)
    while p == q == 1:
        q = rng.randint(2, 6)
    r = rng.randint(2, 5)
    b = [[rng.randint(-4, 4), rng.randint(-4, 4)]]
    return p, q, r, b, stacky_doc(1, [(-p,), (q,)], [[0], [1]], [r], b)


def _p1_root(k, r=2):
    return stacky_doc(1, [(-1,), (1,)], [[0], [1]], [r], [[0, k]])


def _line_map(d, coeffs=(1, 1)):
    p1 = stacky_doc(1, [(-1,), (1,)], [[0], [1]])
    polys = [[(Fraction(coeffs[0]), (d, 0))], [(Fraction(coeffs[1]), (0, d))]]
    return morphism_doc(p1, p1, polys)


def _small_valid(rng, kind):
    if kind == "validate":
        a, doc = _cyclic_quotient(rng)
        return Request("validate:cyclic", ["validate", "@doc"], {"doc": dump(doc)}, 1,
                       {"command": "validate", "exit": 0, "checks": [("eq", "/valid", True)]})
    if kind == "build":
        a, doc = _cyclic_quotient(rng)
        return Request("build:cyclic", ["build", "@doc"], {"doc": dump(doc)}, 1, {
            "command": "build", "exit": 0, "checks": [
                ("eq", "/quotient_group/torus_rank", 0),
                ("eq", "/quotient_group/invariant_factors", [a] if a > 1 else [])]})
    if kind == "pic":
        p, q, r, b, doc = _weighted_line(rng)
        g = gcd(p, q)
        return Request("pic:weighted-line", ["pic", "@doc"], {"doc": dump(doc)}, 1, {
            "command": "pic", "exit": 0, "checks": [
                ("eq", "/picard/free_rank", 1),
                ("eq", "/picard/invariant_factors", [g] if g > 1 else []),
                ("eq", "/gerbe_classes", b)]})
    if kind == "stabilizer":
        p, q, r, b, doc = _weighted_line(rng)
        side = rng.randint(0, 1)
        return Request("stabilizer:weighted-line",
                       ["stabilizer", "@doc", "--cone", str(side)], {"doc": dump(doc)}, 1, {
                           "command": "stabilizer", "exit": 0, "checks": [
                               ("eq", "/stabilizer/order", (p, q)[side] * r)]})
    if kind == "rigidify":
        p, q, r, b, doc = _weighted_line(rng)
        return Request("rigidify:weighted-line", ["rigidify", "@doc"], {"doc": dump(doc)}, 1, {
            "command": "rigidify", "exit": 0, "checks": [
                ("eq", "/data/r", []), ("eq", "/data/rays", [[-p], [q]])]})
    if kind == "split":
        x, y = rng.randint(1, 9), rng.randint(-9, 9)
        doc = stacky_doc(2, [(x, y)], [[0]])
        return Request("split:line-in-plane", ["split", "@doc"], {"doc": dump(doc)}, 1, {
            "command": "split", "exit": 0, "checks": [
                ("eq", "/torus_factor_rank", 1), ("eq", "/data/lattice_rank", 1)]})
    if kind == "canonicalize":
        r = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        doc = stacky_doc(1, [(-1,), (1,)], [[0], [1]], r,
                         [[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in r])
        return Request("canonicalize:p1", ["canonicalize", "@doc"], {"doc": dump(doc)}, 1, {
            "command": "canonicalize", "exit": 0, "checks": [("eq", "/chain", chain(r))]})
    if kind == "classify":
        k1, k2 = rng.randint(-6, 6), rng.randint(-6, 6)
        iso = (k1 - k2) % 2 == 0
        return Request("classify:p1-parity", ["classify", "@a", "@b"],
                       {"a": dump(_p1_root(k1)), "b": dump(_p1_root(k2))}, 2, {
                           "command": "classify", "exit": 0 if iso else 2,
                           "checks": [("eq", "/isomorphic", iso)]})
    if kind == "morphism-check":
        d = rng.randint(1, 5)
        return Request("morphism-check:line-map", ["morphism", "check", "@doc"],
                       {"doc": dump(_line_map(d))}, 1, {
                           "command": "morphism", "exit": 0, "checks": [
                               ("eq", "/condition_a", True),
                               ("eq", "/condition_b/status", "proven")]})
    d = rng.randint(1, 5)
    same = rng.randint(0, 1) == 1
    lam = rng.choice((-1, 2, 3))
    second = _line_map(d, (lam, lam) if same else (lam, 1))
    return Request("morphism-iso:line-map", ["morphism", "iso", "@a", "@b"],
                   {"a": dump(_line_map(d)), "b": dump(second)}, 2, {
                       "command": "morphism", "exit": 0 if same else 2,
                       "checks": [("eq", "/iso/status", "yes" if same else "no")]})


SMALL_KINDS = ("validate", "build", "pic", "stabilizer", "rigidify", "split",
               "canonicalize", "classify", "morphism-check", "morphism-iso")


def _small_invalid(rng, kind):
    doc = stacky_doc(1, [(-1,), (1,)], [[0], [1]])
    if kind == "bad-json":
        text = dump(doc)[:-rng.randint(1, 5)]
        return Request("invalid:bad-json", ["build", "@doc"], {"doc": text}, 1, {
            "command": "build", "exit": 1, "invalid": True, "error": "document_error"})
    if kind == "schema":
        bad = dict(doc, rays=rng.choice(("x", [["1", "two"]], 7)))
        return Request("invalid:schema", ["pic", "@doc"], {"doc": dump(bad)}, 1, {
            "command": "pic", "exit": 1, "invalid": True, "error": "document_error"})
    if kind == "dependent-cone":
        a = rng.randint(1, 3)
        bad = stacky_doc(2, [(1, 0), (0, 1), (1, a)], [[0, 1, 2]])
        return Request("invalid:dependent-cone", ["stabilizer", "@doc", "--cone", "0"],
                       {"doc": dump(bad)}, 1, {
                           "command": "stabilizer", "exit": 1, "invalid": True,
                           "error": "dependent_cone"})
    if kind == "unknown-ray":
        bad = dict(doc, cones=[[0], [rng.randint(2, 9)]])
        return Request("invalid:unknown-ray", ["canonicalize", "@doc"], {"doc": dump(bad)}, 1, {
            "command": "canonicalize", "exit": 1, "invalid": True, "error": "document_error"})
    if kind == "usage":
        argv = rng.choice((["stabilizer"], ["frobnicate", "@doc"], ["build", "@doc", "--cone"]))
        return Request("invalid:usage", argv, {"doc": dump(doc)}, 0, {
            "command": argv[0], "exit": 1, "invalid": True, "error": None})
    # morphism document whose target has two rays of one direction
    p1 = stacky_doc(1, [(-1,), (1,)], [[0], [1]])
    m = rng.randint(2, 3)
    target = stacky_doc(1, [(1,), (m,)], [[0], [1]])
    polys = [[(Fraction(1), (1, 0))], [(Fraction(1), (0, 1))]]
    return Request("invalid:morphism-target", ["morphism", "check", "@doc"],
                   {"doc": dump(morphism_doc(p1, target, polys))}, 1, {
                       "command": "morphism", "exit": 1, "invalid": True,
                       "error": "duplicate_ray_direction"})


def small_docs_round(rng, index):
    valid = [SMALL_KINDS[(8 * index + j) % len(SMALL_KINDS)] for j in range(8)]
    out = [_small_valid(rng, kind) for kind in valid]
    out.append(_small_invalid(rng, ("usage", "morphism-target")[index % 2]))
    out.append(_small_invalid(rng, ("bad-json", "schema", "dependent-cone",
                                    "unknown-ray")[index % 4]))
    rng.shuffle(out)
    return out


def small_docs_warmup(rng):
    """Every subcommand once, on sizes the timed rounds never draw."""
    cyclic = dump(stacky_doc(1, [(13,)], [[0]]))
    line = dump(stacky_doc(1, [(-7,), (9,)], [[0], [1]], [7], [[5, 5]]))
    plane = dump(stacky_doc(2, [(11, 13)], [[0]]))
    roots = dump(stacky_doc(1, [(-1,), (1,)], [[0], [1]], [13, 14], [[1, 2], [3, 4]]))
    p1_r3 = dump(_p1_root(1, r=3))
    line_map = dump(_line_map(6))
    cases = [("validate", cyclic), ("build", cyclic), ("pic", line), ("rigidify", line),
             ("split", plane), ("canonicalize", roots)]
    out = [Request(f"warmup:{cmd}", [cmd, "@doc"], {"doc": doc}, 1,
                   {"command": cmd, "exit": 0, "checks": []}) for cmd, doc in cases]
    out.append(Request("warmup:stabilizer", ["stabilizer", "@doc", "--cone", "1"],
                       {"doc": line}, 1, {"command": "stabilizer", "exit": 0, "checks": []}))
    out.append(Request("warmup:classify", ["classify", "@doc", "@doc"], {"doc": p1_r3}, 2,
                       {"command": "classify", "exit": 0, "checks": []}))
    out.append(Request("warmup:morphism", ["morphism", "iso", "@doc", "@doc"], {"doc": line_map},
                       2, {"command": "morphism", "exit": 0, "checks": []}))
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

_ROUND = {"fan-scale": fan_scale_round, "gerbe-batch": gerbe_batch_round,
          "morphism-mix": morphism_mix_round, "small-docs": small_docs_round}
_WARMUP = {"fan-scale": fan_scale_warmup, "gerbe-batch": gerbe_batch_warmup,
           "morphism-mix": morphism_mix_warmup, "small-docs": small_docs_warmup}


def rounds(workload: str, seed: int):
    """The workload's timed requests, round by round, forever."""
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield _ROUND[workload](rng, index)
        index += 1


def warmup(workload: str, seed: int, rep: int) -> list:
    """One request per subcommand the workload uses, from a separate stream.

    Warm-up documents use sizes and parameters the timed rounds never draw,
    so the warm-up never sees a timed input."""
    return _WARMUP[workload](random.Random(f"{workload}:{seed}:warmup:{rep}"))
