"""The verification battery: every reproducible number in one deterministic,
machine-readable report.

Each check has a stable id, a description of the fact it verifies, the
expected and computed values, and a pass/fail/skipped status.  The report is
byte-deterministic for a fixed (seed, flags); wall-clock timings are
attached only on request.  Each check is a plain function of its arguments
that returns (expected, computed, ok); `_Battery.run` calls it and records
the result.  Failures never raise: they are data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import fixtures, linalg
from .classify import classify, normal_form_ideal
from .flat_limit import flatness_probe, limit_ideal
from .groebner import buchberger, syzygies
from .hilbert import (
    double_structure_hilbert_count,
    hilbert_function,
    hilbert_series,
    pair_hilbert_polynomial,
)
from .ideals import Ideal, random_linear_change
from .picard import (
    HN,
    WN,
    canonical_class,
    chamber_of,
    dimension_table,
    hn_lattice,
    is_fano,
    pairing,
    solve_relations,
    wn_lattice,
)
from .rings import LEX, PolyRing
from .tangent import _explicit_vectors, hom_degree_zero

SCHEMA_VERSION = 1

MAX_N = 8             # end of the paper's range; --deep runs to it
CLASSIFY_SEEDS = 10   # random coordinate changes per (type, n)


@dataclass(frozen=True)
class CheckResult:
    id: str
    description: str
    expected: object
    computed: object
    status: str          # pass | fail | skipped
    runtime_ms: float

    def to_json(self, timings=False):
        out = {
            "id": self.id,
            "description": self.description,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
        }
        if timings:
            out["runtime_ms"] = round(self.runtime_ms, 3)
        return out


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    n_min: int
    n_max: int
    deep: bool
    checks: tuple

    @property
    def summary(self):
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            counts[c.status] += 1
        counts["total"] = len(self.checks)
        return counts

    def exit_code(self):
        return 1 if self.summary["fail"] else 0

    def to_json(self, timings=False):
        return {
            "schema": SCHEMA_VERSION,
            "seed": self.seed,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "deep": self.deep,
            "checks": [c.to_json(timings=timings) for c in self.checks],
            "summary": self.summary,
        }

    def to_text(self):
        lines = []
        for c in self.checks:
            lines.append(f"{c.status.upper():7s} {c.id}  {c.description}")
            if c.status == "fail":
                lines.append(f"        expected: {c.expected}")
                lines.append(f"        computed: {c.computed}")
        s = self.summary
        lines.append(
            f"{s['pass']} passed, {s['fail']} failed, {s['skipped']} skipped "
            f"({s['total']} checks)"
        )
        return "\n".join(lines)


class _Battery:
    def __init__(self, seed):
        self.seed = seed
        self.results = []

    def run(self, check_id, description, check, *args):
        """Record check(*args), which returns (expected, computed, ok)."""
        t0 = time.perf_counter()
        try:
            expected, computed, ok = check(*args)
            status = "pass" if ok else "fail"
        except Exception as exc:  # a crash is a failing check, not a crash
            expected, computed, status = None, f"{type(exc).__name__}: {exc}", "fail"
        self.results.append(
            CheckResult(
                check_id, description, expected, computed, status,
                (time.perf_counter() - t0) * 1000.0,
            )
        )

    def skip(self, check_id, description, reason):
        self.results.append(CheckResult(check_id, description, None, reason, "skipped", 0.0))


TYPE_LABELS = ("I", "II", "III", "IV")

_EXPECTED_TANGENT = {
    "I": lambda n: 4 * n - 4,
    "II": lambda n: 4 * n - 4,
    "III": lambda n: 8 * n - 12,
    "IV": lambda n: 8 * n - 12,
}

_LIMIT_FAMILIES = (
    ("embedded", fixtures.family_embedded_limit, "III"),
    ("double", fixtures.family_double_limit, "II"),
    ("quadric_union", fixtures.family_quadric_union_limit, "III"),
    ("substitution", fixtures.family_substitution_limit, "IV"),
)

# probe divisors for the rank-2 chamber table: (coords, chamber, base locus,
# model for n >= 4, model for n == 3); the rank-3 table starts at n = 4 and
# has one model column
_HN_PROBES = (
    ((1, 1), "[F,M]", (), "H_n", "H_n"),
    ((2, 3), "[F,M]", (), "H_n", "H_n"),
    ((1, 0), "[F,M]", (), "Sym^2 G(n-2,n)", "Sym^2 G(n-2,n)"),
    ((0, 1), "[F,M]", (), "Theta_n", "Theta_n"),
    ((3, 0), "[F,M]", (), "Sym^2 G(n-2,n)", "Sym^2 G(n-2,n)"),
    ((3, -2), "(M,N]", ("II", "IV"), "Sym^2 G(n-2,n)", "Sym^2 G(n-2,n)"),
    ((5, -4), "(M,N]", ("II", "IV"), "Sym^2 G(n-2,n)", "Sym^2 G(n-2,n)"),
    ((2, -2), "(M,N]", ("II", "IV"), None, None),
    ((-1, 3), "[E,F)", ("III", "IV"), "Psi_n (flip)", "Psi_3 = G(3,5)"),
    ((-2, 5), "[E,F)", ("III", "IV"), "Psi_n (flip)", "Psi_3 = G(3,5)"),
    ((-1, 2), "[E,F)", ("III", "IV"), "G(3,n)", None),
    ((-3, 6), "[E,F)", ("III", "IV"), "G(3,n)", None),
)

_WN_PROBES = (
    ((1, 1, 1), "<R',F',M'>", (), "W_n"),
    ((1, 1, 0), "<R',F',M'>", (), "Bl_Delta Sym^2 G(1,n)"),
    ((0, 1, 1), "<R',F',M'>", (), "Psi_n"),
    ((1, 0, 1), "<R',F',M'>", (), "relative Chow of line pairs over G(3,n)"),
    ((0, 1, 0), "<R',F',M'>", (), "Theta_n"),
    ((1, 0, 0), "<R',F',M'>", (), "Sym^2 G(1,n)"),
    ((0, 0, 1), "<R',F',M'>", (), "G(3,n)"),
    ((-1, 2, 0), "<E',F',R'> u <E',F',M'>", ("E'",), None),
    ((0, 2, -1), "<E',F',R'> u <E',F',M'>", ("E'",), None),
    ((3, -2, 1), "<R',M',N'>", ("N'",), None),
    ((1, 0, -1), "<E',M',N'>", ("E'", "N'"), None),
    ((3, -2, -1), "<E',M',N'>", ("E'", "N'"), None),
)


def _double_structure_ideal(n, k):
    ring = PolyRing(n + 1)
    x0, x1, x2, x3 = (ring.x(i) for i in range(4))
    return Ideal(ring, [x0**2, x0 * x1, x1**2, x0 * x3**k - x1 * x2**k])


def _check_hilbert_normal_form(n, label):
    hp = hilbert_series(normal_form_ideal(n, label)).hilbert_polynomial
    want = pair_hilbert_polynomial(n)
    return str(want), str(hp), hp == want


def _check_double_structure(n, k):
    ideal = _double_structure_ideal(n, k)
    data = hilbert_series(ideal)
    expected = {}
    computed = {}
    for m in range(k + 1, k + 6):
        expected[f"m={m}"] = double_structure_hilbert_count(n, k, m)
        computed[f"m={m}"] = hilbert_function(ideal, m)
    expected["matches_reference_polynomial"] = (k == 1)
    computed["matches_reference_polynomial"] = (
        data.hilbert_polynomial == pair_hilbert_polynomial(n)
    )
    return expected, computed, expected == computed


def _check_limit(family, expected_label, n, seed):
    fam = family(n)
    limit = limit_ideal(fam)
    if family is fixtures.family_substitution_limit:
        # the substitution family lands on the presentation representative
        # of the planar-double type, not the normal form itself
        want = Ideal(PolyRing(n + 1), fixtures.lambda_generators(n))
    else:
        want = normal_form_ideal(n, expected_label)
    probe = flatness_probe(fam)
    label = classify(limit, seed=seed).label
    expected = {
        "limit": [str(g) for g in want.canonical_generators()],
        "flat": True,
        "label": expected_label,
    }
    computed = {
        "limit": [str(g) for g in limit.generators],
        "flat": probe.flat,
        "label": label,
    }
    ok = limit == want and probe.flat and label == expected_label
    return expected, computed, ok


def _check_tangent(n, label):
    want = _EXPECTED_TANGENT[label](n)
    got = hom_degree_zero(normal_form_ideal(n, label)).dimension
    return want, got, want == got


def _check_conic_plane():
    got = hom_degree_zero(fixtures.conic_plane_ideal()).dimension
    return 7, got, got == 7


def _check_conic_space():
    got = hom_degree_zero(fixtures.conic_space_ideal()).dimension
    # reported against the sheaf-theoretic count without asserting either
    computed = {"module_hom_dimension": got, "agrees_with_sheaf_count": got == 11}
    return {"sheaf_count_reference": 11}, computed, True


def _check_explicit_elements(n):
    I = Ideal(PolyRing(n + 1), fixtures.lambda_generators(n))
    trivial = fixtures.tangent_trivial_elements(n)
    versal = fixtures.tangent_versal_elements(n)
    all_ok, vectors = _explicit_vectors(I, [images for _, images in trivial + versal])
    # a repeated or dependent element lowers the rank, not the lists' lengths
    count = linalg.rank(vectors)
    counts_ok = linalg.rank(vectors[: len(trivial)]) == 3 * n - 3 and count == 8 * n - 12
    expected = {"satisfy_constraints": True, "count": 8 * n - 12}
    computed = {"satisfy_constraints": all_ok, "count": count}
    return expected, computed, all_ok and counts_ok


def _check_classify(n, seed):
    expected = {}
    computed = {}
    for label in TYPE_LABELS:
        base = normal_form_ideal(n, label)
        expected[f"{label}:base"] = label
        computed[f"{label}:base"] = classify(base, seed=seed).label
        for trial in range(CLASSIFY_SEEDS):
            s = seed * 1000 + trial * 17 + n
            moved = random_linear_change(base, seed=s)
            expected[f"{label}:{trial}"] = label
            computed[f"{label}:{trial}"] = classify(moved, seed=s + 1).label
    return expected, computed, expected == computed


def _check_relations(space, n):
    if space == HN:
        lattice = hn_lattice(n)
        want = {"N": (2, -2), "E": (-1, 2)}
    else:
        lattice = wn_lattice(n)
        want = {"N'": (2, -2, 0), "E'": (-1, 2, -1)}
    report = solve_relations(lattice)
    got = {k: report.classes[k].coords for k in want}
    ok = report.unique and got == want
    return {k: list(v) for k, v in want.items()}, {k: list(v) for k, v in got.items()}, ok


def _check_derived_entries(n):
    report = solve_relations(hn_lattice(n))
    expected = {"B3.F": 1, "B2.E": -1, "B4.N": -2}
    computed = {
        "B3.F": report.derived.get(("B3", "F")),
        "B2.E": report.derived.get(("B2", "E")),
        "B4.N": report.derived.get(("B4", "N")),
    }
    consistent = pairing(report.curve("B3"), report.lattice.basis_divisor("F")) == 1
    return expected, computed, computed == expected and consistent


def _check_chambers(space, n):
    lattice, probes = (hn_lattice(n), _HN_PROBES) if space == HN else (wn_lattice(n), _WN_PROBES)
    expected = {}
    computed = {}
    for coords, chamber, locus, *models in probes:
        rep = chamber_of(lattice.divisor(coords), n)
        key = str(list(coords))
        expected[key] = {
            "chamber": chamber,
            "base_locus": list(locus),
            "model": models[-1] if n == 3 else models[0],
        }
        computed[key] = {
            "chamber": rep.chamber,
            "base_locus": list(rep.base_locus),
            "model": rep.model,
        }
    return expected, computed, expected == computed


def _check_fano(space, n):
    want = (n in (3, 4)) if space == HN else True
    got = is_fano(space, n)
    k = canonical_class(space, n)
    return {"fano": want}, {"fano": got, "canonical": list(k.coords)}, got == want


def _check_dimension_table(n):
    dt = dimension_table(n)
    expected = {
        "loci": {"I": 4 * n - 4, "II": 4 * n - 5, "III": 3 * n - 2, "IV": 3 * n - 3},
        "other_component": 7 * n - 10,
        "tangent_at_planar_double": 8 * n - 12,
        "transverse_identity": True,
    }
    computed = {
        "loci": dict(dt.loci),
        "other_component": dt.other_component,
        "tangent_at_planar_double": dt.tangent_at_planar_double,
        "transverse_identity": dt.transverse_identity,
    }
    return expected, computed, expected == computed


def _determinism_ideals():
    out = []
    for label in TYPE_LABELS:
        out.append(normal_form_ideal(4, label).generators)
    ring = PolyRing(4, has_param=True)
    x = [ring.x(i) for i in range(4)]
    out.append(
        tuple(
            Ideal(
                ring,
                [x[0] ** 2, x[0] * x[1], x[1] ** 2, ring.t * x[0] * x[3] - x[1] * x[2]],
            ).generators
        )
    )
    return out


def _check_gb_determinism(shuffles):
    mismatches = []
    for idx, gens in enumerate(_determinism_ideals()):
        baseline = buchberger(list(gens), transform=False)
        base = tuple(g.terms for g in baseline.elements)
        for s in range(1, shuffles + 1):
            shuffled = buchberger(list(gens), transform=False, seed=s)
            if tuple(g.terms for g in shuffled.elements) != base:
                mismatches.append((idx, s))
    return {"mismatches": []}, {"mismatches": mismatches}, not mismatches


def _check_hilbert_order_independence():
    bad = []
    for label in TYPE_LABELS:
        for n in (3, 4):
            I = normal_form_ideal(n, label)
            grev = hilbert_series(I)
            lex_leads = [
                g.lead_monomial()
                for g in buchberger(list(I.generators), LEX, transform=False).elements
            ]
            lex_ideal = Ideal(I.ring, [
                I.ring.from_dict({m: 1}) for m in lex_leads
            ])
            lexd = hilbert_series(lex_ideal)
            if lexd.hilbert_polynomial != grev.hilbert_polynomial or (
                lexd.reduced_numerator != grev.reduced_numerator
            ):
                bad.append(f"{label}:n{n}")
    return {"mismatches": []}, {"mismatches": bad}, not bad


def _check_syzygy_exactness():
    bad = []
    for label in TYPE_LABELS:
        for n in (3, 4):
            gens = list(normal_form_ideal(n, label).generators)
            if not syzygies(gens).verify():
                bad.append(f"{label}:n{n}")
    lam = fixtures.lambda_generators(3)
    if not syzygies(list(lam)).verify():
        bad.append("presentation_row")
    return {"failures": []}, {"failures": bad}, not bad


def _check_presentation_fixtures():
    lam = fixtures.lambda_generators(3)
    mu = fixtures.mu_matrix(3)
    nu = fixtures.nu_column(3)
    ring = lam[0].ring
    lam_mu_zero = all(
        sum((lam[i] * mu[i][j] for i in range(4)), ring.zero).is_zero()
        for j in range(4)
    )
    mu_nu_zero = all(
        sum((mu[i][j] * nu[j] for j in range(4)), ring.zero).is_zero()
        for i in range(4)
    )
    module = syzygies(list(lam))
    columns_in_module = all(
        module.contains(tuple(mu[i][j] for i in range(4))) for j in range(4)
    )
    expected = {"lam_mu_zero": True, "mu_nu_zero": True, "columns_in_module": True}
    computed = {
        "lam_mu_zero": lam_mu_zero,
        "mu_nu_zero": mu_nu_zero,
        "columns_in_module": columns_in_module,
    }
    return expected, computed, expected == computed


def run_battery(n_min=3, n_max=5, seed=0, deep=False):
    """Run every check for the requested n range and return the report."""
    if not (3 <= n_min <= n_max <= MAX_N):
        raise ValueError(f"need 3 <= n_min <= n_max <= {MAX_N}")
    b = _Battery(seed)

    for n in range(n_min, n_max + 1):
        for label in TYPE_LABELS:
            b.run(
                f"hilbert.normal_form.{label}.n{n}",
                f"type ({label}) normal form in P^{n} has the reference Hilbert polynomial",
                _check_hilbert_normal_form, n, label,
            )
        for k in (1, 2, 3):
            b.run(
                f"hilbert.double_structure.k{k}.n{n}",
                "double-structure Hilbert function matches the closed form "
                f"(tie degree {k}, P^{n})",
                _check_double_structure, n, k,
            )
        for name, family, expected_label in _LIMIT_FAMILIES:
            b.run(
                f"limit.{name}.n{n}",
                f"flat limit of the {name} family in P^{n} is the type "
                f"({expected_label}) normal form",
                _check_limit, family, expected_label, n, seed,
            )
        b.run(
            f"tangent.explicit_elements.n{n}",
            "explicit tangent assignments satisfy the syzygy constraints "
            f"and count 8n-12 (P^{n})",
            _check_explicit_elements, n,
        )
        b.run(
            f"classify.normal_forms.n{n}",
            f"classification is stable under random coordinate changes (P^{n})",
            _check_classify, n, seed,
        )
        for label in TYPE_LABELS:
            b.run(
                f"tangent.type_{label}.n{n}",
                f"tangent dimension at the type ({label}) point of P^{n}",
                _check_tangent, n, label,
            )
        b.run(
            f"cone.chambers.hn.n{n}",
            f"rank-2 chamber table, base loci and models (n={n})",
            _check_chambers, HN, n,
        )
        if n >= 4:
            b.run(
                f"cone.chambers.wn.n{n}",
                f"rank-3 chamber table, base loci and models (n={n})",
                _check_chambers, WN, n,
            )
        else:
            b.skip(
                f"cone.chambers.wn.n{n}",
                f"rank-3 chamber table, base loci and models (n={n})",
                "rank-3 lattice is defined for n >= 4",
            )
        b.run(
            f"cone.fano.hn.n{n}",
            f"anticanonical ampleness on the rank-2 side (n={n})",
            _check_fano, HN, n,
        )
        b.run(
            f"cone.fano.wn.n{n}",
            f"anticanonical ampleness on the rank-3 side (n={n})",
            _check_fano, WN, n,
        )
        b.run(
            f"cone.dimension_table.n{n}",
            f"locus dimensions and the transversality identity (n={n})",
            _check_dimension_table, n,
        )

    b.run(
        "tangent.conic_plane",
        "tangent dimension of the in-plane double conic with embedded point",
        _check_conic_plane,
    )
    b.run(
        "tangent.conic_space",
        "module-Hom dimension of the space conic reported against the sheaf count",
        _check_conic_space,
    )
    b.run(
        "lattice.relations.hn",
        "rank-2 divisor relations solve uniquely from stated pairings",
        _check_relations, HN, max(n_min, 3),
    )
    b.run(
        "lattice.relations.wn",
        "rank-3 divisor relations solve uniquely from stated pairings",
        _check_relations, WN, max(n_min, 4),
    )
    b.run(
        "lattice.derived_entries",
        "derived pairing entries are consistent with every stored row",
        _check_derived_entries, max(n_min, 3),
    )
    b.run(
        "engine.gb_determinism",
        "reduced bases are identical under S-pair schedule permutations",
        _check_gb_determinism, 20 if deep else 5,
    )
    b.run(
        "engine.hilbert_order_independence",
        "Hilbert data agrees between grevlex and lex initial ideals",
        _check_hilbert_order_independence,
    )
    b.run(
        "engine.syzygy_exactness",
        "every generating syzygy annihilates its generators exactly",
        _check_syzygy_exactness,
    )
    b.run(
        "engine.presentation_fixtures",
        "presentation matrices multiply to zero and columns lie in the syzygy module",
        _check_presentation_fixtures,
    )

    return VerifyReport(seed, n_min, n_max, deep, tuple(b.results))
