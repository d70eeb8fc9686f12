"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import random
import time

from cmshift import (ROOT, BouquetShift, BouquetSpec, FiniteShift,
                     LoopCountFamily, Plain, Potential, PowerTail,
                     RenewalSeries, TauSpec, build_bouquet, build_preset,
                     chi_per, condition_witness_search, count_B, crc_profile,
                     delta_profile, hinf_profile, normalizing_C,
                     partition_sums_renewal, partition_sums_transfer,
                     pressure_estimate, spr_check, ucs_check)
from cmshift.families import htop_solve, log_weight_sequence
from cmshift.numerics import LOG_ZERO
from cmshift.oracle import count_B_bruteforce, partition_sums_bruteforce

LOG2 = math.log(2.0)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


class _Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def test_criterion_1_halving_family_reproduction():
    with _Timer() as timer:
        build = build_preset("sec52-entry", truncate_len=40)
        logw = log_weight_sequence(build.weights, 40)
        ps = partition_sums_renewal(log_wstar=logw, N=40)
        est = pressure_estimate(ps)
        chi = chi_per(build.system, build.potential, 40)
        ip0 = RenewalSeries(build.weights).induced(0.0)
        verdict = spr_check(ps.log_zstar, 0.0)
    checks = {
        "pressure within 1e-9 of 0": abs(est.value) <= 1e-9,
        "chi_per equals -log 2": abs(chi.value + LOG2) <= 1e-15,
        "induced pressure at 0 within 1e-12": abs(ip0.value) <= 1e-12,
        "pstar equals log 2 within 1e-9": abs(ip0.pstar - LOG2) <= 1e-9,
        "spr verdict holds": verdict.verdict == "holds",
        "runtime < 1 s": timer.elapsed < 1.0,
    }
    _report(1, all(checks.values()),
            "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_criterion_2_power_family_reproduction():
    with _Timer() as timer:
        beta = 3.0
        h = htop_solve(LoopCountFamily("geometric", ratio=2))
        C = normalizing_C(beta)
        build = build_preset("sec53(beta=3,C=auto)")
        weights = build.weights
        worst_rel = 0.0
        for n in range(1, 51):
            closed = C.value * n ** -beta
            produced = math.exp(weights.log_weight(n))
            worst_rel = max(worst_rel, abs(produced - closed) / closed)
        ip0 = RenewalSeries(weights).induced(0.0)
        logw = log_weight_sequence(weights, 200)
        verdict = spr_check(logw, 0.0)
        classes = {
            name: RenewalSeries(PowerTail(beta, math.log(scale * normalizing_C(beta).value)))
            .classify()
            for name, beta, scale in (("a", 3.0, 1.0), ("null", 1.5, 1.0), ("c", 3.0, 0.5))
        }
    zeta_tol = max(1e-8, C.error_bound * 10)
    checks = {
        "h_top equals log 4 within 1e-9": abs(h - math.log(4.0)) <= 1e-9,
        "return weights match C/n^beta to 1e-12": worst_rel <= 1e-12,
        "induced pressure at 0 within zeta tolerance":
            abs(ip0.value) <= zeta_tol,
        "spr verdict fails with slope within 1e-2 of 0":
            verdict.verdict == "fails" and abs(verdict.slope) <= 1e-2,
        "beta=3, C=1/zeta(3) positive recurrent":
            classes["a"].kind == "positive-recurrent",
        "beta=1.5 null recurrent": classes["null"].kind == "null-recurrent",
        "half constant transient": classes["c"].kind == "transient",
        "runtime < 5 s": timer.elapsed < 5.0,
    }
    _report(2, all(checks.values()),
            "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def test_criterion_3_infinity_profiles():
    with _Timer() as timer:
        fam = LoopCountFamily("geometric", ratio=2, a1=1)
        T = BouquetShift(fam, truncate_len=25)
        Ms, N = [2, 4, 8], 30
        prof = hinf_profile(T, [1], Ms, N)
        beta = 3.0
        C = normalizing_C(beta).value
        spec = BouquetSpec(fam, "entry",
                           TauSpec("power", beta=beta, log_C=math.log(C)),
                           truncate_len=25)
        build = build_bouquet(spec)
        dprof = delta_profile(T, build.potential, [1], Ms, N, P=0.0)
        slope_by_M = {M: prof.fits[(M, 1)].slope for M in Ms}
        counts = {(r[0], r[1]): r[3] for r in prof.rows}
        monotone_counts = all(counts[(n, 4)] <= counts[(n, 2)]
                              and counts[(n, 8)] <= counts[(n, 4)]
                              for n in range(1, N + 1))
        monotone_slopes = slope_by_M[8] <= slope_by_M[4] <= slope_by_M[2]
        z30 = {M: dprof.cell(30, M, 1)[5] for M in Ms}
        delta_gap = min(abs(z + LOG2) for z in z30.values()
                        if z is not None and math.isfinite(z))
    checks = {
        "headline slope in [log2-0.1, log2+0.1]":
            LOG2 - 0.1 <= prof.estimate <= LOG2 + 0.1,
        "z_n non-increasing in M at fixed n": monotone_counts,
        "per-M slopes non-increasing in M": monotone_slopes,
        "z_phi at n=30 within 0.05 of -log 2": delta_gap <= 0.05,
        "no M-monotonicity violations": prof.monotone_M_violations == [],
        "runtime < 30 s": timer.elapsed < 30.0,
    }
    _report(3, all(checks.values()),
            "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
            + f"; slope={prof.estimate:.4f}; delta_gap={delta_gap:.4f}")


def test_criterion_4_oracle_equivalence():
    with _Timer() as timer:
        failures = []
        for preset in ("sec52-entry", "renewal-ones"):
            build = build_preset(preset, truncate_len=5)
            T, phi = build.system, build.potential
            brute = partition_sums_bruteforce(T, phi, ROOT, 12)
            logw = log_weight_sequence(build.truncated_weights, 12)
            dp = partition_sums_renewal(log_wstar=logw, N=12)
            for n in range(1, 13):
                for name, b, d in (("Z", brute.logz(n), dp.logz(n)),
                                   ("Zstar", brute.logzstar(n), dp.logzstar(n))):
                    if b == LOG_ZERO and d == LOG_ZERO:
                        continue
                    if abs(b - d) > 1e-12 * max(1.0, abs(b)):
                        failures.append((preset, name, n))
            for M in (2, 3):
                for n in range(1, 13):
                    bf = count_B_bruteforce(T, phi, n, M, 1)
                    fast = count_B(T, phi, n, M, 1)
                    if bf.count != fast.count:
                        failures.append((preset, f"z_n(M={M})", n))
                    if bf.count and abs(bf.z_phi - fast.z_phi) > 1e-12:
                        failures.append((preset, f"z_phi(M={M})", n))
    checks = {
        "all enumerative/DP rows agree": not failures,
        "runtime < 10 s": timer.elapsed < 10.0,
    }
    _report(4, all(checks.values()),
            "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
            + (f"; failures={failures[:5]}" if failures else ""))


def test_criterion_5_finite_shift_sanity():
    with _Timer() as timer:
        full2 = FiniteShift([[1, 1], [1, 1]])
        zero = Potential(1, {}, 0.0)
        ps = partition_sums_transfer(full2, zero, Plain(1), 20)
        counts_exact = ps.counts == [2 ** (n - 1) for n in range(1, 21)]
        est = pressure_estimate(ps)
        c = 0.37
        loop = FiniteShift([[1]])
        phic = Potential(1, {(Plain(1),): c})
        ps_loop = partition_sums_transfer(loop, phic, Plain(1), 10)
        est_loop = pressure_estimate(ps_loop)
        chi_loop = chi_per(loop, phic, 10)
        ucs = ucs_check(chi_loop.value, est_loop.value)
    checks = {
        "Z_n = 2^(n-1) exactly": counts_exact,
        "pressure fit = log 2 within 1e-3": abs(est.value - LOG2) <= 1e-3,
        "self-loop chi_per = P = c":
            abs(chi_loop.value - c) <= 1e-12 and abs(est_loop.value - c) <= 1e-9,
        "self-loop UCS verdict fails": ucs == "fails",
    }
    _report(5, all(checks.values()),
            "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def _random_family(rng: random.Random):
    """Truncated bouquet family with >= 2 loop lengths and weights in [-3, 0]."""
    L = rng.randint(6, 12)
    k = rng.randint(2, 4)
    lengths = sorted(rng.sample(range(1, L + 1), k))
    counts = [0] * L
    for n in lengths:
        counts[n - 1] = 1 if n == 1 else rng.randint(1, 3)
    fam = LoopCountFamily("list", values=tuple(counts))
    totals = [0.0] * L
    for n in lengths:
        totals[n - 1] = rng.uniform(-3.0, 0.0)
    spec = BouquetSpec(fam, "entry", TauSpec("table", table=tuple(totals)),
                       truncate_len=L)
    return build_bouquet(spec), lengths, totals


def test_criterion_6_contraction_equivalence_directions():
    rng = random.Random(20260810)
    N = 48
    presets = [build_preset(p, truncate_len=16)
               for p in ("sec52-entry", "sec52-exit", "sec52-mid")]
    families = [(b, None, None) for b in presets]
    while len(families) < 53:
        b, lengths, totals = _random_family(rng)
        families.append((b, lengths, totals))
    crc_checked = delta_checked = violations = 0
    for build, lengths, totals in families:
        T, phi = build.system, build.potential
        # exact pressure of the truncated family, then normalize to zero
        P = RenewalSeries(build.truncated_weights).pressure
        tau = phi.loop_total
        norm_tau = (lambda t, p: (lambda n: t(n) - n * p))(tau, P)
        norm_phi = Potential(2, {}, 0.0, fallback=None)
        norm_phi.loop_total = norm_tau
        chi_norm = max(norm_tau(n) / n for n in T.loop_lengths())
        prof = crc_profile(T, norm_phi, 1, N, P=0.0)
        if prof.lambda_q > 0.05:
            crc_checked += 1
            if not chi_norm < -0.01:
                violations += 1
        dprof = delta_profile(T, norm_phi, [1], [4, 8], N, P=0.0)
        if dprof.ci_verdict != "no-evidence" \
                and dprof.estimate + dprof.band < 0.0:
            delta_checked += 1
            if not chi_norm < 0.0:
                violations += 1
    checks = {
        "no directional violations": violations == 0,
        "crc certificates exercised": crc_checked >= 10,
        "delta certificates exercised": delta_checked >= 10,
    }
    _report(6, all(checks.values()),
            "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
            + f"; crc_checked={crc_checked}; delta_checked={delta_checked}"
            + f"; violations={violations}")


def test_criterion_7_condition_witnesses():
    entry = build_preset("sec52-entry", truncate_len=25)
    wa = condition_witness_search(entry.system, entry.potential, "A",
                                  q=1, C=1.0, eps=0.1, N=20)
    exit_build = build_preset("sec52-exit", truncate_len=25)
    wb = condition_witness_search(exit_build.system, exit_build.potential, "B",
                                  q=1, C=1.0, eps=0.1, N=20)
    full2 = FiniteShift([[1, 1], [1, 1]])
    zero = Potential(1, {}, 0.0)
    wc = condition_witness_search(full2, zero, "C", q=2, C=1.0, eps=0.1, N=20)
    checks = {
        "condition A witness found on entry weights": wa is not None,
        "condition B witness found on exit weights": wb is not None,
        "condition C vacuous on the full 2-shift": wc is None,
    }
    _report(7, all(checks.values()),
            "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))
