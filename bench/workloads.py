"""The four benchmark workloads.

Each workload is a fixed list of operations built from the seed.  An
operation calls cmshift the way a user would (a `cmshift` command line run
in-process through `cli.main`, `cli.run_report`, or a library call) and
returns its output untouched; its check compares that output with a
computation from `checks.py` or with a property the method must have.

The seed changes the inputs but not the amount of work: finite shifts are
fixed base graphs with relabelled states, random graphs have a fixed state
count and out-degree, and preset parameters move only where the cost does not
depend on them (weight scheme, beta at C=auto, small beta jitter, call order).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from cmshift import cli, families, infinity, shift, thermo
from cmshift.potential import Potential

import checks
from checks import LOG2, close, require


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Scale:
    """A scaling figure fitted from two operations that differ in one size.

    kind 'loglog' gives log(t_b/t_a)/log(x_b/x_a); 'exp' gives
    log(t_b/t_a)/(x_b - x_a).  t is the inclusive time of `functions` inside
    each operation's span.
    """

    metric: str
    op_a: str
    op_b: str
    x_a: float
    x_b: float
    functions: tuple[str, ...]
    kind: str = "loglog"


@dataclass
class Workload:
    ops: list[Op]
    scales: list[Scale] = field(default_factory=list)


# -- calling cmshift the way its users do -------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    """`cmshift <argv>` in-process; a non-zero exit makes the operation fail."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != cli.EXIT_OK:
        raise RuntimeError(f"cmshift {' '.join(argv)} exited {rc}")
    return rc, buf.getvalue()


def _report(outdir: Path) -> dict:
    return json.loads((outdir / "report.json").read_text())


def _num(value) -> float:
    """Report floats are numbers, non-finite ones strings ('inf', 'nan')."""
    return float(value)


# -- finite graphs ---------------------------------------------------------------------

# Base graphs for finite-enum.  The seed relabels their states, which keeps
# the number of periodic words (the cost of chi_per) the same on every seed.
FULL2 = [[1, 1], [1, 1]]
BASE4 = [[1, 1, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1], [1, 1, 0, 1]]
BASE5 = [[0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [1, 0, 0, 1, 1], [0, 1, 0, 0, 1],
         [1, 0, 1, 0, 0]]


def relabel(matrix, rng: random.Random):
    S = len(matrix)
    perm = list(range(S))
    rng.shuffle(perm)
    out = [[0] * S for _ in range(S)]
    for i in range(S):
        for j in range(S):
            out[perm[i]][perm[j]] = matrix[i][j]
    return out


def random_graph(S: int, degree: int, rng: random.Random):
    """Transitive graph with every out-degree exactly `degree`: a random
    Hamiltonian cycle plus random extra edges."""
    order = list(range(S))
    rng.shuffle(order)
    A = [[0] * S for _ in range(S)]
    for k in range(S):
        A[order[k]][order[(k + 1) % S]] = 1
    for i in range(S):
        free = [j for j in range(S) if not A[i][j]]
        for j in rng.sample(free, degree - 1):
            A[i][j] = 1
    return A


def random_weights(matrix, rng: random.Random, lo=-2.0, hi=0.0):
    S = len(matrix)
    return {(i, j): rng.uniform(lo, hi)
            for i in range(S) for j in range(S) if matrix[i][j]}


def as_cmshift(matrix, weights):
    T = shift.FiniteShift(matrix)
    phi = Potential(2, {(shift.Plain(i + 1), shift.Plain(j + 1)): w
                        for (i, j), w in weights.items()}, 0.0, system=T)
    return T, phi


def low_mask(S: int, q: int):
    return [i < q for i in range(S)]


def write_specs(specdir: Path, name: str, matrix, weights):
    specdir.mkdir(parents=True, exist_ok=True)
    spath, ppath = specdir / f"{name}.shift.json", specdir / f"{name}.potential.json"
    spath.write_text(json.dumps({"kind": "finite", "matrix": matrix}))
    if weights is None:
        pot = {"memory": 1, "default": 0.0, "table": []}
    else:
        pot = {"memory": 2, "default": 0.0,
               "table": [{"word": [i + 1, j + 1], "value": w}
                         for (i, j), w in sorted(weights.items())]}
    ppath.write_text(json.dumps(pot))
    return spath, ppath


def check_small_cells(rows, matrix, weights, n_max: int) -> None:
    """Profile rows (n, M, q, count, log_count, z_phi) with n <= n_max against
    the benchmark's own word enumeration."""
    seen = 0
    for n, M, q, count, _log_count, z_phi in rows:
        if n > n_max:
            continue
        ref_count, ref_z = checks.enumerate_cells(matrix, weights, low_mask(len(matrix), q),
                                                  n, M)
        require(count == ref_count, f"count(n={n},M={M},q={q}) = {count}, "
                                    f"enumeration gives {ref_count}")
        if weights is not None:
            close(_num(z_phi), ref_z, 1e-9, f"z_phi(n={n},M={M},q={q})")
        seen += 1
    require(seen > 0, "no small cells to compare")


def check_M_monotone(rows) -> None:
    table = {(r[0], r[1], r[2]): r[3] for r in rows}
    for (n, M, q), c in table.items():
        for (n2, M2, q2), c2 in table.items():
            if n2 == n and q2 == q and M2 > M:
                require(c2 <= c, f"count grows with M at n={n}, q={q}: {M}->{M2}")


# -- bouquet-deep -----------------------------------------------------------------------

def bouquet_deep(seed: int, outdir: Path) -> Workload:
    """`cmshift report` on bouquet presets at long horizons (composition route)."""
    rng = random.Random(seed)
    scheme = rng.choice(["entry", "exit", "mid"])
    beta = rng.choice([2.5, 3.0, 3.5, 4.0])
    truncate = {"renewal-ones": 40, "sec52": 40, "sec53": 25}  # preset defaults
    cases = [("renewal-ones", "renewal-ones", 160, "renewal"),
             ("renewal-ones", "renewal-ones", 240, "renewal"),
             (f"sec52-{scheme}", "sec52", 240, "sec52"),
             (f"sec53(beta={beta},C=auto)", "sec53", 200, "sec53")]
    ops = []
    for preset, family, N, kind in cases:
        d = outdir / f"{family}-N{N}"
        argv = ["report", "--preset", preset, "--horizon", str(N), "--out", str(d)]
        ops.append(Op(f"report {preset} N={N}", lambda a=argv: _cli(a),
                      lambda out, d=d, kind=kind, L=truncate[family], N=N:
                      _check_bouquet_report(_report(d), kind, L, beta,
                                            random.Random(seed * 1_000_003 + N))))
    scales = [Scale("scale.bouquet_profiles.N_exp", "report renewal-ones N=160",
                    "report renewal-ones N=240", 160, 240,
                    ("infinity.hinf_profile", "infinity.delta_profile"))]
    return Workload(ops, scales)


def _check_bouquet_report(rep, kind, L, beta, rng) -> None:
    pressure = rep["pressure"]
    profiles = rep["profiles"]
    hrows, drows = profiles["hinf"]["rows"], profiles["delta"]["rows"]
    require(profiles["hinf"]["monotone_M_violations"] == [], "M-monotonicity violated")
    check_M_monotone(hrows)
    if kind == "sec53":
        close(_num(pressure["analytic"]), 0.0, 1e-9, "sec53 analytic pressure at C=auto")
        require("chi_per" not in rep, "sec53 has no graph for chi_per")
        # profiles run on the a(1)=1 family: a mean of loop means is at most
        # the largest loop mean, which is tau(1) = log C
        log_C = -math.log(checks.zeta(beta))
        require(_num(profiles["delta"]["estimate"]) <= log_C + 1e-9,
                "delta estimate above the largest loop average")
        return
    P, top = (LOG2, 0.0) if kind == "renewal" else (0.0, -LOG2)
    close(_num(pressure["analytic"]), P, 1e-9, "analytic pressure")
    close(_num(pressure["value"]), P, 1e-6, "fitted pressure")
    close(_num(rep["chi_per"]["value"]), top, 1e-9, "chi_per")
    close(_num(profiles["delta"]["estimate"]), top, 1e-9, "delta estimate")
    for r in drows:
        if r[3]:
            close(_num(r[5]), top, 1e-9, f"z_phi at n={r[0]}, M={r[1]}")
    # every loop length 1..L occurs once: counts are compositions with parts <= L
    for r in rng.sample(hrows, 24):
        n, M, count = r[0], r[1], r[3]
        require(count == checks.renewal_hinf_count(n, M, L),
                f"hinf count(n={n},M={M}) = {count} != binomial formula")


# -- finite-enum ----------------------------------------------------------------------------

def finite_enum(seed: int, outdir: Path) -> Workload:
    """`cmshift report` on small finite shifts; chi_per enumerates periodic words."""
    rng = random.Random(seed)
    cases = [("full2", FULL2, None, 12), ("full2", FULL2, None, 14)]
    m4 = relabel(BASE4, rng)
    cases.append(("rand4", m4, random_weights(m4, rng), 9))
    m5 = relabel(BASE5, rng)
    cases.append(("rand5", m5, random_weights(m5, rng), 11))
    ops = []
    for name, matrix, weights, N in cases:
        spath, ppath = write_specs(outdir / "specs", f"{name}-N{N}", matrix, weights)
        cfg = cli.RunConfig(shift=str(spath), potential=str(ppath), horizon=N,
                            q=[1], M=[2], out=str(outdir / f"{name}-N{N}"))
        ops.append(Op(f"report {name} N={N}", lambda c=cfg: cli.run_report(c),
                      lambda rep, m=matrix, w=weights, N=N: _check_finite_report(rep, m, w, N)))
    scales = [Scale("scale.chi_per.N_growth", "report full2 N=12", "report full2 N=14",
                    12, 14, ("thermo.chi_per",), kind="exp")]
    return Workload(ops, scales)


def _check_finite_report(rep, matrix, weights, N) -> None:
    w = weights or {}
    close(rep["chi_per"]["value"], checks.best_cycle_mean(matrix, w, N), 1e-12,
          "chi_per vs simple-cycle maximum")
    log_z = rep["sequences"]["logZ"]
    if weights is None and matrix == FULL2:
        for n, v in enumerate(log_z, start=1):
            close(v, (n - 1) * LOG2, 1e-12, f"log Z_{n} of the full 2-shift")
    ref_z, ref_star = checks.transfer_log_sums(matrix, w, 0, N)
    for n in range(N):
        close(log_z[n], ref_z[n], 1e-9, f"log Z_{n + 1}")
        close(rep["sequences"]["logZstar"][n], ref_star[n], 1e-9, f"log Z*_{n + 1}")
    lo, hi = rep["pressure"]["window"]
    ns = list(range(lo, hi + 1))
    close(rep["pressure"]["value"], checks.tail_slope(ns, [ref_z[n - 1] for n in ns]),
          1e-9, "pressure fit")
    close(rep["pressure"]["value"], checks.log_spectral_radius(matrix, w), 0.1,
          "fitted pressure vs log spectral radius")
    check_small_cells(rep["profiles"]["hinf"]["rows"], matrix, None, 6)
    check_small_cells(rep["profiles"]["delta"]["rows"], matrix, w, 6)


# -- graph-dp --------------------------------------------------------------------------------

def graph_dp(seed: int, outdir: Path) -> Workload:
    """Library calls that run the state DPs, with no enumeration."""
    rng = random.Random(seed)
    qs, Ms = [1, 2, 4], [2, 4, 8]
    graphs = {}
    for S in (16, 32):
        m = random_graph(S, 3, rng)
        w = random_weights(m, rng)
        graphs[S] = (m, w) + as_cmshift(m, w)
    ops = []

    def profiles(label, T, phi, matrix, weights, q_list, N):
        ops.append(Op(f"hinf {label} N={N}",
                      lambda: infinity.hinf_profile(T, q_list, Ms, N),
                      lambda hp: _check_profile(hp.rows, hp.monotone_M_violations,
                                                matrix, None)))
        ops.append(Op(f"delta {label} N={N}",
                      lambda: infinity.delta_profile(T, phi, q_list, Ms, N),
                      lambda dp: _check_profile(dp.rows, dp.monotone_M_violations,
                                                matrix, weights)))

    m16, w16, T16, phi16 = graphs[16]
    m32, w32, T32, phi32 = graphs[32]
    profiles("S=16", T16, phi16, m16, w16, qs, 16)
    profiles("S=16", T16, phi16, m16, w16, qs, 32)
    profiles("S=32", T32, phi32, m32, w32, qs, 32)
    build = families.build_preset("sec52-entry", truncate_len=16)
    mb, wb = checks.bouquet_graph(16, lambda n: -n * LOG2)
    profiles("sec52-entry L=16", build.system, build.potential, mb, wb, [2, 3], 32)

    a = shift.Plain(1)
    ops.append(Op("transfer S=32 N=120", lambda: _sums_and_pressure(T32, phi32, a, 120),
                  lambda out: _check_transfer(*out, m32, w32, 120)))
    ops.append(Op("crc S=32 q=2 N=80", lambda: thermo.crc_profile(T32, phi32, 2, 80),
                  lambda crc: _check_crc(crc, m32, w32, 2, 80)))
    # a bound just above the best cycle mean: a witness, if any, is short, and
    # the search otherwise runs the whole horizon.  For condition A, C is set
    # below the best low-landing 5-word, so a witness is returned at n <= 4.
    eps = -checks.max_cycle_mean(m32, w32) - 0.02
    best_A4 = checks.maxplus_condition_best(m32, w32, low_mask(32, 2), "A", 4)[-1]
    for cond in ("A", "B", "C"):
        C = rng.uniform(0.5, 3.0)
        if cond == "A":
            C = best_A4 + 4 * eps - 0.1
        ops.append(Op(f"witness {cond} S=32 N=80",
                      lambda cond=cond, C=C:
                      thermo.condition_witness_search(T32, phi32, cond, 2, C, eps, 80),
                      lambda wit, cond=cond, C=C:
                      _check_witness(wit, m32, w32, cond, 2, C, eps, 80)))
    for N in (40, 80):
        ops.append(Op(f"f_property S=32 q=4 N={N}", lambda N=N: shift.f_property_count(T32, 4, N),
                      lambda fp, N=N: require(fp.count == checks.f_property_reference(
                          m32, low_mask(32, 4), N), "f_property_count vs matrix power")))
    scales = [Scale("scale.state_dp.N_exp", "delta S=16 N=16", "delta S=16 N=32", 16, 32,
                    ("infinity.delta_profile",)),
              Scale("scale.state_dp.S_exp", "delta S=16 N=32", "delta S=32 N=32", 16, 32,
                    ("infinity.delta_profile",))]
    return Workload(ops, scales)


def _check_profile(rows, violations, matrix, weights) -> None:
    require(violations == [], "M-monotonicity violated")
    check_M_monotone(rows)
    check_small_cells(rows, matrix, weights, 5)
    if weights is None:
        return
    # counted words are low-to-low words: z_phi is at most their best mean
    N = max(r[0] for r in rows)
    for q in sorted({r[2] for r in rows}):
        s = checks.maxplus_low_to_low(matrix, weights, low_mask(len(matrix), q), N)
        for n, M, qq, count, _lc, z in rows:
            if qq == q and count:
                require(z <= s[n - 1] / n + 1e-9, f"z_phi above max-plus bound at n={n}")


def _sums_and_pressure(T, phi, a, N):
    ps = thermo.partition_sums_transfer(T, phi, a, N)
    return ps, thermo.pressure_estimate(ps)


def _check_transfer(ps, est, matrix, weights, N) -> None:
    ref_z, ref_star = checks.transfer_log_sums(matrix, weights, 0, N)
    for n in range(N):
        close(ps.log_z[n], ref_z[n], 1e-9, f"log Z_{n + 1}")
        close(ps.log_zstar[n], ref_star[n], 1e-9, f"log Z*_{n + 1}")
    close(est.value, checks.log_spectral_radius(matrix, weights), 0.05,
          "fitted pressure vs log spectral radius")


def _check_crc(crc, matrix, weights, q, N) -> None:
    ref = checks.maxplus_low_to_low(matrix, weights, low_mask(len(matrix), q), N)
    for n in range(N):
        close(crc.s[n], ref[n], 1e-9, f"crc s({n + 1})")
    lo, hi = crc.fit.window
    for n in range(lo, hi + 1):
        require(crc.s[n - 1] <= crc.C_q - n * crc.lambda_q + 1e-9,
                f"C_q - n lambda_q does not majorize s({n})")


def _check_witness(wit, matrix, weights, cond, q, C, eps, N) -> None:
    low = low_mask(len(matrix), q)
    n_ref, v_ref = checks.maxplus_first_violation(matrix, weights, low, cond, C, eps, N)
    if wit is None:
        require(n_ref is None, f"witness search missed a violation at n={n_ref}")
        return
    require(wit.n == n_ref, f"witness at n={wit.n}, first violation at n={n_ref}")
    word = [s.index - 1 for s in wit.word]
    require(len(word) == wit.n + 1, "witness word has the wrong length")
    total = checks.walk_sum(matrix, weights, word)
    require(total is not None, "witness word is not admissible")
    close(total, wit.value, 1e-9, "witness weight summed again")
    close(total, v_ref, 1e-9, "witness weight vs max-plus optimum")
    require(total > C - wit.n * eps, "witness does not break its bound")
    if cond == "A":
        require(low[word[-1]], "condition A witness must land low")
    elif cond == "B":
        require(low[word[0]], "condition B witness must start low")
    else:
        require(not any(low[s] for s in word[:-1]), "condition C witness visits low")


# -- preset-sweep -------------------------------------------------------------------------------

def preset_sweep(seed: int, outdir: Path) -> Workload:
    """Many short in-process CLI calls over the presets and subcommands."""
    rng = random.Random(seed)
    ops = []
    betas = [b if b == 2.0 else round(b + rng.uniform(-0.02, 0.02), 4)
             for b in (1.5, 1.8, 2.0, 2.5, 3.0, 4.0)]
    for beta in betas:
        for factor in (0.6, 1.0, 1.5):
            C = "auto" if factor == 1.0 else repr(_sec53_C(beta, factor))
            preset = f"sec53(beta={beta},C={C})"
            for N in (40, 50, 60):
                d = outdir / f"sec53-{beta}-{factor}-{N}"
                ops.append(Op(f"report {preset} N={N}",
                              lambda a=["report", "--preset", preset, "--horizon", str(N),
                                        "--out", str(d)]: _cli(a),
                              lambda out, d=d, beta=beta, factor=factor:
                              _check_sec53(_report(d), beta, factor)))
            ops.append(Op(f"spr {preset}",
                          lambda a=["spr", "--preset", preset, "--horizon", "200"]: _cli(a),
                          lambda out, beta=beta, factor=factor: _check_spr(out, beta, factor)))
    for scheme in ("entry", "exit", "mid"):
        for N in (40, 50, 60):
            d = outdir / f"sec52-{scheme}-{N}"
            ops.append(Op(f"report sec52-{scheme} N={N}",
                          lambda a=["report", "--preset", f"sec52-{scheme}", "--horizon",
                                    str(N), "--out", str(d)]: _cli(a),
                          lambda out, d=d: _check_renewal_like(_report(d), 0.0, -LOG2)))
        ops.append(Op(f"pressure sec52-{scheme}",
                      lambda a=["pressure", "--preset", f"sec52-{scheme}", "--horizon", "40"]:
                      _cli(a), lambda out: _check_pressure_line(out, 0.0)))
    for N in (40, 50, 60):
        d = outdir / f"renewal-{N}"
        ops.append(Op(f"report renewal-ones N={N}",
                      lambda a=["report", "--preset", "renewal-ones", "--horizon", str(N),
                                "--out", str(d)]: _cli(a),
                      lambda out, d=d: _check_renewal_like(_report(d), LOG2, 0.0)))
    ops.append(Op("pressure renewal-ones",
                  lambda: _cli(["pressure", "--preset", "renewal-ones", "--horizon", "40"]),
                  lambda out: _check_pressure_line(out, LOG2)))
    for N in (40, 60):
        d = outdir / f"sec54-{N}"
        ops.append(Op(f"report sec54 N={N}",
                      lambda a=["report", "--preset", "sec54", "--horizon", str(N),
                                "--out", str(d)]: _cli(a),
                      lambda out, d=d: _check_sec54(_report(d))))
    for preset in ("sec52-entry", "sec52-exit", "renewal-ones"):
        for N in (24, 32):
            ops.append(Op(f"hinf {preset} N={N}",
                          lambda a=["hinf", "--preset", preset, "--truncate", "20",
                                    "--horizon", str(N), "--M", "4,8", "--q", "1"]: _cli(a),
                          lambda out, N=N: _check_hinf_line(out, N, 8, 20)))
    for preset in ("renewal-ones", "sec52-mid"):
        ops.append(Op(f"oracle {preset}",
                      lambda a=["oracle", "--preset", preset, "--truncate", "5", "--horizon",
                                "12", "--M", "2,3", "--q", "1"]: _cli(a),
                      lambda out: require("all rows pass" in out[1], "oracle rows fail")))
    rng.shuffle(ops)
    # the same config twice in a row must write byte-identical reports
    beta = betas[4]
    first, second = outdir / "repeat-a", outdir / "repeat-b"
    for d in (first, second):
        ops.append(Op(f"report sec53(beta={beta}) repeat {d.name}",
                      lambda d=d: _cli(["report", "--preset", f"sec53(beta={beta},C=auto)",
                                        "--horizon", "60", "--out", str(d)]),
                      (lambda out: _report(first)) if d is first else
                      lambda out: require((first / "report.json").read_bytes()
                                          == (second / "report.json").read_bytes(),
                                          "repeated config wrote a different report.json")))
    return Workload(ops)


def _sec53_C(beta, factor) -> float:
    return factor / checks.zeta(beta)


def _check_sec53(rep, beta, factor) -> None:
    require(rep["summary"]["class"] == checks.sec53_class(beta, factor),
            f"sec53(beta={beta}, C={factor}/zeta) class {rep['summary']['class']}")
    close(_num(rep["pressure"]["analytic"]),
          checks.sec53_pressure(beta, _sec53_C(beta, factor)), 1e-9,
          f"sec53(beta={beta}, C={factor}/zeta) analytic pressure")


def _check_spr(out, beta, factor) -> None:
    verdict = out[1].split()[1]
    require(verdict == ("holds" if factor > 1.0 else "fails"), f"spr verdict {verdict}")
    P = float(out[1].split("pressure ")[1].split(",")[0])
    close(P, checks.sec53_pressure(beta, _sec53_C(beta, factor)), 1e-9, "spr pressure")


def _check_renewal_like(rep, P, top) -> None:
    close(_num(rep["pressure"]["analytic"]), P, 1e-9, "analytic pressure")
    close(_num(rep["chi_per"]["value"]), top, 1e-9, "chi_per")
    require(rep["spr"]["verdict"] == "holds", f"spr verdict {rep['spr']['verdict']}")


def _check_sec54(rep) -> None:
    require(rep["h_top"] == "inf", "double-exponential loop counts have infinite entropy")
    require("analytic" not in rep["pressure"], "sec54 has no closed-form pressure")


def _check_pressure_line(out, P) -> None:
    close(float(out[1].split()[1]), P, 1e-9, "pressure subcommand")


def _check_hinf_line(out, N, M, L) -> None:
    estimate = float(out[1].split()[2])
    window = list(range(math.ceil(0.75 * N), N + 1))
    ref = checks.tail_slope(window, [math.log(checks.renewal_hinf_count(n, M, L))
                                     for n in window])
    close(estimate, ref, 1e-9, "hinf estimate vs binomial-count fit")


WORKLOADS = {"bouquet-deep": bouquet_deep, "finite-enum": finite_enum,
             "graph-dp": graph_dp, "preset-sweep": preset_sweep}
