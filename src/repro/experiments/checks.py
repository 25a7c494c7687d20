"""Shape checks: does each regenerated figure and study show what the
paper claims?

Absolute cycle counts are not the reproduction target (the substrate is a
model, not the authors' machine); the *shape* is.  Each check encodes one
claim — who wins, where the crossover falls, what stays flat — and
evaluates it against the regenerated data.  :data:`CHECKERS` maps a
registry job name to its checker; ``repro sweep`` and the test suite
evaluate them, and EXPERIMENTS.md tabulates the figures' claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.experiments.figures import FigureResult

__all__ = ["CHECKERS", "ClaimCheck", "check_figure", "check_job"]


@dataclass(frozen=True)
class ClaimCheck:
    """One paper claim evaluated against regenerated data.

    Attributes:
        figure_id: the figure's or study's job name.
        claim: the paper's statement, paraphrased.
        passed: whether the regenerated data shows it.
        detail: the measured quantity backing the verdict.
    """

    figure_id: str
    claim: str
    passed: bool
    detail: str


def _crossover(x_values, losing, winning):
    """First x where ``winning`` drops below ``losing`` (None if never)."""
    for x, lose, win in zip(x_values, losing, winning):
        if win < lose:
            return x
    return None


def _flatness(values) -> float:
    """max/min ratio of a curve (1.0 = perfectly flat)."""
    lo, hi = min(values), max(values)
    return hi / lo if lo > 0 else float("inf")


def _claims(job: str, *claims: tuple) -> list[ClaimCheck]:
    """``job``'s checks from ``(claim, passed, detail)`` triples."""
    return [ClaimCheck(job, claim, bool(passed), detail)
            for claim, passed, detail in claims]


def check_fig4(result: FigureResult) -> list[ClaimCheck]:
    mm4 = result.series_by_label("MM-model B=4K").values
    cc4 = result.series_by_label("CC-direct B=4K").values
    mm2 = result.series_by_label("MM-model B=2K").values
    cc2 = result.series_by_label("CC-direct B=2K").values
    cross4 = _crossover(result.x_values, mm4, cc4)
    cross2 = _crossover(result.x_values, mm2, cc2)
    return _claims(
        "fig4",
        ("CC-direct overtakes MM past t_m ~ 20 at B=4K (paper: 20)",
         cross4 is not None and 12 <= cross4 <= 28,
         f"crossover at t_m={cross4}"),
        ("CC-direct overtakes MM past t_m ~ 7 at B=2K (paper: 7)",
         cross2 is not None and 4 <= cross2 <= 12,
         f"crossover at t_m={cross2}"),
        ("at small t_m the cacheless machine is faster", cc4[0] > mm4[0],
         f"t_m={result.x_values[0]}: CC={cc4[0]:.2f} vs MM={mm4[0]:.2f}"))


def check_fig5(result: FigureResult) -> list[ClaimCheck]:
    claims = []
    for t_m in (8, 16):
        mm = result.series_by_label(f"MM-model t_m={t_m}").values
        cc = result.series_by_label(f"CC-direct t_m={t_m}").values
        claims.append((f"models perform the same at R=1 (t_m={t_m})",
                       abs(mm[0] - cc[0]) / mm[0] < 0.02,
                       f"MM={mm[0]:.2f} CC={cc[0]:.2f}"))
        claims.append((f"CC wins whenever R > 1 (t_m={t_m})",
                       all(c < m for c, m in zip(cc[1:], mm[1:])),
                       f"R=2: CC={cc[1]:.2f} MM={mm[1]:.2f}"))
    cc16 = result.series_by_label("CC-direct t_m=16").values
    tail_change = abs(cc16[-1] - cc16[-2]) / cc16[-2]
    return _claims(
        "fig5", *claims,
        ("diminishing returns: curve flattens at large R",
         tail_change < 0.05, f"last-step change {tail_change:.1%}"))


def check_fig6(result: FigureResult) -> list[ClaimCheck]:
    claims = []
    for t_m, lo, hi in ((16, 2048, 5120), (32, 3072, 7168)):
        mm = result.series_by_label(f"MM-model t_m={t_m}").values
        cc = result.series_by_label(f"CC-direct t_m={t_m}").values
        cross = _crossover(result.x_values, cc, mm)  # where MM gets cheaper
        claims.append((f"direct-mapped cache loses to MM past B ~ "
                       f"{'4K' if t_m == 16 else '5K'} (t_m={t_m})",
                       cross is not None and lo <= cross <= hi,
                       f"crossover at B={cross}"))
    return _claims("fig6", *claims)


def check_fig7(result: FigureResult) -> list[ClaimCheck]:
    mm, direct, prime = (result.series_by_label(label).values for label
                         in ("MM-model", "CC-direct", "CC-prime"))
    catch_up = _crossover(result.x_values, mm, direct)
    # the last point is t_m = 64 = M
    return _claims(
        "fig7",
        ("prime-mapped curve stays nearly flat", _flatness(prime) < 1.6,
         f"max/min = {_flatness(prime):.2f}"),
        ("at t_m=M=64 prime is ~3x faster than direct (paper: 3x)",
         2.0 <= direct[-1] / prime[-1] <= 4.5,
         f"ratio {direct[-1] / prime[-1]:.2f}"),
        ("at t_m=M=64 prime is ~5x faster than MM (paper: ~5x)",
         3.5 <= mm[-1] / prime[-1] <= 6.5, f"ratio {mm[-1] / prime[-1]:.2f}"),
        ("prime wins over the entire t_m range",
         all(p <= min(d, m) for p, d, m in zip(prime, direct, mm)),
         "pointwise minimum"),
        ("direct-mapped CC catches up with MM near t_m ~ 24 (paper: ~24)",
         catch_up is not None and 12 <= catch_up <= 36,
         f"direct overtakes MM at t_m={catch_up}"))


def check_fig8(result: FigureResult) -> list[ClaimCheck]:
    mm, direct, prime = (result.series_by_label(label).values for label
                         in ("MM-model", "CC-direct", "CC-prime"))
    cross = _crossover(result.x_values, direct, mm)
    return _claims(
        "fig8",
        ("direct crosses above MM near B ~ 3K (paper: ~3K)",
         cross is not None and 1536 <= cross <= 4608,
         f"crossover at B={cross}"),
        ("prime-mapped curve remains flat in B", _flatness(prime) < 1.4,
         f"max/min = {_flatness(prime):.2f}"),
        ("prime wins at every blocking factor",
         all(p <= min(d, m) * 1.001 for p, d, m in zip(prime, direct, mm)),
         "pointwise minimum"))


def check_fig9(result: FigureResult) -> list[ClaimCheck]:
    direct = result.series_by_label("CC-direct").values
    prime = result.series_by_label("CC-prime").values
    gaps = [d - p for d, p in zip(direct, prime)]
    tie = abs(direct[-1] - prime[-1]) / direct[-1]
    return _claims(
        "fig9",
        ("gap shrinks monotonically as P_stride1 grows",
         all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:])),
         f"gap {gaps[0]:.2f} -> {gaps[-1]:.2f}"),
        ("schemes tie at P_stride1 = 1", tie < 1e-4,
         f"relative difference {tie:.2e}"),
        ("prime wins whenever unit stride is not certain",
         all(p < d for p, d in zip(prime[:-1], direct[:-1])), "pointwise"))


def check_fig10(result: FigureResult) -> list[ClaimCheck]:
    direct = result.series_by_label("CC-direct").values
    prime = result.series_by_label("CC-prime").values
    ratios = [d / p for d, p in zip(direct[1:], prime[1:])]
    return _claims(
        "fig10",
        ("cycle time grows with the double-stream fraction",
         prime[-1] > prime[0] and direct[-1] > direct[0],
         f"prime {prime[0]:.2f}->{prime[-1]:.2f}"),
        ("prime beats direct over all P_ds",
         all(p <= d for p, d in zip(prime, direct)), "pointwise"),
        ("advantage ranges from ~40% to ~2x (paper: 40%-2x)",
         min(ratios) >= 1.2 and max(ratios) >= 1.8,
         f"ratios {min(ratios):.2f}..{max(ratios):.2f}"))


def check_fig11a(result: FigureResult) -> list[ClaimCheck]:
    direct = result.series_by_label("CC-direct").values
    prime = result.series_by_label("CC-prime").values
    return _claims(
        "fig11a",
        ("direct-mapped cache degrades as rows dominate",
         direct[-1] > direct[0] * 1.5, f"{direct[0]:.2f} -> {direct[-1]:.2f}"),
        ("prime-mapped performance is ~flat in the mix",
         _flatness(prime) < 1.1, f"max/min = {_flatness(prime):.2f}"),
        ("prime at least ties everywhere",
         all(p <= d * 1.001 for p, d in zip(prime, direct)), "pointwise"))


def check_fig11b(result: FigureResult) -> list[ClaimCheck]:
    ratios = [d / p for d, p in zip(
        result.series_by_label("CC-direct").values,
        result.series_by_label("CC-prime").values)]
    return _claims(
        "fig11b",
        ("prime outperforms direct for every B2",
         all(r >= 0.999 for r in ratios), f"min ratio {min(ratios):.2f}"),
        ("improvement exceeds 2x (paper: 'more than 2')", max(ratios) > 2.0,
         f"max ratio {max(ratios):.2f}"))


# the studies beyond the paper's figures


def check_ext_assoc(result: FigureResult) -> list[ClaimCheck]:
    one = result.series_by_label("1-way (cyclic)").values
    eight = result.series_by_label("8-way LRU").values
    prime = result.series_by_label("CC-prime").values
    gap = max(abs(a - b) / a for a, b in zip(one, eight))
    return _claims(
        "ext-assoc",
        ("8-way LRU is no better than one way on cyclic strided sweeps",
         gap < 0.02, f"largest gap {gap:.2%}"),
        ("the prime cache beats 8-way LRU at every B",
         all(p < b for p, b in zip(prime, eight)), "pointwise"))


def check_ext_missratio(result: FigureResult) -> list[ClaimCheck]:
    hits = result.series_by_label("direct hit ratio").values
    cc = result.series_by_label("direct cycles/result").values
    mm = result.series_by_label("MM cycles/result").values
    fallacies = [x for x, h, c, m in zip(result.x_values, hits, cc, mm)
                 if h > 0.8 and c > m]
    return _claims(
        "ext-missratio",
        ("a direct cache can hit over 80 % and still lose to MM",
         fallacies, f"at B={fallacies}"))


def check_ext_bandwidth(result: FigureResult) -> list[ClaimCheck]:
    return _claims(
        "ext-bandwidth",
        ("effective bandwidth never falls as banks are added",
         all(s.values == sorted(s.values) for s in result.series),
         f"{len(result.series)} curves"))


def check_ext_utilization(result: FigureResult) -> list[ClaimCheck]:
    direct = _flatness(result.series_by_label("CC-direct").values)
    prime = _flatness(result.series_by_label("CC-prime").values)
    return _claims(
        "ext-utilization",
        ("prime cost stays flat as more of the cache is used",
         prime < 1.25, f"max/min = {prime:.2f}"),
        ("direct cost more than doubles as more of the cache is used",
         direct > 2.0, f"max/min = {direct:.2f}"))


def check_subblock(rows) -> list[ClaimCheck]:
    usable = [r for r in rows if r.b1 > 0]
    best = max(r.prime_utilization for r in usable)
    folded = [r.leading_dimension for r in usable if r.direct_conflicts]
    return _claims(
        "subblock",
        ("every chosen prime-cache sub-block is conflict-free",
         all(r.prime_conflicts == 0 for r in usable), f"{len(usable)} P"),
        ("prime utilisation approaches 1 (> 95 %)", best > 0.95,
         f"best {best:.3f}"),
        ("the same shapes collide in the power-of-two cache", folded,
         f"at P={folded}"))


# the machine-measured figures, at canonical parameters only: the smoke
# twins sample too few points for these claims


def check_fig7_simulated(result: FigureResult) -> list[ClaimCheck]:
    mm, direct, prime = (result.series_by_label(label).values for label
                         in ("MM-model", "CC-direct", "CC-prime"))
    return _claims(
        "fig7-simulated",
        ("MM degrades fastest with the memory gap",
         mm[-1] / mm[0] > direct[-1] / direct[0],
         f"MM x{mm[-1] / mm[0]:.2f}, direct x{direct[-1] / direct[0]:.2f}"),
        ("at the largest t_m the cacheless machine is slowest",
         mm[-1] > max(direct[-1], prime[-1]),
         f"MM={mm[-1]:.2f} direct={direct[-1]:.2f} prime={prime[-1]:.2f}"),
        ("prime never loses to direct (2 % tolerance)",
         all(p <= d * 1.02 for p, d in zip(prime, direct)), "pointwise"))


def check_fig8_simulated(result: FigureResult) -> list[ClaimCheck]:
    mm, direct, prime = (result.series_by_label(label).values for label
                         in ("MM-model", "CC-direct", "CC-prime"))
    big, mid = result.x_values.index(8191), result.x_values.index(4096)
    return _claims(
        "fig8-simulated",
        ("direct crosses above MM as B fills the cache",
         direct[big] > mm[big], f"direct={direct[big]:.2f} MM={mm[big]:.2f}"),
        ("prime beats direct at B=4096", prime[mid] < direct[mid],
         f"prime={prime[mid]:.2f} direct={direct[mid]:.2f}"),
        ("prime beats direct by over 1.5x at B=8191",
         prime[big] < direct[big] / 1.5,
         f"ratio {direct[big] / prime[big]:.2f}"),
        ("the prime curve grows less than the direct curve",
         prime[big] / prime[0] < direct[big] / direct[0],
         f"prime x{prime[big] / prime[0]:.2f}, "
         f"direct x{direct[big] / direct[0]:.2f}"))


# the ablations: rows of an AblationResult (experiments.ablations)


def check_ablation_associativity(result) -> list[ClaimCheck]:
    direct, two, eight, prime = (
        result.row(label)[2]
        for label in ("direct 8192", "2-way LRU", "8-way LRU", "prime 8191"))
    prime_hits = result.row("prime 8191")[1]
    full_hits = result.row("fully assoc")[1]
    return _claims(
        "ablation-associativity",
        ("conflicts never grow with associativity",
         direct >= two >= eight, f"conflicts {direct}/{two}/{eight}"),
        ("deep stride folds still thrash 8 ways", eight > 0,
         f"{eight} conflicts"),
        ("the prime cache has no conflicts on sub-capacity sweeps",
         prime == 0, f"{prime} conflicts"),
        ("prime matches the fully-associative hit ratio",
         prime_hits >= full_hits - 0.01,
         f"{prime_hits:.3f} vs {full_hits:.3f}"))


def check_ablation_interleave(result) -> list[ClaimCheck]:
    low, skewed, prime = (result.row(label)[1] for label in
                          ("low-order 16", "skewed 16", "prime 17"))
    return _claims(
        "ablation-interleave",
        ("a power stride stalls low-order interleaving", low > 0,
         f"{low} stalls"),
        ("a prime bank count removes the bank stalls", prime == 0,
         f"{prime} stalls"),
        ("skewing stalls no more than low-order interleaving",
         skewed <= low, f"{skewed} vs {low} stalls"))


def check_ablation_linesize(result) -> list[ClaimCheck]:
    unit = [row[1] for row in result.rows]
    far = [row[2] for row in result.rows]
    return _claims(
        "ablation-linesize",
        ("unit stride: wider lines never hit less", unit == sorted(unit),
         f"{unit[0]:.3f} -> {unit[-1]:.3f}"),
        ("unit stride: the widest line beats one word", unit[-1] > unit[0],
         f"{unit[0]:.3f} -> {unit[-1]:.3f}"),
        ("long stride: wider lines hit less", far[-1] < far[0],
         f"{far[0]:.3f} -> {far[-1]:.3f}"))


def check_ablation_mappings(result) -> list[ClaimCheck]:
    conflicts = {(trace, mapping): n for trace, mapping, _, n in result.rows}
    prime = [n for (_, mapping), n in conflicts.items() if mapping == "prime"]
    xor_near, xor_far, xor_block = (
        conflicts[trace, "xor-hash"] for trace in
        ("stride-16 x3", "stride-16384 x3", "subblock P=384 x2"))
    column = conflicts["stride-16 x3", "column-assoc"]
    direct = conflicts["stride-16 x3", "direct"]
    return _claims(
        "ablation-mappings",
        ("the prime modulus has no conflicts on any access family",
         not any(prime), f"conflicts {prime}"),
        ("the XOR hash removes the in-reach stride's conflicts",
         xor_near == 0, f"{xor_near} conflicts"),
        ("the XOR hash's linearity gives out at 2^(2c)", xor_far > 0,
         f"{xor_far} conflicts"),
        ("the XOR hash folds the P=384 sub-block prime holds",
         xor_block > 0, f"{xor_block} conflicts"),
        ("column associativity only doubles the folded footprint",
         column > 0, f"{column} conflicts"),
        ("direct mapping conflicts on the strided sweep", direct > 0,
         f"{direct} conflicts"))


def check_ablation_prefetch(result) -> list[ClaimCheck]:
    fold = result.row("stride-64 x3 sweeps", "prime")
    refetched = result.row("stride-64 x3 sweeps", "direct+stride")[4]
    fft_prime = result.row("FFT n=256", "prime")
    fft_direct = [result.row("FFT n=256", label)
                  for label in ("direct", "direct+seq", "direct+stride")]
    return _claims(
        "ablation-prefetch",
        ("the prime cache fetches each of the 100 swept lines once",
         fold[4] == 100, f"traffic {fold[4]}"),
        ("the prime cache has no conflicts on the folding stride",
         fold[3] == 0, f"{fold[3]} conflicts"),
        ("stride prefetching still refetches the folded lines",
         refetched > 250, f"direct+stride traffic {refetched}"),
        ("on the FFT the prime cache needs the least memory traffic",
         all(fft_prime[4] < row[4] for row in fft_direct),
         f"{fft_prime[4]} vs {[row[4] for row in fft_direct]}"),
        ("on the FFT every direct-mapped contender conflicts",
         all(row[3] > 0 for row in fft_direct),
         f"conflicts {[row[3] for row in fft_direct]}"),
        ("on the FFT the prime cache has no conflicts", fft_prime[3] == 0,
         f"{fft_prime[3]} conflicts"))


def check_ablation_prime_linesize(result) -> list[ClaimCheck]:
    pow2 = [result.row(size, "power-of-two") for size in (1, 2, 4, 8)]
    unit = [result.row(size, "unit") for size in (1, 2, 4, 8)]
    unit_hits = [row[3] for row in unit]
    return _claims(
        "ablation-prime-linesize",
        ("a power-of-two stride folds the direct cache at every L",
         all(row[4] > 0 for row in pow2),
         f"conflicts {[row[4] for row in pow2]}"),
        ("the same stride never conflicts in the prime cache",
         all(row[5] == 0 for row in pow2),
         f"conflicts {[row[5] for row in pow2]}"),
        ("prime out-hits direct on the power-of-two stride",
         all(row[3] > row[2] for row in pow2), "every line size"),
        ("unit stride: both mappings hit alike",
         all(row[2] == row[3] for row in unit), "every line size"),
        ("unit stride: the prime cache never conflicts",
         all(row[5] == 0 for row in unit), "every line size"),
        ("unit-stride hit ratios grow with the line size",
         unit_hits == sorted(unit_hits),
         f"{unit_hits[0]:.3f} -> {unit_hits[-1]:.3f}"))


def check_ablation_replacement(result) -> list[ClaimCheck]:
    lru, fifo, rand, opt = (result.row(policy) for policy in
                            ("lru", "fifo", "random", "opt (clairvoyant)"))
    return _claims(
        "ablation-replacement",
        ("cyclic over-capacity sweeps: LRU hits nothing", lru[1] == 0.0,
         f"{lru[1]:.3f}"),
        ("cyclic over-capacity sweeps: FIFO hits nothing", fifo[1] == 0.0,
         f"{fifo[1]:.3f}"),
        ("random does no worse than LRU on the cyclic sweep",
         rand[1] >= lru[1], f"{rand[1]:.3f}"),
        ("hot/cold reuse: LRU keeps the hot vector, FIFO evicts it",
         lru[2] > fifo[2], f"LRU {lru[2]:.3f}, FIFO {fifo[2]:.3f}"),
        ("hot/cold reuse: LRU hits over 30 %", lru[2] > 0.3,
         f"{lru[2]:.3f}"),
        ("a clairvoyant policy extracts reuse from the cyclic sweep",
         opt[1] > lru[1], f"OPT {opt[1]:.3f}, LRU {lru[1]:.3f}"),
        ("a clairvoyant policy at least ties LRU on reuse",
         opt[2] >= lru[2], f"OPT {opt[2]:.3f}, LRU {lru[2]:.3f}"))


def check_ablation_sensitivity(result) -> list[ClaimCheck]:
    rows = result.rows
    paper = next(r for r in rows if r[0].startswith("paper"))
    short = next(r for r in rows if "MVL=16" in r[0])
    return _claims(
        "ablation-sensitivity",
        ("prime beats direct under every constant set",
         all(r[3] <= r[2] for r in rows), f"{len(rows)} sets"),
        ("prime beats MM under every constant set",
         all(r[3] <= r[1] for r in rows), f"{len(rows)} sets"),
        ("prime beats direct by over 1.4x in every set",
         all(r[4] > 1.4 for r in rows),
         f"smallest {min(r[4] for r in rows):.2f}x"),
        ("MVL moves the MM model", short[1] != paper[1],
         f"{paper[1]:.3f} at MVL=64, {short[1]:.3f} at MVL=16"))


def check_ablation_victim(result) -> list[ClaimCheck]:
    pair, pair4 = (result.row("ping-pong pair", cache)[3]
                   for cache in ("direct", "direct+victim4"))
    swept16, prime = (result.row("stride-16 x3 sweeps", cache)[3]
                      for cache in ("direct+victim16", "prime"))
    return _claims(
        "ablation-victim",
        ("4 victim entries absorb ping-pong to the compulsory pair",
         pair4 == 2, f"{pair4} fetches"),
        ("without a victim buffer ping-pong refetches every access",
         pair == 80, f"{pair} fetches"),
        ("16 victim entries barely dent strided refetches",
         swept16 > prime * 2, f"{swept16} vs prime {prime}"),
        ("the prime cache fetches only the 100 compulsory lines",
         prime == 100, f"{prime} fetches"))


# the studies of experiments.studies and the validation grid


def check_address_gen(result) -> list[ClaimCheck]:
    costs = result.costs
    return _claims(
        "address-gen",
        ("stepping costs one c-bit add per element",
         costs.element_passes == result.length - 1,
         f"{costs.element_passes} adds, {result.length} elements"),
        ("folding a 29-bit line address costs at most 2 adds",
         costs.conversion_passes <= 2, f"{costs.conversion_passes} adds"),
        ("one start conversion per vector", costs.start_conversions == 1,
         f"{costs.start_conversions}"),
        ("one stride conversion per vector", costs.stride_conversions == 1,
         f"{costs.stride_conversions}"))


def check_bandwidth(result) -> list[ClaimCheck]:
    cycles = dict(result.rows)
    mm16, mm32, mm256, mm512 = (cycles[f"MM, {banks} banks"]
                                for banks in (16, 32, 256, 512))
    cached = cycles["CC-prime, 16 banks"]
    return _claims(
        "bandwidth",
        ("more banks help the cacheless machine", mm16 > mm512,
         f"{mm16:.2f} -> {mm512:.2f}"),
        ("bank doublings show diminishing returns",
         mm256 - mm512 < mm16 - mm32,
         f"first {mm16 - mm32:.2f}, last {mm256 - mm512:.2f}"),
        ("a prime cache on 16 banks is 1.8x faster than 16 banks",
         cached < mm16 / 1.8, f"{mm16 / cached:.2f}x"),
        ("a prime cache on 16 banks is within 5 % of 32 banks",
         cached < mm32 * 1.05, f"{cached:.2f} vs {mm32:.2f}"))


def check_workloads(result) -> list[ClaimCheck]:
    rows = result.rows
    fft = next(r for r in rows if "radix-2" in r[0])
    return _claims(
        "workloads",
        ("prime never conflicts more than direct",
         all(r[4] <= r[3] for r in rows), f"{len(rows)} kernels"),
        ("prime never hits 2 points less than direct",
         all(r[2] >= r[1] - 0.02 for r in rows), f"{len(rows)} kernels"),
        ("prime beats direct on the radix-2 FFT", fft[2] > fft[1],
         f"{fft[2]:.3f} vs {fft[1]:.3f}"))


def check_programs(result) -> list[ClaimCheck]:
    cycles = {(r[0], r[1]): r[2] for r in result.rows}
    speedup = {program: cycles[program, "CC direct 128"]
               / cycles[program, "CC prime 127"]
               for program, _ in cycles}
    matmul = speedup["blocked matmul 32^3 b=8"]
    fft = speedup["blocked FFT 64x64"]
    return _claims(
        "programs",
        ("the prime machine is never slower than the direct one",
         min(speedup.values()) >= 1, f"{len(speedup)} programs"),
        ("prime beats direct on blocked matmul (ld = 32)", matmul > 1,
         f"{matmul:.2f}x"),
        ("prime beats direct on the 64x64 FFT", fft > 1, f"{fft:.2f}x"))


def check_validation(points) -> list[ClaimCheck]:
    smooth = max(p.relative_error for p in points
                 if p.model in ("mm", "prime"))
    bursty = max(p.relative_error for p in points if p.model == "direct")
    return _claims(
        "validation",
        ("MM and prime predictions are within 35 % of the machine",
         smooth < 0.35, f"worst {smooth:.1%}"),
        ("direct predictions are within 100 % (bursty conflicts)",
         bursty < 1.0, f"worst {bursty:.1%}"))


#: Registry job name -> the checker of that job's result.  A checker is
#: named after its job: ``check_ablation_victim`` checks
#: ``ablation-victim``.
CHECKERS: dict[str, Callable[[Any], list[ClaimCheck]]] = {
    checker.__name__[len("check_"):].replace("_", "-"): checker
    for checker in (
        check_fig4, check_fig5, check_fig6, check_fig7, check_fig8,
        check_fig9, check_fig10, check_fig11a, check_fig11b,
        check_ext_assoc, check_ext_missratio, check_ext_bandwidth,
        check_ext_utilization, check_subblock, check_fig7_simulated,
        check_fig8_simulated, check_ablation_associativity,
        check_ablation_interleave, check_ablation_linesize,
        check_ablation_mappings, check_ablation_prefetch,
        check_ablation_prime_linesize, check_ablation_replacement,
        check_ablation_sensitivity, check_ablation_victim,
        check_address_gen, check_bandwidth, check_workloads,
        check_programs, check_validation)
}


def check_job(name: str, result: Any) -> list[ClaimCheck]:
    """The claims of job ``name`` on its ``result`` (none if unchecked)."""
    checker = CHECKERS.get(name)
    return checker(result) if checker is not None else []


def check_figure(result: FigureResult) -> list[ClaimCheck]:
    """Evaluate every encoded claim for one regenerated figure."""
    if result.figure_id not in CHECKERS:
        raise ValueError(f"no checks registered for {result.figure_id!r}")
    return CHECKERS[result.figure_id](result)
