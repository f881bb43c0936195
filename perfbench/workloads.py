"""The benchmark's workloads: seeded inputs, rounds of ops, output checks.

Every workload is a closed loop with one caller: the runner issues an op,
waits for it to return or raise, checks it, then issues the next.  An op is
one call into a public entry point of ``bintab``.  A workload builds its
inputs once per set-up from the workload seed (``setup``) and then serves
rounds of ops (``round``); round ``r`` draws from input slot
``r % SLOTS``, so every round has the same mix of ops and a run that is
cut at a round boundary measures that mix whatever its length.

Checks compare each output with a reference computed here, in numpy and
scipy, independently of the library.  A check raises :class:`CheckFailed`;
the runner counts that op as failed and goes on.  An op whose input is a
known hard case may end in one of its ``may_raise`` typed errors instead of
an answer: that is counted as an error (it lowers ``answer_rate``) but not
as a failed check.

Why these rounds (``BENCHMARK.json`` runs ``search_power``, ``fit`` and
``cli``; ``search_power`` is a ``search`` round followed by a ``power``
round):

* ``search`` -- random-table trials through ``paradox_search``,
  ``property_battery`` and ``simpson_scan`` at k=3, 4: the per-table path
  of ``table``, ``assoc`` and ``collapsibility``.  Never reaches
  ``paramset`` or ``structure``.
* ``fit`` -- parameter round trips (LOR fit, DI transform, canonical form,
  decomposition) over a corpus with k=2..7, plus forward transforms up to
  k=16 and one realizable wide-spread LOR target per round that the fit
  cannot reach today.  Never reaches ``collapsibility`` or ``sampling``.
* ``power`` -- exact and normal decision probabilities for N up to 10^6
  and Monte Carlo sign studies on count rows with zeros: ``sampling`` and
  the array side of ``assoc``.  Includes a LOR study at k=3, N=100 that
  aborts today.
* ``cli`` -- ``bintab.cli.main`` in-process on fixture files, all seven
  subcommands: the only workload where ``io`` and ``cli`` carry time.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIGN_TAU = 1e-9


class CheckFailed(Exception):
    """An op's output disagrees with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One call into the library plus the check of its output.

    ``check(result)`` returns how many ``unit``s of work the op completed
    (random-table trials, Monte Carlo replications) or raises
    :class:`CheckFailed`; ops without a unit return 0.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], int]
    may_raise: tuple = ()
    unit: str = ""


# -- references ------------------------------------------------------------


def parity_signs(n: int) -> np.ndarray:
    """+1 on even-popcount indices, -1 on odd, over ``range(n)``."""
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(n, dtype=np.uint64)) & 1)


def log_uniform(rng: np.random.Generator, k: int, spread: float) -> np.ndarray:
    return np.exp(rng.uniform(-spread, spread, size=2**k))


def keyed_table(seed: int, trial: int, k: int) -> np.ndarray:
    """The table a seeded search or battery draws at ``trial``."""
    return log_uniform(np.random.default_rng((seed, trial)), k, 3.0)


def lor_params_ref(entries: np.ndarray, k: int) -> np.ndarray:
    """All 2^k LOR parameters via the (3,)*k marginal lattice.

    Each axis is extended to (x1, x2, x1 + x2); after the log, each axis
    folds to (collapsed, x1 - x2), so cell m of the result is the log
    contrast of the marginal over the variables whose mask bit is 1.
    """
    lattice = entries.reshape((2,) * k)
    for axis in range(k):
        a, b = np.take(lattice, [0], axis), np.take(lattice, [1], axis)
        lattice = np.concatenate((a, b, a + b), axis=axis)
    lattice = np.log(lattice)
    for axis in range(k):
        a, b, s = (np.take(lattice, [i], axis) for i in range(3))
        lattice = np.concatenate((s, a - b), axis=axis)
    values = lattice.reshape(-1).copy()
    values[0] = math.fsum(np.log(entries))
    return values


def di_params_ref(entries: np.ndarray, k: int) -> np.ndarray:
    """All 2^k DI parameters: per axis (x1 + x2, x1 - x2)."""
    arr = entries.reshape((2,) * k)
    for axis in range(k):
        a, b = np.take(arr, [0], axis), np.take(arr, [1], axis)
        arr = np.concatenate((a + b, a - b), axis=axis)
    return arr.reshape(-1)


_H = {"lor": np.log, "di": lambda x: x, "ex": np.exp}


def scan_ref(entries: np.ndarray, k: int, kind: str):
    """Layer and collapsed values, thresholded signs and paradox flags.

    ``entries`` has shape (T, 2^k); returns arrays of shape (T, k, 3) for
    values and signs and (T, k) for the paradox flag, variable-major.
    """
    h = _H[kind]
    arr = entries.reshape((-1,) + (2,) * k)
    signs_small = parity_signs(2 ** (k - 1))
    values = np.empty((arr.shape[0], k, 3))
    scales = np.empty_like(values)
    for axis in range(k):
        parts = (np.take(arr, 0, axis + 1), np.take(arr, 1, axis + 1),
                 arr.sum(axis=axis + 1))
        for j, part in enumerate(parts):
            hv = h(part.reshape(arr.shape[0], -1))
            values[:, axis, j] = hv @ signs_small
            scales[:, axis, j] = np.abs(hv).sum(axis=1)
    signs = np.where(np.abs(values) <= SIGN_TAU * scales, 0, np.sign(values)).astype(int)
    paradox = ((signs[..., 0] == signs[..., 1]) & (signs[..., 0] != 0)
               & (signs[..., 2] != signs[..., 0]))
    return values, scales, signs, paradox


# -- helpers shared by the workloads ------------------------------------------


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.abs(b)))


def _check_lor_fit(target: np.ndarray, k: int) -> Callable[[object], int]:
    def check(table) -> int:
        residual = float(np.max(np.abs(lor_params_ref(table.entries, k) - target)))
        require(residual < 1e-8, f"LOR fit residual {residual:.3e} at k={k}")
        return 0
    return check


def _check_witness(bt, kind, k: int, seed: int, memo: dict) -> Callable[[object], int]:
    """The witness is the first keyed table that reverses, and reproduces."""
    def check(witness) -> int:
        require(witness is not None, f"{kind.name} search at k={k} found no witness")
        key = (kind.name, k, seed)
        if key not in memo:
            trial, batch = 0, 64
            while True:
                rows = np.stack([keyed_table(seed, t, k) for t in range(trial, trial + batch)])
                hits = np.flatnonzero(scan_ref(rows, k, kind.name)[3].any(axis=1))
                if hits.size:
                    memo[key] = (trial + int(hits[0]), rows[hits[0]])
                    break
                trial += batch
                require(trial < 100_000, "reference found no witness")
        index, expected = memo[key]
        require(np.array_equal(witness.entries, expected),
                f"{kind.name} witness at k={k} seed={seed} is not keyed trial {index}")
        reports = [bt.collapse_check(witness, kind, i) for i in range(1, k + 1)]
        require(any(r.paradox for r in reports), "witness is not a paradox per collapse_check")
        return index + 1
    return check


# -- workloads ---------------------------------------------------------------


class Search:
    """Random-table trials: seeded searches, property batteries, scans.

    A round holds LOR and EX searches that run until their first witness
    (a geometric number of trials), DI searches that always use their whole
    budget, property batteries of a fixed trial count, and scans.  The
    fixed-cost ops come in blocks -- four equal DI searches at the top,
    six k=3 batteries of about equal cost in the middle -- so the latency
    p90 and p50 fall among ops whose cost does not depend on the seed.
    """

    name = "search"
    SLOTS = 64
    SEARCH_BUDGET = 100_000
    DI_SEARCHES = 4
    DI_BUDGET = 150
    BATTERY_TRIALS = 30
    KS = (3, 4)
    SCANS_PER_K = 4

    def setup(self, bt, seed: int, workdir: str) -> None:
        self.bt = bt
        rng = np.random.default_rng((seed, 1))
        self.searches = [(bt.LOR, 3), (bt.EX, 3), (bt.LOR, 4), (bt.EX, 4)] * 2
        self.battery_kinds = ([(bt.LOR, 3), (bt.DI, 3), (bt.EX, 3)] * 2 + [(bt.BAHADUR, 3)]
                              + [(kind, 4) for kind in (bt.LOR, bt.DI, bt.EX, bt.BAHADUR)])
        self.search_seeds = rng.integers(1, 2**31, size=(self.SLOTS, len(self.searches)))
        self.di_seeds = rng.integers(1, 2**31, size=(self.SLOTS, self.DI_SEARCHES))
        self.battery_seeds = rng.integers(1, 2**31, size=(self.SLOTS, len(self.battery_kinds)))
        self.scan_tables = {
            k: [bt.BinaryTable(k, log_uniform(rng, k, 3.0))
                for _ in range(self.SLOTS * self.SCANS_PER_K)]
            for k in self.KS
        }
        self.witnesses: dict = {}
        self.batteries: dict = {}

    def warmup(self) -> None:
        bt = self.bt
        bt.paradox_search(bt.LOR, 3, 1000, 1)
        bt.property_battery(bt.EX, 3, 2, 1)
        bt.simpson_scan(self.scan_tables[3][0], [bt.LOR, bt.DI, bt.EX])

    def _battery_check(self, kind, k: int, seed: int) -> Callable[[object], int]:
        # LOR satisfies all three properties; DI and EX are not conditionally
        # invariant; Bahadur may also fail monotonicity.  Swaps always flip.
        allowed = {"lor": (), "di": ("conditional_invariance",),
                   "ex": ("conditional_invariance",),
                   "bahadur": ("conditional_invariance", "monotone")}[kind.name]

        def check(summary) -> int:
            require(summary.trials == self.BATTERY_TRIALS and summary.kind == kind.name,
                    "battery summary does not echo its request")
            for prop, count in summary.failures.items():
                require(0 <= count <= summary.trials, f"{prop} count {count} out of range")
                require(count == 0 or prop in allowed,
                        f"{kind.name} battery at k={k}: {count} {prop} failures")
            key = (kind.name, k, seed)
            first = self.batteries.setdefault(key, dict(summary.failures))
            require(first == summary.failures, "battery not reproducible for its seed")
            return summary.trials
        return check

    def _scan_check(self, table, kinds) -> Callable[[object], int]:
        def check(reports) -> int:
            k = table.k
            require(len(reports) == k * len(kinds), "scan report count")
            refs = {kind.name: scan_ref(table.entries[None, :], k, kind.name) for kind in kinds}
            for report in reports:
                values, scales, _, paradox = refs[report.kind]
                i = report.variable - 1
                got = np.array(report.values)
                tol = 1e-9 * scales[0, i] + 1e-300
                require(np.all(np.abs(got - values[0, i]) <= tol),
                        f"scan {report.kind} values off at variable {report.variable}")
                clear = np.all(np.abs(values[0, i]) > 1e-6 * scales[0, i])
                if clear:
                    require(report.paradox == bool(paradox[0, i]),
                            f"scan {report.kind} paradox flag at variable {report.variable}")
            return 0
        return check

    def round(self, r: int) -> list:
        bt = self.bt
        slot = r % self.SLOTS
        ops = []
        for (kind, k), s in zip(self.searches, self.search_seeds[slot].tolist()):
            ops.append(Op(f"paradox_search.{kind.name}.k{k}",
                          lambda kind=kind, k=k, s=s: bt.paradox_search(kind, k, self.SEARCH_BUDGET, s),
                          _check_witness(bt, kind, k, s, self.witnesses), unit="trials"))
        for s in self.di_seeds[slot].tolist():
            def di_check(result):
                require(result is None, "DI search at k=3 returned a witness")
                return self.DI_BUDGET
            ops.append(Op("paradox_search.di.k3",
                          lambda s=s: bt.paradox_search(bt.DI, 3, self.DI_BUDGET, s),
                          di_check, unit="trials"))
        for (kind, k), s in zip(self.battery_kinds, self.battery_seeds[slot].tolist()):
            ops.append(Op(f"property_battery.{kind.name}.k{k}",
                          lambda kind=kind, k=k, s=s: bt.property_battery(kind, k, self.BATTERY_TRIALS, s),
                          self._battery_check(kind, k, s), unit="trials"))
        kinds = [bt.LOR, bt.DI, bt.EX]
        for k in self.KS:
            for table in self.scan_tables[k][self.SCANS_PER_K * slot: self.SCANS_PER_K * (slot + 1)]:
                ops.append(Op(f"simpson_scan.k{k}", lambda t=table: bt.simpson_scan(t, kinds),
                              self._scan_check(table, kinds)))
        # the round's first search again: the same seed must give the same witness
        ops.append(Op(ops[0].label + ".repeat", ops[0].call, ops[0].check, unit="trials"))
        return ops


class Fit:
    """Parameter round trips over a corpus with k=2..7 and wider transforms.

    The costly fits -- the k=6 and k=7 round trips and the wide-spread
    target -- come from a fixed corpus, shown to the library under a
    relabelling of variables and categories drawn from the workload seed.
    Their cost depends mostly on the table itself and has a heavy tail, and
    a run holds only a handful of them, so fresh draws would move the
    run's throughput by more than any useful bound.  The cheaper fits and
    the transforms are drawn fresh from the seed.
    """

    name = "fit"
    SLOTS = 16
    ROUND_TRIP_KS = (2,) * 6 + (3,) * 4 + (4,) * 3 + (5,) * 2
    CORPUS_KS = (6, 7)
    # k=8 forward transforms take the same time whatever the entries, about
    # as long as a k=3 fit; sixteen of them put the latency p90 inside a
    # block of equal-cost ops that the k=3 fits cannot shift
    FORWARD_KS = (8,) * 16 + (9, 10)
    DI_KS = tuple(range(8, 17))
    WIDE = (6, 10)  # k, spread: realizable targets the LOR fit fails on today
    CORPUS_SEED = 2014

    @staticmethod
    def _relabel(entries: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
        """Permute the variables and swap the categories of a random subset."""
        arr = np.transpose(entries.reshape((2,) * k), rng.permutation(k))
        flips = tuple(axis for axis in range(k) if rng.random() < 0.5)
        return (np.flip(arr, flips) if flips else arr).reshape(-1)

    def setup(self, bt, seed: int, workdir: str) -> None:
        self.bt = bt
        rng = np.random.default_rng((seed, 2))
        corpus = [log_uniform(np.random.default_rng((self.CORPUS_SEED, k, 3)), k, 3.0)
                  for k in self.CORPUS_KS]
        k_wide, spread = self.WIDE
        wide = log_uniform(np.random.default_rng((self.CORPUS_SEED, k_wide, spread)), k_wide, spread)
        self.slots = []
        for _ in range(self.SLOTS):
            self.slots.append({
                "round_trip": [bt.BinaryTable(k, log_uniform(rng, k, 3.0))
                               for k in self.ROUND_TRIP_KS]
                + [bt.BinaryTable(k, self._relabel(e, k, rng)) for k, e in zip(self.CORPUS_KS, corpus)],
                "forward": [bt.BinaryTable(k, log_uniform(rng, k, 3.0)) for k in self.FORWARD_KS],
                "di": [bt.BinaryTable(k, log_uniform(rng, k, 3.0)) for k in self.DI_KS],
                "wide": bt.BinaryTable(k_wide, self._relabel(wide, k_wide, rng)),
            })

    def warmup(self) -> None:
        bt = self.bt
        t = self.slots[0]["round_trip"][6]
        bt.lor_inverse(bt.full_params(t, "lor"))
        bt.di_inverse(bt.di_forward_fast(t))
        bt.recompose(bt.decompose(t))
        bt.canonicalize(t)

    def _lor_ops(self, table, tag="") -> list:
        """full_params(lor) then lor_inverse to 1e-8, checked against the lattice.

        The LOR fit does not yet converge on every realizable target: some
        e^±3 tables at k=5 and every wide-spread target end in a typed
        ``ConvergenceError`` or ``EvaluationError``, which counts as an
        error of the op, not as a failed check.
        """
        bt, k = self.bt, table.k
        target = lor_params_ref(table.entries, k)
        state = {}

        def forward():
            state["params"] = bt.full_params(table, "lor")
            return state["params"]

        def check_forward(params) -> int:
            require(params.kind == "lor" and params.k == k, "LOR param set header")
            err = float(np.max(np.abs(params.values - target)))
            require(err < 1e-9, f"full_params lor off by {err:.3e} at k={k}")
            return 0

        return [
            Op(f"full_params.lor.{tag}k{k}", forward, check_forward),
            Op(f"lor_inverse.{tag}k{k}", lambda: bt.lor_inverse(state["params"], tol=1e-8),
               _check_lor_fit(target, k), (bt.ConvergenceError, bt.EvaluationError)),
        ]

    def _di_ops(self, table) -> list:
        """di_forward_fast then di_inverse, round trip to 1e-12."""
        bt, k, entries = self.bt, table.k, table.entries
        state = {}

        def forward():
            state["params"] = bt.di_forward_fast(table)
            return state["params"]

        def check_forward(params) -> int:
            err = float(np.max(np.abs(params.values - di_params_ref(entries, k))) / entries.sum())
            require(err < 1e-12, f"di_forward_fast off by {err:.3e} at k={k}")
            return 0

        def check_back(back) -> int:
            err = _max_rel(back.entries, entries)
            require(err < 1e-12, f"DI round trip off by {err:.3e} at k={k}")
            return 0

        return [
            Op(f"di_forward_fast.k{k}", forward, check_forward),
            Op(f"di_inverse.k{k}", lambda: bt.di_inverse(state["params"]), check_back),
        ]

    def _structure_ops(self, table) -> list:
        """canonicalize, then decompose and recompose to 1e-12."""
        bt, k, entries = self.bt, table.k, table.entries
        state = {}

        def check_canonical(trace) -> int:
            final = trace.final.entries
            odds = math.exp(float(lor_params_ref(entries, k)[-1]))
            require(np.allclose(final[1:], 1.0, rtol=0, atol=1e-10), "canonical table not all ones")
            require(math.isclose(final[0], odds, rel_tol=1e-10), "canonical cell is not the odds ratio")
            return 0

        def decompose():
            state["dec"] = bt.decompose(table)
            return state["dec"]

        def check_decompose(d) -> int:
            parts = [t.entries for t in d.pair_components] + [t.entries for _, t in d.peak_components]
            require(all(np.all(p > 0) for p in parts), "decomposition has a nonpositive cell")
            require(_max_rel(np.sum(parts, axis=0), entries) < 1e-12, "components do not sum back")
            return 0

        def check_recompose(back) -> int:
            err = _max_rel(back.entries, entries)
            require(err < 1e-12, f"recompose off by {err:.3e} at k={k}")
            return 0

        return [
            Op(f"canonicalize.k{k}", lambda: bt.canonicalize(table), check_canonical),
            Op(f"decompose.k{k}", decompose, check_decompose),
            Op(f"recompose.k{k}", lambda: bt.recompose(state["dec"]), check_recompose),
        ]

    def round(self, r: int) -> list:
        slot = self.slots[r % self.SLOTS]
        ops = []
        for table in slot["round_trip"]:
            ops += self._lor_ops(table) + self._di_ops(table) + self._structure_ops(table)
        for table in slot["forward"]:
            ops += self._lor_ops(table)[:1]
        for table in slot["di"]:
            ops += self._di_ops(table)
        ops += self._lor_ops(slot["wide"], tag="wide.")
        return ops


class Power:
    """Decision probabilities: exact and normal tails, Monte Carlo sign studies.

    A round evaluates the exact and normal tails once at each N from 10^2
    to 10^6, traces power curves over a grid of p at N=10^4 and N=10^5,
    and runs Monte Carlo studies.  The exact tail costs the same for every
    p at a given N, so the two curves are blocks of equal-cost ops: the
    latency p50 falls inside the N=10^4 block and the p90 inside the
    N=10^5 block, whichever Monte Carlo studies abort.
    """

    name = "power"
    SLOTS = 64
    NS = (10**2, 10**3, 10**4, 10**5, 10**6)
    CURVES = ((10**4, 44), (10**5, 6))  # (N, grid points)
    DI_REPS = 20_000
    ROW_REPS = 200

    def setup(self, bt, seed: int, workdir: str) -> None:
        from scipy import special, stats
        self.bt, self.binom, self.ndtr = bt, stats.binom, special.ndtr
        rng = np.random.default_rng((seed, 3))
        self.slots = []
        for _ in range(self.SLOTS):
            slot = {"tails": [(N, 0.5 + float(rng.uniform(-3, 3)) / math.sqrt(N)) for N in self.NS]}
            for N, points in self.CURVES:
                offsets = np.linspace(-3, 3, points) + rng.uniform(-0.1, 0.1)
                slot["tails"] += [(N, 0.5 + float(d) / math.sqrt(N)) for d in offsets]
            slot["rows"] = [(bt.BinaryTable(k, log_uniform(rng, k, 3.0)), N,
                             int(rng.integers(1, 2**31)))
                            for k in (2, 3) for N in (100, 1000)]
            self.slots.append(slot)
        # The DI studies are checked against the exact tail at 4 SE, a test
        # that a correct program fails with probability 6e-5; the same four
        # studies recur in every round so a run makes only four such tests.
        # Parity-class masses near 1/2 keep P(DI > 0) inside (0, 1).
        self.di_studies = []
        for k in (2, 3):
            for N in (100, 1000):
                p = 0.5 + float(rng.uniform(-1.5, 1.5)) / math.sqrt(N)
                e = log_uniform(rng, k, 3.0)
                even = parity_signs(2**k) > 0
                e = np.where(even, e * p / e[even].sum(), e * (1 - p) / e[~even].sum())
                self.di_studies.append((bt.BinaryTable(k, e), N, p, int(rng.integers(1, 2**31))))
        self.studies: dict = {}

    def warmup(self) -> None:
        bt = self.bt
        bt.prob_di_positive_exact(1000, 0.51)
        bt.prob_di_positive_normal(1000, 0.51)
        table, N, _, seed = self.di_studies[0]
        bt.simulate_decisions(table, N, bt.DI, 100, seed)
        table, N, seed = self.slots[0]["rows"][2]
        bt.simulate_decisions(table, N, bt.EX, 20, seed)

    def _check_freqs(self, key, reps: int, freqs: dict) -> None:
        require(set(freqs) == {"positive", "zero", "negative"}, "frequency keys")
        values = np.array(list(freqs.values()))
        require(np.all(values >= 0) and abs(values.sum() - 1.0) < 1e-12, "frequencies do not sum to 1")
        require(np.allclose(values * reps, np.round(values * reps), atol=1e-6),
                "frequencies are not counts over the replications")
        first = self.studies.setdefault(key, freqs)
        require(first == freqs, "Monte Carlo study not reproducible for its seed")

    def round(self, r: int) -> list:
        bt = self.bt
        slot = self.slots[r % self.SLOTS]
        ops = []
        for i, (N, p) in enumerate(slot["tails"]):
            def check_exact(value, N=N, p=p):
                ref = float(self.binom.sf(N // 2, N, p))
                require(abs(value - ref) <= 1e-9 * ref + 1e-300,
                        f"exact tail {value!r} vs scipy {ref!r} at N={N}")
                return 0

            def check_normal(value, N=N, p=p):
                ref = float(self.ndtr(math.sqrt(N) * (p - 0.5) / math.sqrt(p * (1 - p))))
                require(abs(value - ref) <= 1e-13, f"normal tail {value!r} vs {ref!r} at N={N}")
                return 0
            ops.append(Op(f"prob_di_positive_exact.N{N}",
                          lambda N=N, p=p: bt.prob_di_positive_exact(N, p), check_exact))
            if i < len(self.NS):
                ops.append(Op(f"prob_di_positive_normal.N{N}",
                              lambda N=N, p=p: bt.prob_di_positive_normal(N, p), check_normal))
        for table, N, p, seed in self.di_studies:
            def check_di(freqs, table=table, N=N, p=p, seed=seed):
                self._check_freqs(("di", table.k, N, seed), self.DI_REPS, freqs)
                exact = float(self.binom.sf(N // 2, N, p))
                se = math.sqrt(exact * (1 - exact) / self.DI_REPS)
                require(abs(freqs["positive"] - exact) <= 4 * se + 1e-12,
                        f"DI Monte Carlo {freqs['positive']} vs exact {exact} (4 SE = {4 * se:.2e})")
                return self.DI_REPS
            ops.append(Op(f"simulate_decisions.di.k{table.k}.N{N}",
                          lambda t=table, N=N, s=seed: bt.simulate_decisions(t, N, bt.DI, self.DI_REPS, s),
                          check_di, unit="replications"))
        for kind in (bt.LOR, bt.EX, bt.BAHADUR):
            # a sample with an undefined LOR or Bahadur sign aborts the study today
            may_raise = () if kind is bt.EX else (bt.EvaluationError,)
            for table, N, seed in slot["rows"]:
                def check_rows(freqs, kind=kind, table=table, N=N, seed=seed):
                    self._check_freqs((kind.name, table.k, N, seed), self.ROW_REPS, freqs)
                    return self.ROW_REPS
                ops.append(Op(f"simulate_decisions.{kind.name}.k{table.k}.N{N}",
                              lambda t=table, N=N, s=seed, kind=kind:
                              bt.simulate_decisions(t, N, kind, self.ROW_REPS, s),
                              check_rows, may_raise, unit="replications"))
        return ops


class Cli:
    """``bintab.cli.main`` in-process over fixture files, stdout captured.

    Each round uses its own fixture slot, so the LOR searches and fits,
    whose cost depends on the input, see a fresh input in every round of a
    run.  Two DI searches with the same budget form the block of equal-cost
    ops at the top of the latency range.
    """

    name = "cli"
    SLOTS = 256
    ENVELOPE = {"tool", "version", "command", "config", "result"}

    def setup(self, bt, seed: int, workdir: str) -> None:
        from scipy import stats
        import bintab.cli
        self.bt, self.cli, self.binom = bt, bintab.cli, stats.binom
        rng = np.random.default_rng((seed, 4))
        self.slots = []
        for s in range(self.SLOTS):
            paths = {name: os.path.join(workdir, f"{name}-{s}.json")
                     for name in ("t3", "t4", "di4", "lor3", "out")}
            t3 = bt.BinaryTable(3, log_uniform(rng, 3, 3.0))
            t4 = bt.BinaryTable(4, log_uniform(rng, 4, 3.0))
            bt.save_table(t3, paths["t3"])
            bt.save_table(t4, paths["t4"])
            bt.save_paramset(bt.di_forward_fast(t4), paths["di4"])
            bt.save_paramset(bt.full_params(t3, "lor"), paths["lor3"])
            self.slots.append({"paths": paths, "t3": t3, "t4": t4,
                               "seed": int(rng.integers(1, 2**31))})
        # one Monte Carlo power study for the whole run: its 4 SE check is
        # statistical, so it is made once rather than once per slot
        self.power_p = 0.5 + float(rng.uniform(-0.05, 0.05))
        self.power_seed = int(rng.integers(1, 2**31))
        self.witnesses: dict = {}

    def _invoke(self, argv: list) -> tuple:
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def warmup(self) -> None:
        paths = self.slots[0]["paths"]
        self._invoke(["params", paths["t3"], "--kind", "lor"])
        self._invoke(["decompose", paths["t3"]])

    def _op(self, command: str, argv: list, check_result, exit_code: int = 0,
            envelope: bool = True) -> Op:
        def check(outcome) -> int:
            code, text = outcome
            require(code == exit_code, f"{command}: exit {code}, expected {exit_code}")
            if not envelope:
                check_result(text)
                return 0
            payload = json.loads(text)
            require(set(payload) == self.ENVELOPE, f"{command}: envelope keys {sorted(payload)}")
            require(payload["tool"] == "bintab" and payload["command"] == command,
                    f"{command}: envelope names {payload['command']!r}")
            check_result(payload["result"])
            return 0
        return Op(f"cli.{command}" + ("" if exit_code == 0 else f".exit{exit_code}"),
                  lambda: self._invoke(argv), check)

    def round(self, r: int) -> list:
        bt = self.bt
        slot = self.slots[r % self.SLOTS]
        paths, t3, t4, seed = slot["paths"], slot["t3"], slot["t4"], slot["seed"]
        p = self.power_p
        lor3 = lor_params_ref(t3.entries, 3)

        def params_value(result):
            require(abs(result["value"] - lor3[-1]) < 1e-10, "params lor value")

        def params_full(result):
            values = np.array([result[format(m, "04b")] for m in range(16)])
            require(np.max(np.abs(values - di_params_ref(t4.entries, 4))) < 1e-9, "params di --full")

        def reconstruct_di(result):
            require(_max_rel(np.array(result["entries"]), t4.entries) < 1e-12, "reconstruct di")

        def reconstruct_lor(result):
            back = lor_params_ref(np.array(result["entries"]), 3)
            require(np.max(np.abs(back - lor3)) < 1e-8, "reconstruct lor residual")

        def simpson(result):
            flags = [scan_ref(t4.entries[None, :], 4, kind)[3][0] for kind in ("lor", "ex", "di")]
            require(len(result["reports"]) == 12, "simpson report count")
            require(result["any_paradox"] == bool(np.any(flags)), "simpson any_paradox")

        def search(result):
            key = seed
            witness = np.array(result["witness"]["entries"])
            require(self.witnesses.setdefault(key, witness.tolist()) == witness.tolist(),
                    "search witness not reproducible for its seed")
            require(bool(scan_ref(witness[None, :], 3, "lor")[3].any()), "search witness is no paradox")

        def search_di(result):
            require(result == {"witness": None, "trials": 40}, "DI search result")

        def canonical(result):
            require(math.isclose(result["final"]["entries"][0],
                                 math.exp(lor_params_ref(t4.entries, 4)[-1]), rel_tol=1e-10),
                    "canonical odds ratio")

        def decompose(result):
            parts = [c["entries"] for c in result["pair_components"]]
            parts += [c["table"]["entries"] for c in result["peak_components"]]
            require(_max_rel(np.sum(parts, axis=0), t4.entries) < 1e-12, "decompose sum")

        def power(result):
            ref = float(self.binom.sf(1000 // 2, 1000, p))
            require(abs(result["exact"] - ref) <= 1e-9 * ref, "power exact tail")
            se = math.sqrt(ref * (1 - ref) / 2000)
            require(abs(result["empirical"] - ref) <= 4 * se + 1e-12, "power Monte Carlo")

        def power_csv(text):
            lines = text.strip().splitlines()
            require(lines[0] == "N,p,exact,normal,empirical" and len(lines) == 2, "power csv")

        return [
            self._op("params", ["params", paths["t3"], "--kind", "lor"], params_value),
            self._op("params", ["params", paths["t4"], "--kind", "di", "--full",
                                "--out", paths["out"]], params_full),
            self._op("reconstruct", ["reconstruct", paths["di4"]], reconstruct_di),
            self._op("reconstruct", ["reconstruct", paths["lor3"]], reconstruct_lor),
            self._op("simpson", ["simpson", paths["t4"], "--kind", "lor,ex,di"], simpson),
            self._op("search", ["search", "--kind", "lor", "--k", "3", "--trials", "100000",
                                "--seed", str(seed)], search),
            self._op("search", ["search", "--kind", "di", "--k", "3", "--trials", "40",
                                "--seed", str(seed)], search_di, exit_code=4),
            self._op("search", ["search", "--kind", "di", "--k", "3", "--trials", "40",
                                "--seed", str(seed + 1)], search_di, exit_code=4),
            self._op("canonical", ["canonical", paths["t4"]], canonical),
            self._op("decompose", ["decompose", paths["t4"]], decompose),
            self._op("power", ["power", "--N", "1000", "--p", repr(p), "--mc", "2000",
                               "--seed", str(self.power_seed)], power),
            self._op("power", ["power", "--N", "10000", "--table", paths["t3"],
                               "--format", "csv"], power_csv, envelope=False),
        ]


class SearchPower:
    """The ``search`` and ``power`` rounds run back to back as one workload.

    Both exercise the per-table and per-row paths through ``table`` and
    ``assoc`` that a batched evaluator would serve, and neither reaches
    ``paramset`` or ``structure``.  Run as one workload they get twice the
    run length each could get alone in the same time budget, which is what
    keeps their figures steady on a machine whose speed drifts by a fifth
    over tens of seconds.
    """

    name = "search_power"

    def setup(self, bt, seed: int, workdir: str) -> None:
        self.bt = bt
        self.parts = (Search(), Power())
        for part in self.parts:
            part.setup(bt, seed, workdir)

    def warmup(self) -> None:
        for part in self.parts:
            part.warmup()

    def round(self, r: int) -> list:
        return [op for part in self.parts for op in part.round(r)]


WORKLOADS = {w.name: w for w in (SearchPower, Fit, Cli, Search, Power)}
