"""The benchmark's three workloads: which ops each pass runs, in order.

Every op reads one of the example configs under `configs/`.  An op that
overrides config fields gets a generated copy of that config in the run's
temp dir; the others read the example file itself, so their artifacts carry
the example's config hash.

Why each workload exists (see bench/README.md for the full map):

- exact_solve stresses the exact-mode boundary solver: one scipy `quad` per
  marginal-gap call, thousands of calls per grid.  Policy code never runs.
- policy_audit stresses the stepped policy engine: table lookups and profit
  evaluations on every path step.  The boundary solve is a small share.
- heavy_tail stresses Monte Carlo extrema sampling, above all the stable
  lattice sampler, and holds three ops that must be rejected.  Its stable
  sampling op draws the pools that `verify` on stable_ces draws, through
  the public API: `verify` itself writes a NaN integral-equation residual on
  about one seed in four (BoundaryTable's edge-slope extrapolation
  overflows on heavy-tailed maxima), and a benchmark op must not fail.
  bench/test_bench.py keeps that defect in view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Criterion 9 of the acceptance gate checks the first-order conditions at
# these stopping rules, as (kind, at) pairs of levyinvest.StoppingRule.
FOC_RULES = (("fixed", 0.0), ("fixed", 0.5), ("fixed", 2.0),
             ("hit_above", 0.3), ("hit_below", -0.4))

# Criterion 1 sizes the Wiener-Hopf identity check at this many draws.
WH_CHECK_PATHS = 100_000


@dataclass(frozen=True)
class Op:
    """One step of a pass.

    `command` is a CLI subcommand, "foc" for the API-driven first-order
    condition audit, or "extrema" for the API-driven extrema pools that
    `verify` samples.  `kind` names the end-to-end metric the op's latency is
    summed into (`<kind>_s`).  `check` names the artifact check applied
    after the pass.  `s_ref` is the reference paired SE of a compare op:
    the RMS of `base_minus_this_se` over its non-base rows at the config
    seed on the commit that defined the benchmark.
    """

    command: str
    config: str
    kind: str
    check: str
    overrides: dict = field(default_factory=dict)
    s_ref: float | None = None

    @property
    def op_id(self) -> str:
        return f"{self.command}.{self.config}"


WORKLOADS: dict[str, tuple[Op, ...]] = {
    "exact_solve": (
        Op("boundary", "brownian_cobb_douglas", "boundary", "boundary_exact"),
        Op("boundary", "brownian_log", "boundary", "boundary_exact"),
        Op("boundary", "kou_ces", "boundary", "boundary_exact"),
        Op("boundary", "merton_cobb_douglas", "boundary", "boundary_mc"),
        Op("verify", "brownian_cobb_douglas", "verify", "verify"),
        Op("verify", "brownian_log", "verify", "verify"),
        Op("verify", "kou_ces", "verify", "verify"),
    ),
    "policy_audit": (
        Op("compare", "kou_ces", "compare", "compare", s_ref=1.306e-04),
        Op("compare", "merton_cobb_douglas", "compare", "compare", s_ref=6.845e-05),
        Op("foc", "brownian_cobb_douglas", "foc", "foc"),
    ),
    "heavy_tail": (
        Op("extrema", "stable_ces", "extrema", "extrema"),
        Op("boundary", "stable_ces", "boundary", "boundary_mc"),
        Op("wh-check", "merton_cobb_douglas", "wh_check", "wh_check",
           overrides={"n_paths": WH_CHECK_PATHS}),
        Op("wh-check", "kou_ces", "wh_check", "wh_check",
           overrides={"n_paths": WH_CHECK_PATHS}),
        Op("check-assumptions", "stable_ces", "check_assumptions", "assumptions_fail"),
        Op("simulate", "stable_ces", "reject", "reject"),
        Op("compare", "stable_ces", "reject", "reject"),
        Op("wh-check", "stable_ces", "reject", "reject"),
    ),
}
