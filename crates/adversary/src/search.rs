//! The adversarial search loop and its resilience scorecard.
//!
//! Hill-climbing with random restarts over a per-objective beam: each of
//! the four damage objectives keeps its own beam of the best plans seen,
//! breeds `mutations_per_parent` children per beam slot per round, and
//! re-seeds itself with fresh random plans after `restart_after` rounds
//! without improvement. All randomness is drawn on the coordinator from
//! per-objective seeded streams, and evaluations are pure functions of
//! (plan, config) cached by plan key — so the campaign fans out over
//! [`ise_par::par_map`] and still renders a byte-identical scorecard at
//! any worker count.

use crate::eval::{evaluate, EvalConfig, EvalOutcome, Objective};
use crate::plan::AdvPlan;
use ise_engine::SimRng;
use ise_telemetry::Registry;
use ise_types::{Json, ToJson};
use std::collections::HashMap;

/// Search shape.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Master seed; each objective derives its own stream from it.
    pub seed: u64,
    /// Search rounds.
    pub rounds: usize,
    /// Plans each objective's beam retains.
    pub beam_width: usize,
    /// Children bred per beam slot per round.
    pub mutations_per_parent: usize,
    /// Rounds without improvement before a beam re-seeds itself with
    /// fresh random plans.
    pub restart_after: usize,
    /// How every candidate is evaluated.
    pub eval: EvalConfig,
}

impl SearchConfig {
    /// The CI smoke shape: small enough for a PR gate, large enough that
    /// the seeded-weakness self-check reliably finds its wins.
    pub fn smoke(seed: u64, eval: EvalConfig) -> Self {
        SearchConfig {
            seed,
            rounds: 6,
            beam_width: 3,
            mutations_per_parent: 4,
            restart_after: 2,
            eval,
        }
    }
}

/// One objective's line in the scorecard.
#[derive(Debug, Clone)]
pub struct ObjectiveResult {
    /// [`Objective::name`].
    pub objective: &'static str,
    /// Whether any evaluated plan cleared the win threshold.
    pub win: bool,
    /// Best score reached.
    pub score: u64,
    /// Key of the best plan ([`AdvPlan::key`]).
    pub plan: String,
    /// The best plan itself when one scored (or won) at all — the input
    /// to [`crate::regress::shrink_corruption`]. Not rendered into the
    /// scorecard; the key above is its canonical string form.
    pub genome: Option<AdvPlan>,
}

/// The campaign's resilience scorecard.
#[derive(Debug, Clone)]
pub struct AdversaryReport {
    /// Master seed.
    pub seed: u64,
    /// Whether the defending kernel ran fully hardened.
    pub hardened: bool,
    /// Rounds searched.
    pub rounds: usize,
    /// Beam width per objective.
    pub beam_width: usize,
    /// Unique plans evaluated.
    pub evaluations: u64,
    /// Evaluations that exhausted their cycle budget.
    pub timeouts: u64,
    /// One line per objective, in [`Objective::ALL`] order.
    pub objectives: Vec<ObjectiveResult>,
    /// Processes killed, summed over unique evaluations.
    pub kills: u64,
    /// Retry budgets exhausted, summed over unique evaluations.
    pub retry_exhausted: u64,
    /// Early-drain continuation chunks, summed over unique evaluations.
    pub continuation_invocations: u64,
    /// Early-drain interrupts, summed over unique evaluations.
    pub early_drain_interrupts: u64,
    /// Plans whose run corrupted architectural state.
    pub corrupting_plans: u64,
    /// Plans whose run breached a standard/containment invariant.
    pub breaching_plans: u64,
}

impl AdversaryReport {
    /// Whether `objective` was won by any evaluated plan.
    pub fn win(&self, objective: Objective) -> bool {
        self.objectives
            .iter()
            .find(|o| o.objective == objective.name())
            .map(|o| o.win)
            .unwrap_or(false)
    }

    /// The best plan key for `objective`, when one scored at all.
    pub fn best_plan(&self, objective: Objective) -> Option<&str> {
        self.objectives
            .iter()
            .find(|o| o.objective == objective.name())
            .map(|o| o.plan.as_str())
            .filter(|p| !p.is_empty())
    }

    /// The plan that *won* `objective`, when one did.
    pub fn winning_genome(&self, objective: Objective) -> Option<&AdvPlan> {
        self.objectives
            .iter()
            .find(|o| o.objective == objective.name() && o.win)
            .and_then(|o| o.genome.as_ref())
    }

    /// The scorecard as a telemetry [`Registry`]: identity, then one
    /// win/score/plan triple per objective in fixed order, then the
    /// coverage aggregates. The key set never depends on what was found,
    /// so the rendering is byte-stable across worker counts and clocks.
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.add("seed", self.seed);
        reg.put("hardened", Json::from(self.hardened));
        reg.add("rounds", self.rounds as u64);
        reg.add("beam_width", self.beam_width as u64);
        reg.add("evaluations", self.evaluations);
        reg.add("timeouts", self.timeouts);
        for o in &self.objectives {
            reg.put(format!("objective.{}.win", o.objective), Json::from(o.win));
            reg.add(&format!("objective.{}.best_score", o.objective), o.score);
            reg.put(
                format!("objective.{}.best_plan", o.objective),
                Json::str(o.plan.clone()),
            );
        }
        reg.add("coverage.kills", self.kills);
        reg.add("coverage.retry_exhausted", self.retry_exhausted);
        reg.add(
            "coverage.continuation_invocations",
            self.continuation_invocations,
        );
        reg.add(
            "coverage.early_drain_interrupts",
            self.early_drain_interrupts,
        );
        reg.add("coverage.corrupting_plans", self.corrupting_plans);
        reg.add("coverage.breaching_plans", self.breaching_plans);
        reg.add(
            "wins",
            self.objectives.iter().filter(|o| o.win).count() as u64,
        );
        reg
    }
}

impl ToJson for AdversaryReport {
    fn to_json(&self) -> Json {
        self.to_registry().to_json()
    }
}

/// Runs the search on `workers` threads and the clock `skip` selects.
/// All mutation draws happen sequentially on the coordinator; only the
/// (pure, cached) evaluations fan out — so the report is byte-identical
/// for every `workers` value and either clock.
pub fn run_search(cfg: &SearchConfig, workers: usize, skip: bool) -> AdversaryReport {
    let n_obj = Objective::ALL.len();
    let mut rngs: Vec<SimRng> = (0..n_obj)
        .map(|i| SimRng::seed_from(cfg.seed ^ ((i as u64 + 1) << 32)))
        .collect();
    let mut cache: HashMap<String, EvalOutcome> = HashMap::new();
    // First-seen evaluation order: the aggregate counters sum over this,
    // keeping them independent of scheduling.
    let mut seen_order: Vec<String> = Vec::new();
    let mut timeouts = 0u64;

    let mut beams: Vec<Vec<AdvPlan>> = (0..n_obj)
        .map(|i| {
            (0..cfg.beam_width)
                .map(|_| AdvPlan::random(&mut rngs[i], &cfg.eval.os))
                .collect()
        })
        .collect();
    // Per-objective best (win, score) and the plan that reached it.
    let mut best: Vec<(bool, u64, String, Option<AdvPlan>)> =
        vec![(false, 0, String::new(), None); n_obj];
    let mut stalled: Vec<usize> = vec![0; n_obj];

    for _round in 0..cfg.rounds {
        // 1. Breed candidates per objective (coordinator-side RNG only).
        let mut candidates: Vec<Vec<AdvPlan>> = Vec::with_capacity(n_obj);
        for oi in 0..n_obj {
            let mut kids = Vec::new();
            for parent in &beams[oi] {
                for _ in 0..cfg.mutations_per_parent {
                    kids.push(parent.mutate(&mut rngs[oi], &cfg.eval.os));
                }
            }
            if stalled[oi] >= cfg.restart_after {
                // Random restart: re-seed this beam's frontier.
                for _ in 0..cfg.beam_width {
                    kids.push(AdvPlan::random(&mut rngs[oi], &cfg.eval.os));
                }
                stalled[oi] = 0;
            }
            candidates.push(kids);
        }

        // 2. Evaluate every not-yet-seen plan, fanned out but collected
        //    in first-seen order.
        let mut fresh: Vec<AdvPlan> = Vec::new();
        {
            let mut queued: std::collections::HashSet<String> = std::collections::HashSet::new();
            for plans in beams.iter().chain(candidates.iter()) {
                for p in plans {
                    let key = p.key();
                    if !cache.contains_key(&key) && queued.insert(key) {
                        fresh.push(p.clone());
                    }
                }
            }
        }
        let outcomes = ise_par::par_map(&fresh, workers, |_, p| evaluate(p, &cfg.eval, skip));
        for o in outcomes {
            if o.timed_out {
                timeouts += 1;
            }
            seen_order.push(o.key.clone());
            cache.insert(o.key.clone(), o);
        }

        // 3. Rank each objective's pool and keep the beam.
        for (oi, obj) in Objective::ALL.into_iter().enumerate() {
            let mut pool: Vec<AdvPlan> = Vec::new();
            {
                let mut keys: std::collections::HashSet<String> = std::collections::HashSet::new();
                for p in beams[oi].iter().chain(candidates[oi].iter()) {
                    if keys.insert(p.key()) {
                        pool.push(p.clone());
                    }
                }
            }
            pool.sort_by(|a, b| {
                let oa = &cache[&a.key()];
                let ob = &cache[&b.key()];
                (obj.win(ob), obj.score(ob))
                    .cmp(&(obj.win(oa), obj.score(oa)))
                    .then_with(|| a.key().cmp(&b.key()))
            });
            pool.truncate(cfg.beam_width.max(1));
            let head = &cache[&pool[0].key()];
            let reached = (obj.win(head), obj.score(head));
            if reached > (best[oi].0, best[oi].1) {
                best[oi] = (reached.0, reached.1, pool[0].key(), Some(pool[0].clone()));
                stalled[oi] = 0;
            } else {
                stalled[oi] += 1;
            }
            beams[oi] = pool;
        }
    }

    // 4. Aggregate coverage over unique evaluations, first-seen order.
    let mut report = AdversaryReport {
        seed: cfg.seed,
        hardened: cfg.eval.os.hardened,
        rounds: cfg.rounds,
        beam_width: cfg.beam_width,
        evaluations: seen_order.len() as u64,
        timeouts,
        objectives: Objective::ALL
            .into_iter()
            .zip(&best)
            .map(|(obj, (win, score, key, genome))| ObjectiveResult {
                objective: obj.name(),
                win: *win,
                score: *score,
                plan: key.clone(),
                genome: genome.clone(),
            })
            .collect(),
        kills: 0,
        retry_exhausted: 0,
        continuation_invocations: 0,
        early_drain_interrupts: 0,
        corrupting_plans: 0,
        breaching_plans: 0,
    };
    for key in &seen_order {
        let o = &cache[key];
        report.kills += o.killed;
        report.retry_exhausted += o.retry_exhausted;
        report.continuation_invocations += o.continuation_invocations;
        report.early_drain_interrupts += o.early_drain_interrupts;
        report.corrupting_plans += u64::from(!o.corruption.is_empty());
        report.breaching_plans += u64::from(!o.violations.is_empty());
    }
    report
}

/// Both halves of the seeded-weakness self-check.
#[derive(Debug, Clone)]
pub struct SelfCheck {
    /// The smoke search against the unhardened kernel.
    pub unhardened: AdversaryReport,
    /// The same search (same seed) against the hardened kernel.
    pub hardened: AdversaryReport,
}

impl SelfCheck {
    /// The check passes when the search proves both directions: the
    /// unhardened kernel loses on silent corruption *and* continuation
    /// stalls, and the hardened kernel loses on neither.
    pub fn passed(&self) -> bool {
        self.unhardened.win(Objective::Corrupt)
            && self.unhardened.win(Objective::Stall)
            && !self.hardened.win(Objective::Corrupt)
            && !self.hardened.win(Objective::Stall)
    }
}

/// Runs the smoke search against the unhardened and hardened recovery
/// configurations with the same seed, on `workers` threads and the
/// clock `skip` selects — the CI gate that proves the search has teeth
/// and the hardening has effect.
pub fn self_check(seed: u64, workers: usize, skip: bool) -> SelfCheck {
    let run = |eval: EvalConfig| run_search(&SearchConfig::smoke(seed, eval), workers, skip);
    SelfCheck {
        unhardened: run(EvalConfig::unhardened()),
        hardened: run(EvalConfig::hardened()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_search_is_byte_identical_across_worker_counts() {
        let cfg = SearchConfig {
            rounds: 2,
            ..SearchConfig::smoke(7, EvalConfig::hardened())
        };
        let a = run_search(&cfg, 1, true).to_registry().render();
        let b = run_search(&cfg, 4, true).to_registry().render();
        assert_eq!(a, b);
    }

    #[test]
    fn scorecard_has_a_fixed_key_set() {
        let cfg = SearchConfig {
            rounds: 1,
            beam_width: 2,
            mutations_per_parent: 1,
            ..SearchConfig::smoke(3, EvalConfig::hardened())
        };
        let reg = run_search(&cfg, 2, true).to_registry();
        for obj in Objective::ALL {
            assert!(reg.get(&format!("objective.{}.win", obj.name())).is_some());
            assert!(reg
                .get(&format!("objective.{}.best_score", obj.name()))
                .is_some());
            assert!(reg
                .get(&format!("objective.{}.best_plan", obj.name()))
                .is_some());
        }
        assert!(reg.get("coverage.kills").is_some());
        assert!(reg.counter("evaluations") > 0);
    }
}
