//! Parallel multi-scenario execution.
//!
//! Every figure harness sweeps a grid of independent [`Scenario`]s —
//! schemes × topology sizes × seeds. Each simulation is strictly
//! single-threaded and fully determined by its scenario (topology, scheme,
//! seed), so the sweep is embarrassingly parallel: [`ParallelRunner`] fans
//! the scenarios out over scoped worker threads and returns the reports
//! in scenario order.
//!
//! # Determinism contract
//!
//! The report for scenario `i` is byte-identical no matter how many
//! workers run the sweep (see [`Report::digest`]). That holds because:
//!
//! * workers share **no** mutable simulation state — each `Scenario::run`
//!   builds a private `Simulation` seeded only from the scenario;
//! * work is claimed from an atomic counter, which only decides *which
//!   thread* runs a scenario, never *what* it computes;
//! * results land in a per-index slot and are returned in index order,
//!   so completion order (which is timing-dependent) is unobservable.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use presto_telemetry::TelemetryReport;

use crate::report::Report;
use crate::scenario::Scenario;

/// Fans independent scenario runs over `workers` scoped threads.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRunner {
    /// Number of worker threads (≥ 1).
    pub workers: usize,
}

impl ParallelRunner {
    /// A runner with exactly `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        ParallelRunner {
            workers: workers.max(1),
        }
    }

    /// A runner sized to the machine's available parallelism.
    pub fn available() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }

    /// Run every scenario through `job`; results come back in scenario
    /// order. This is the single fan-out primitive: `run`, `run_traced`
    /// and `run_isolated` are `run_with`/`try_run_with` over different
    /// jobs.
    ///
    /// A panicking job propagates the panic to the caller (after every
    /// in-flight sibling has finished) — use
    /// [`ParallelRunner::run_isolated`] when one bad configuration must
    /// not sink the rest of the sweep.
    pub fn run_with<R: Send>(
        &self,
        scenarios: &[Scenario],
        job: impl Fn(&Scenario) -> R + Sync,
    ) -> Vec<R> {
        let results = self.try_run_with(scenarios, |sc| catch_unwind(AssertUnwindSafe(|| job(sc))));
        results
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                // Re-panic on the calling thread with the original payload
                // once collection finishes.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }

    /// The fan-out engine: run a fallible-by-panic `job` over every
    /// scenario. `job` itself decides how failures are represented (the
    /// public wrappers pass `catch_unwind` results through), so a worker
    /// thread never unwinds — one panicking scenario cannot poison the
    /// `std::thread::scope` and take its siblings' finished results down
    /// with it.
    fn try_run_with<R: Send>(
        &self,
        scenarios: &[Scenario],
        job: impl Fn(&Scenario) -> R + Sync,
    ) -> Vec<R> {
        if self.workers == 1 || scenarios.len() <= 1 {
            // Serial reference path — also what the determinism tests
            // compare the threaded path against.
            return scenarios.iter().map(job).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = scenarios.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(scenarios.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(sc) = scenarios.get(i) else { break };
                    let result = job(sc);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every scenario produced a result")
            })
            .collect()
    }

    /// Run every scenario through `job` with per-scenario panic isolation:
    /// a panicking configuration yields `Err(message)` in its slot while
    /// every sibling still returns its result. This is the primitive the
    /// campaign runner (`presto-lab`) builds on — one degenerate grid
    /// point becomes a `Failed` row instead of aborting the sweep.
    ///
    /// Under `panic = "abort"` (the release *binary* profile; cargo always
    /// compiles tests and benches with unwinding) isolation is impossible
    /// and the process still aborts — run sweeps that need isolation in a
    /// profile that unwinds.
    pub fn run_isolated<R: Send>(
        &self,
        scenarios: &[Scenario],
        job: impl Fn(&Scenario) -> R + Sync,
    ) -> Vec<Result<R, String>> {
        self.try_run_with(scenarios, |sc| {
            catch_unwind(AssertUnwindSafe(|| job(sc))).map_err(panic_message)
        })
    }

    /// Run every scenario; reports come back in scenario order.
    pub fn run(&self, scenarios: &[Scenario]) -> Vec<Report> {
        self.run_with(scenarios, Scenario::run)
    }

    /// Run every scenario with the telemetry layer attached; report pairs
    /// come back in scenario order. Each worker builds and drains its own
    /// trace ring, so traces — like reports — are byte-identical no matter
    /// how many workers ran the sweep.
    pub fn run_traced(&self, scenarios: &[Scenario]) -> Vec<(Report, TelemetryReport)> {
        self.run_with(scenarios, Scenario::run_traced)
    }
}

/// Best-effort rendering of a panic payload (`&str` and `String` payloads
/// cover `panic!`/`assert!`; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::stride_elephants;
    use crate::scheme::SchemeSpec;
    use presto_simcore::SimDuration;

    fn tiny(seed: u64) -> Scenario {
        Scenario::builder(SchemeSpec::presto(), seed)
            .duration(SimDuration::from_millis(6))
            .warmup(SimDuration::from_millis(2))
            .elephants(stride_elephants(16, 8))
            .build()
    }

    #[test]
    fn reports_come_back_in_scenario_order() {
        let scenarios: Vec<Scenario> = (0..4).map(tiny).collect();
        let serial: Vec<u64> = scenarios.iter().map(|s| s.run().digest()).collect();
        let parallel = ParallelRunner::new(4).run(&scenarios);
        let got: Vec<u64> = parallel.iter().map(Report::digest).collect();
        assert_eq!(serial, got, "order or content changed under threading");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let scenarios: Vec<Scenario> = (0..3).map(tiny).collect();
        let one: Vec<u64> = ParallelRunner::new(1)
            .run(&scenarios)
            .iter()
            .map(Report::digest)
            .collect();
        let three: Vec<u64> = ParallelRunner::new(3)
            .run(&scenarios)
            .iter()
            .map(Report::digest)
            .collect();
        assert_eq!(one, three);
    }

    /// Satellite regression test: one panicking scenario must not poison
    /// the scope — its siblings' results survive and come back `Ok`.
    #[test]
    fn one_bad_scenario_does_not_kill_its_siblings() {
        let scenarios: Vec<Scenario> = (0..4).map(tiny).collect();
        let expected: Vec<u64> = scenarios.iter().map(|s| s.run().digest()).collect();
        for workers in [1, 4] {
            let results = ParallelRunner::new(workers).run_isolated(&scenarios, |sc| {
                if sc.seed() == 2 {
                    panic!("injected failure for seed {}", sc.seed());
                }
                sc.run().digest()
            });
            assert_eq!(results.len(), 4);
            for (i, r) in results.iter().enumerate() {
                if scenarios[i].seed() == 2 {
                    let err = r.as_ref().expect_err("seed 2 must fail");
                    assert!(err.contains("injected failure"), "got: {err}");
                } else {
                    assert_eq!(
                        *r.as_ref().expect("sibling survived"),
                        expected[i],
                        "sibling {i} result changed under isolation ({workers} workers)"
                    );
                }
            }
        }
    }

    /// `run_with` still propagates a panic to the caller, after letting
    /// in-flight siblings finish.
    #[test]
    fn run_with_still_propagates_panics() {
        let scenarios: Vec<Scenario> = (0..2).map(tiny).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ParallelRunner::new(2).run_with(&scenarios, |sc| {
                if sc.seed() == 1 {
                    panic!("boom");
                }
                sc.seed()
            })
        }));
        assert!(caught.is_err(), "panic must reach the caller");
    }

    #[test]
    fn empty_and_oversized_worker_counts() {
        assert!(ParallelRunner::new(0).workers == 1);
        let none = ParallelRunner::new(8).run(&[]);
        assert!(none.is_empty());
    }
}
