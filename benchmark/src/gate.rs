//! The correctness gate: counts operations, and turns any wrong output or
//! broken invariant into `correct: false` and a non-zero exit.

/// Operation counts and invariant violations of one workload run.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations attempted in timed passes (suite jobs run, serve jobs
    /// offered).
    pub attempted: u64,
    /// Operations whose output was wrong or that ended in a failure the
    /// workload is built never to produce. A refusal by admission control
    /// in the `overload` phase is the designed answer, not a failure; it
    /// shows in `served_frac`.
    pub failed: u64,
    /// Broken invariants, in the order they were seen.
    pub violations: Vec<String>,
}

impl Gate {
    /// Count `n` operations that went right.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one operation that went wrong.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.violations.push(what);
    }

    /// An invariant that is not an operation of its own (identical
    /// counters across passes, conservation, workload shape).
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_run_is_correct() {
        let mut g = Gate::default();
        g.ok(3);
        g.require(true, || unreachable!());
        assert!(g.correct());
        assert_eq!((g.attempted, g.failed), (3, 0));
    }

    #[test]
    fn a_wrong_output_or_a_broken_invariant_fires() {
        let mut g = Gate::default();
        g.ok(2);
        g.fail("job 7: score 11, oracle 12".into());
        assert!(!g.correct());
        assert_eq!((g.attempted, g.failed), (3, 1));

        let mut g = Gate::default();
        g.ok(1);
        g.require(false, || "counters differ between passes".into());
        assert!(!g.correct());
        assert_eq!(g.failed, 0, "an invariant is not an operation");
    }
}
