//! Compaction-debt claims.
//!
//! "Compaction debt" is the number of bytes above each level's size (or L0
//! file-count) threshold — the work the scheduler still owes. With one lane
//! the raw over-threshold sum is exact, but with N lanes a level's input
//! bytes sit in the version until the compaction *applies*, so every lane
//! in flight would be counted again by a naive gauge. The ledger records
//! what each in-flight job has claimed so the unified debt figure —
//! surfaced both by the `compact.debt_bytes` gauge and the `debt=` field in
//! `noblsm.stats` — never double-counts.

/// Handle for one in-flight job's claim; release it when the job applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DebtClaim(u64);

/// Per-level ledger of bytes claimed by in-flight compactions.
///
/// # Examples
///
/// ```
/// use nob_compact::DebtLedger;
///
/// let mut ledger = DebtLedger::default();
/// let claim = ledger.claim(1, 700);
/// // A raw per-level debt of [0, 1000] nets to 300 while the job runs...
/// assert_eq!(ledger.unified(&[0, 1000]), 300);
/// ledger.release(claim);
/// // ...and snaps back once it applies (the version reflects the work).
/// assert_eq!(ledger.unified(&[0, 1000]), 1000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DebtLedger {
    claims: Vec<(u64, usize, u64)>,
    next_id: u64,
}

impl DebtLedger {
    /// Records that an in-flight job is working off `bytes` of `level`'s
    /// debt. Returns the claim to release when the job applies.
    pub fn claim(&mut self, level: usize, bytes: u64) -> DebtClaim {
        let id = self.next_id;
        self.next_id += 1;
        self.claims.push((id, level, bytes));
        DebtClaim(id)
    }

    /// Releases a claim. Releasing twice is a no-op.
    pub fn release(&mut self, claim: DebtClaim) {
        self.claims.retain(|(id, _, _)| *id != claim.0);
    }

    /// Bytes currently claimed against `level`.
    pub(crate) fn claimed(&self, level: usize) -> u64 {
        self.claims.iter().filter(|(_, l, _)| *l == level).map(|(_, _, b)| *b).sum()
    }

    /// The unified debt: per-level raw over-threshold bytes minus what
    /// in-flight lanes already claimed, floored at zero per level.
    pub fn unified(&self, raw_per_level: &[u64]) -> u64 {
        raw_per_level
            .iter()
            .enumerate()
            .map(|(level, raw)| raw.saturating_sub(self.claimed(level)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_claims_never_double_count() {
        let mut ledger = DebtLedger::default();
        let a = ledger.claim(0, 400);
        let b = ledger.claim(0, 400);
        // Raw debt of 600 on L0 is fully covered by the two lanes in flight.
        assert_eq!(ledger.unified(&[600]), 0);
        ledger.release(a);
        assert_eq!(ledger.unified(&[600]), 200);
        ledger.release(b);
        assert_eq!(ledger.unified(&[600]), 600);
    }

    #[test]
    fn claims_are_per_level() {
        let mut ledger = DebtLedger::default();
        let _ = ledger.claim(2, 100);
        assert_eq!(ledger.claimed(2), 100);
        assert_eq!(ledger.claimed(1), 0);
        assert_eq!(ledger.unified(&[50, 50, 50]), 100);
    }

    #[test]
    fn release_is_idempotent() {
        let mut ledger = DebtLedger::default();
        let a = ledger.claim(0, 10);
        ledger.release(a);
        ledger.release(a);
        assert!(ledger.claims.is_empty());
        assert_eq!(ledger.unified(&[10]), 10);
    }
}
