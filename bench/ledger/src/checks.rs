//! Correctness and durability checks, run on the first repetition of a
//! run after the stack has settled, outside every timed phase. The
//! reference is the driver's own record of what it wrote — never a
//! value read back from the system under test.
//!
//! 1. **Readback**: every 8th record (and every inserted key) is read
//!    and compared with the reference, and a counting full scan must
//!    return exactly the live keys.
//! 2. **Settled crash**: the same comparison on engines recovered from
//!    what `Ext4Fs::crashed_view` leaves durable at the settled instant.
//! 3. **Crash at the last reply** (`serve` only, taken before the
//!    settle): every key a synced SET was acked for must carry its
//!    latest acked value.

use crate::input::{self, Reference};
use crate::stack::{Crashed, Stack};

/// Outcome of the checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Checks {
    /// Comparisons made.
    pub attempted: u64,
    /// Comparisons that failed (wrong or missing value, wrong row count).
    pub failed: u64,
    /// Mean virtual latency of the readback GETs, ns: the read cost of
    /// the tree the workload leaves behind.
    pub readback_ns: f64,
}

/// Compares `get`'s answers with the reference over every 8th record,
/// every inserted key and — with `acked` — every record written since
/// the preload. Returns `(attempted, failed)`.
fn audit(
    reference: &Reference,
    acked: bool,
    mut get: impl FnMut(&[u8]) -> Option<Vec<u8>>,
) -> (u64, u64) {
    let records = reference.rounds.iter().enumerate();
    let kids = records
        .filter(|&(i, &round)| i % 8 == 0 || (acked && round > 0))
        .map(|(i, _)| input::record(i as u64))
        .chain(reference.inserts.keys().copied());
    let (mut attempted, mut failed) = (0, 0);
    for kid in kids {
        attempted += 1;
        failed += u64::from(get(&input::key(kid)) != reference.expected(kid));
    }
    (attempted, failed)
}

/// Runs the checks on the settled `stack`; `at_ack` is the crash taken
/// at the last reply, for workloads whose replies promise durability.
pub fn run(stack: &mut Stack, reference: &Reference, at_ack: Option<Crashed>) -> Checks {
    let clock = stack.clock();
    let started = clock.now();
    let (mut attempted, mut failed) = audit(reference, false, |key| stack.get(key));
    let readback_ns = (clock.now() - started).as_nanos() as f64 / attempted as f64;
    let mut tally = |(a, f): (u64, u64)| {
        attempted += a;
        failed += f;
    };
    tally((1, u64::from(stack.rows() != reference.live())));
    let mut settled = stack.crashed(clock.now());
    tally(audit(reference, false, |key| settled.get(key)));
    tally((1, u64::from(settled.rows() != reference.live())));
    if let Some(mut crashed) = at_ack {
        tally(audit(reference, true, |key| crashed.get(key)));
    }
    Checks { attempted, failed, readback_ns }
}
