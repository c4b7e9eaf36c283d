//! Property tests for the two-class device model: foreground latency is
//! independent of background backlog, background work is conserved (never
//! lost, only deferred), and ordering holds within each class.

use nob_sim::{Nanos, Reservation};
use nob_ssd::{Ssd, SsdConfig, WriteClass};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Cmd {
    FgWrite(u32),
    FgRead(u32),
    Flush,
    BgWrite(u32),
    BgFlush,
    /// A foreground write that takes over queued background work and
    /// credits the background queue for it, as a sync's write-back does.
    PromotedWrite(u32),
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        (1u32..4_000_000).prop_map(Cmd::FgWrite),
        (1u32..4_000_000).prop_map(Cmd::FgRead),
        Just(Cmd::Flush),
        (1u32..64_000_000).prop_map(Cmd::BgWrite),
        Just(Cmd::BgFlush),
        (1u32..4_000_000).prop_map(Cmd::PromotedWrite),
    ]
}

/// A clean data write of `bytes` in the given class.
fn write(ssd: &mut Ssd, now: Nanos, bytes: u64, background: bool) -> Reservation {
    ssd.write(now, bytes, WriteClass::Data, background).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Foreground completions are identical whether or not background
    /// traffic exists (perfect preemption), per-class ordering holds, and
    /// the FLUSH frontier never moves back.
    #[test]
    fn foreground_is_immune_to_background(
        cmds in proptest::collection::vec(cmd(), 1..80),
        gap in 0u64..100_000,
    ) {
        let mut with_bg = Ssd::new(SsdConfig::pm883());
        let mut without_bg = Ssd::new(SsdConfig::pm883());
        let mut now = Nanos::ZERO;
        let mut prev_fg_end = Nanos::ZERO;
        let mut prev_bg_end = Nanos::ZERO;
        let mut frontier = Nanos::ZERO;
        for c in &cmds {
            now += Nanos::from_nanos(gap);
            match c {
                Cmd::FgWrite(b) | Cmd::PromotedWrite(b) => {
                    let a = write(&mut with_bg, now, *b as u64, false);
                    let b2 = write(&mut without_bg, now, *b as u64, false);
                    if matches!(c, Cmd::PromotedWrite(_)) {
                        with_bg.credit_background(a.duration());
                        without_bg.credit_background(b2.duration());
                    }
                    prop_assert_eq!(a, b2, "fg write must not see bg traffic");
                    prop_assert!(a.start >= prev_fg_end);
                    prev_fg_end = a.end;
                }
                Cmd::FgRead(b) => {
                    let a = with_bg.read(now, *b as u64);
                    let b2 = without_bg.read(now, *b as u64);
                    prop_assert_eq!(a, b2, "fg read must not see bg traffic");
                    prop_assert!(a.start >= prev_fg_end);
                    prev_fg_end = a.end;
                }
                Cmd::Flush => {
                    let (a, _) = with_bg.flush(now, false);
                    let (b2, _) = without_bg.flush(now, false);
                    prop_assert_eq!(a, b2);
                    prev_fg_end = a.end;
                }
                Cmd::BgWrite(b) => {
                    let r = write(&mut with_bg, now, *b as u64, true);
                    prop_assert!(r.start >= prev_bg_end, "bg order preserved");
                    prop_assert!(r.end > r.start);
                    prev_bg_end = r.end;
                }
                Cmd::BgFlush => {
                    let (r, _) = with_bg.flush(now, true);
                    prop_assert!(r.start >= prev_bg_end, "bg flush order preserved");
                    prop_assert!(r.end > r.start);
                    prev_bg_end = r.end;
                }
            }
            prop_assert!(with_bg.flush_frontier() >= frontier, "flush frontier moved back");
            frontier = with_bg.flush_frontier();
        }
    }

    /// Conservation: background completions are pushed back by at least
    /// the foreground busy time that overlapped them — the device never
    /// does two things at the literal same capacity for free.
    #[test]
    fn background_is_deferred_not_lost(
        bg_bytes in 1u64..128_000_000,
        fg_bytes in proptest::collection::vec(1u64..4_000_000, 0..20),
    ) {
        let cfg = SsdConfig::pm883();
        let mut ssd = Ssd::new(cfg.clone());
        let bg = write(&mut ssd, Nanos::ZERO, bg_bytes, true);
        let ideal_end = bg.end;
        // Foreground arrives while the background write is in flight.
        let mut fg_busy = Nanos::ZERO;
        for b in &fg_bytes {
            let r = write(&mut ssd, Nanos::ZERO, *b, false);
            if r.start < ssd.background_free_at() {
                fg_busy += r.duration();
            }
        }
        // A second background write lands after all the deferral.
        let bg2 = write(&mut ssd, Nanos::ZERO, 1, true);
        prop_assert!(
            bg2.start.as_nanos() + 1 >= ideal_end.as_nanos(),
            "bg2 cannot start before bg1 would have finished"
        );
        prop_assert!(
            ssd.background_free_at() >= ideal_end + fg_busy,
            "deferral must cover the overlapping foreground busy time"
        );
    }

    /// Stats account every byte exactly once across both classes.
    #[test]
    fn stats_count_both_classes(
        fg in proptest::collection::vec(1u64..1_000_000, 0..20),
        bg in proptest::collection::vec(1u64..1_000_000, 0..20),
    ) {
        let mut ssd = Ssd::new(SsdConfig::pm883());
        let mut total = 0u64;
        for b in &fg {
            write(&mut ssd, Nanos::ZERO, *b, false);
            total += b;
        }
        for b in &bg {
            write(&mut ssd, Nanos::ZERO, *b, true);
            total += b;
        }
        prop_assert_eq!(ssd.stats().bytes_written, total);
        prop_assert_eq!(ssd.stats().write_commands, (fg.len() + bg.len()) as u64);
    }
}
