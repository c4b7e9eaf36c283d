//! Discrete virtual-time primitives for the NobLSM reproduction.
//!
//! Everything in this workspace that "takes time" — SSD commands, journal
//! commits, background compactions — is accounted against a *virtual* clock
//! rather than the wall clock. This crate provides the four primitives the
//! rest of the stack builds on:
//!
//! * [`Nanos`] — a virtual instant/duration in nanoseconds.
//! * [`SharedClock`] — the one clock, shared by every component of a
//!   deployment (clones observe and advance the same instant).
//! * [`Timeline`] — a FIFO resource (the SSD command queue) that hands out
//!   `[start, end)` reservations in issue order.
//! * [`EventQueue`] — a time-ordered queue for timer-style events (journal
//!   commit ticks, reclamation polls).
//!
//! Beside them sit [`json`], the one JSON value type, parser and writer;
//! [`oracle`], the one reference model every crash check asks; and the
//! [`fnv1a`] hash.
//!
//! # Examples
//!
//! ```
//! use nob_sim::{Nanos, SharedClock, Timeline};
//!
//! let clock = SharedClock::new();
//! let mut device = Timeline::new();
//! // Two back-to-back 1 ms commands issued at t=0 serialize on the device.
//! let a = device.reserve(clock.now(), Nanos::from_millis(1));
//! let b = device.reserve(clock.now(), Nanos::from_millis(1));
//! assert_eq!(b.start, a.end);
//! clock.advance_to(b.end);
//! assert_eq!(clock.now(), Nanos::from_millis(2));
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

mod clock;
mod events;
pub mod json;
pub mod oracle;
mod text;
mod time;
mod timeline;

pub use clock::SharedClock;
pub use events::EventQueue;
pub use text::fnv1a;
pub use time::Nanos;
pub use timeline::{Reservation, Timeline};
