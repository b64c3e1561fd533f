//! # dvp-nemesis — adversarial fault campaigns
//!
//! The protocols in `dvp-core` claim safety "at all times, whatever
//! fails" (paper Section 3). This crate is the adversary that earns that
//! claim: it generates seed-driven **fault schedules** composing site
//! crashes and recoveries, network partitions and heals, loss/duplication
//! /delay-jitter bursts, protocol-level **crashpoints** (named crash sites
//! inside the commit, donation, and checkpoint paths), and **torn log
//! writes**; runs them against a live cluster; checks a suite of
//! **invariant oracles** at many pause points; and, when an oracle trips,
//! **shrinks** the failing schedule to a minimal reproduction via delta
//! debugging.
//!
//! Module map:
//!
//! * [`schedule`] — the typed [`FaultSchedule`] (a list of
//!   [`FaultEvent`]s), its translation onto cluster knobs, and its digest;
//! * [`generate`](mod@generate) — the seeded generator with tunable [`Intensity`]
//!   (whose legacy profile reproduces the T5 experiment's fault
//!   environment byte-for-byte);
//! * [`oracle`] — conservation, Vm channel sanity, read exactness, and
//!   recovered-site ≡ rebuilt-from-log equivalence;
//! * [`campaign`] — one seeded campaign end-to-end (build, run, audit);
//! * [`shrink`] — `ddmin` minimization plus the one-line replay format.
//!
//! Everything is deterministic: same seed ⇒ same schedule ⇒ same campaign
//! outcome ⇒ same shrunk schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod generate;
pub mod oracle;
pub mod schedule;
pub mod shrink;

pub use campaign::{run_campaign, CampaignConfig, CampaignResult};
pub use generate::{generate, legacy_environment, Intensity};
pub use oracle::{check_all, check_liveness, check_rebuild, check_vm_channels, Violation};
pub use schedule::{AppliedFaults, FaultEvent, FaultSchedule};
pub use shrink::{ddmin, Replay};
