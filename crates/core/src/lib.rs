//! VeriDP core: the paper's primary contribution.
//!
//! The pipeline from controller configuration to verification verdict:
//!
//! 1. [`HeaderSpace`] maps 5-tuple headers onto a 104-variable BDD space;
//! 2. [`SwitchPredicates`] turns a switch's (logical) flow rules into
//!    transfer predicates `P_{x,y}` — which headers can go from port `x` to
//!    port `y`, including the drop port `⊥` (§4.1);
//! 3. [`PathTable`] runs Algorithm 2 over the topology and predicates,
//!    producing, per `(inport, outport)` pair, the set of forwarding paths,
//!    each with a BDD header set and a Bloom-filter tag;
//! 4. [`PathTable::verify`] implements Algorithm 3: match the reported
//!    header against the pair's paths and compare tags; [`VerifyFastPath`]
//!    layers a tag-indexed candidate probe and an epoch-invalidated verdict
//!    cache over it with identical verdicts (the steady-state hot loop);
//! 5. [`PathTable::localize`] implements Algorithm 4 (PathInfer):
//!    reconstruct the real path a failed packet took and name the first
//!    deviating switch;
//! 6. [`PathTable::add_rule`] / [`PathTable::delete_rule`] update the table
//!    incrementally when the controller changes one rule (§4.4), without a
//!    full rebuild;
//! 7. [`VeriDpServer`] glues it together: it intercepts the controller's
//!    OpenFlow stream, keeps the path table synchronized, consumes tag
//!    reports, and keeps verification statistics;
//! 8. [`repair`] (paper future work) proposes the FlowMods that reconcile a
//!    localized faulty switch with the logical rule set.
//!
//! # Example
//!
//! ```
//! use std::collections::HashMap;
//! use veridp_core::{HeaderSpace, PathTable, VerifyOutcome};
//! use veridp_packet::{FiveTuple, PortNo, PortRef, SwitchId, TagReport};
//! use veridp_switch::{Action, FlowRule, Match};
//! use veridp_bloom::{BloomTag, HopEncoder};
//! use veridp_topo::gen;
//!
//! // Two-switch chain forwarding 10.0.2.0/24 towards h2.
//! let topo = gen::linear(2);
//! let mut rules: HashMap<SwitchId, Vec<FlowRule>> = HashMap::new();
//! let m = Match::dst_prefix(gen::ip(10, 0, 2, 0), 24);
//! rules.insert(SwitchId(1), vec![FlowRule::new(1, 24, m, Action::Forward(PortNo(2)))]);
//! rules.insert(SwitchId(2), vec![FlowRule::new(2, 24, m, Action::Forward(PortNo(2)))]);
//!
//! let mut hs = HeaderSpace::new();
//! let table = PathTable::build(&topo, &rules, &mut hs, 16);
//!
//! // A correctly-forwarded packet's report verifies.
//! let header = FiveTuple::tcp(gen::ip(10, 0, 1, 1), gen::ip(10, 0, 2, 1), 9, 80);
//! let mut tag = BloomTag::default_width();
//! tag.insert(&HopEncoder::encode(1, 1, 2));
//! tag.insert(&HopEncoder::encode(1, 2, 2));
//! let report = TagReport::new(PortRef::new(1, 1), PortRef::new(2, 2), header, tag);
//! assert_eq!(table.verify(&report, &hs), VerifyOutcome::Pass);
//! ```

mod backend;
pub mod config;
mod fastpath;
pub mod grace;
mod headerspace;
mod incremental;
pub mod liveness;
mod localize;
pub mod parallel;
mod parallel_build;
mod path_table;
mod predicates;
pub mod repair;
pub mod rewrite;
mod robust;
mod server;
pub mod snapshot;
mod verify;

pub use backend::HeaderSetBackend;
pub use fastpath::{FastPathStats, TagIndex, VerdictCache, VerifyFastPath};
pub use grace::{RetiredEntry, RetiredRecord, RetiredRing, DEFAULT_GRACE_DEPTH};
pub use headerspace::HeaderSpace;
pub use liveness::{LivenessConfig, LivenessRegistry, ReporterId, StaleReporter};
pub use localize::{InferredPath, LocalizeOutcome};
pub use parallel::{
    verify_batch, verify_batch_fast, verify_batch_summary, verify_batch_summary_fast,
    verify_batch_summary_indexed, BatchSummary,
};
pub use path_table::{PathEntry, PathTable, PathTableStats, ReachRecord};
pub use predicates::SwitchPredicates;
pub use robust::{Disposition, RecentFilter, RobustConfig, RobustState};
pub use server::{
    Alarm, AlarmAggregator, ConfirmedAlarm, FlightDump, FlightEvent, RobustHarvest, RobustWorker,
    ServerStats, VeriDpServer,
};
pub use snapshot::{
    ConcurrentTable, ReaderHandle, RuleUpdate, SnapshotGuard, SnapshotPublisher, SnapshotStats,
    TableVersion,
};
pub use verify::VerifyOutcome;

#[cfg(test)]
mod tests;
