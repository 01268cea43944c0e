//! Automatic flow-table repair (the paper's future-work item 2).
//!
//! Once localization names a faulty switch, the controller knows both what
//! the switch *should* contain (the logical rules) and which header
//! demonstrated the fault. The repair proposal is the minimal FlowMod
//! sequence that reasserts control-plane state for the implicated rules:
//! re-add the logical rule that should have forwarded the witness header
//! (covering lost/modified rules), preceded by a delete of the same rule id
//! (covering externally corrupted ones).

use veridp_packet::{FiveTuple, PortNo, SwitchId};
use veridp_switch::{FlowRule, OfMessage};

use crate::path_table::PathTable;

/// A proposed repair for one switch.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairProposal {
    pub switch: SwitchId,
    /// The logical rule the data plane demonstrably disobeyed.
    pub rule: FlowRule,
    /// Messages that reassert it (delete-then-add, idempotent).
    pub messages: Vec<OfMessage>,
}

/// Propose a repair for `switch` given a witness header that was misrouted
/// there (arriving on local port `in_port`).
///
/// Scans the switch's logical rules in match order and returns the one that
/// should have handled the witness; `None` if the logical table has no
/// opinion (nothing to repair — the fault must be upstream state, e.g. an
/// externally inserted rule, which the delete in a later proposal handles).
pub fn propose(
    table: &PathTable,
    switch: SwitchId,
    in_port: PortNo,
    witness: &FiveTuple,
) -> Option<RepairProposal> {
    let rule = *table
        .predicates(switch)?
        .rules()
        .iter()
        .find(|r| r.fields.matches(in_port, witness))?;
    Some(RepairProposal {
        switch,
        rule,
        messages: vec![OfMessage::FlowDelete(rule.id), OfMessage::FlowAdd(rule)],
    })
}
