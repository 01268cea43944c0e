//! Transfer predicates `P_{x,y}` (§4.1).
//!
//! A switch with ports `1..=n` is abstracted as predicates `P_{x,y}` over
//! headers: a packet received on port `x` is forwarded to port `y` iff its
//! header satisfies `P_{x,y}`; `y = ⊥` collects everything that is dropped
//! (table miss, or an explicit drop action — the paper's two drop cases).
//!
//! The predicates are computed from the switch's rules with *priority
//! shadowing*: the effective match of a rule is its own match set minus every
//! higher-priority match set, which is exactly the semantics of the flow
//! table's first-match lookup. Rules that carry an `in_port` qualifier make
//! the predicate genuinely depend on `x`; switches without such rules share
//! one predicate vector across all in-ports (the common case, and an
//! important memory optimization at Stanford/Internet2 scale).
//!
//! # Owned sets and rule deltas (§4.4)
//!
//! Besides the predicates, every in-port *scope* (one for a port-agnostic
//! switch, one per data port otherwise) keeps each rule's **owned set** —
//! its effective match — and the table-miss set. Owned sets and the miss
//! partition the header space, and `P_{x,y}` is the disjoint union of the
//! owned sets of the rules that send to `y` (plus the miss for `y = ⊥`). So
//! one rule change ([`SwitchPredicates::update`]) moves headers between
//! owners and touches only the rules whose match overlaps the changed
//! rule's:
//!
//! * **add `r`** — each lower-priority owner (and the miss) whose match
//!   overlaps `match(r)` gives up `own ∧ match(r)`; together those pieces
//!   are `eff(r)`. Higher-priority owners already kept what they shadow.
//! * **delete `r`** — `r`'s owned set is handed down the match order to the
//!   overlapping lower rules; whatever none claims returns to the miss.
//! * **modify `r`** — `r`'s owned set moves from the old port to the new.
//!
//! The overlap test is integer compares on [`Match`] fields; set algebra
//! runs only on the owners that really overlap. [`SwitchPredicates::from_rules`]
//! — the full shadowing scan — builds the initial state, and rebuilds a
//! switch whose predicates change shape (its first `in_port` rule arrives
//! or its last one leaves).
//!
//! The computation is generic over the header-set representation
//! ([`HeaderSetBackend`]): the same code drives the BDD backend and the
//! atom-partition backend.

use std::collections::{BTreeMap, HashMap};

use veridp_packet::{PortNo, SwitchId, DROP_PORT};
use veridp_switch::{prefix_mask, FlowRule, Match, RuleId};

use crate::backend::HeaderSetBackend;
use crate::headerspace::HeaderSpace;
use crate::snapshot::RuleUpdate;

/// The predicates of one in-port scope, with the ownership state that lets
/// a rule change update them in place.
struct Scope<B: HeaderSetBackend> {
    /// `P_{x,y}` by out-port `y`; an absent port is `FALSE`.
    out: HashMap<PortNo, B::Set>,
    /// Each rule's owned set (its effective match in this scope), aligned
    /// with [`SwitchPredicates::rules`]. Empty for predicates built from a
    /// transfer map.
    owned: Vec<B::Set>,
    /// Headers no rule claims: the table-miss drop.
    miss: B::Set,
}

impl<B: HeaderSetBackend> Clone for Scope<B> {
    fn clone(&self) -> Self {
        Scope {
            out: self.out.clone(),
            owned: self.owned.clone(),
            miss: self.miss,
        }
    }
}

impl<B: HeaderSetBackend> std::fmt::Debug for Scope<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.out.fmt(f)
    }
}

/// Transfer predicates of one switch.
pub struct SwitchPredicates<B: HeaderSetBackend = HeaderSpace> {
    pub switch: SwitchId,
    /// Data-plane ports of the switch (excluding `⊥`).
    ports: Vec<PortNo>,
    /// The backend's canonical full/empty handles, kept so lookups can
    /// answer without backend access.
    full: B::Set,
    empty: B::Set,
    /// The switch's rules in match order: priority descending, then id
    /// ascending (first-installed wins). Empty for predicates built from a
    /// transfer map.
    rules: Vec<FlowRule>,
    /// `uniform` when no rule is in-port-qualified; otherwise `per_port[x]`.
    uniform: Option<Scope<B>>,
    per_port: HashMap<PortNo, Scope<B>>,
}

impl<B: HeaderSetBackend> std::fmt::Debug for SwitchPredicates<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwitchPredicates")
            .field("switch", &self.switch)
            .field("ports", &self.ports)
            .field("uniform", &self.uniform)
            .field("per_port", &self.per_port)
            .finish()
    }
}

impl<B: HeaderSetBackend> Clone for SwitchPredicates<B> {
    fn clone(&self) -> Self {
        SwitchPredicates {
            switch: self.switch,
            ports: self.ports.clone(),
            full: self.full,
            empty: self.empty,
            rules: self.rules.clone(),
            uniform: self.uniform.clone(),
            per_port: self.per_port.clone(),
        }
    }
}

/// The match-order sort key: priority descending, then id ascending.
fn rank(r: &FlowRule) -> (std::cmp::Reverse<u16>, RuleId) {
    (std::cmp::Reverse(r.priority), r.id)
}

/// Whether rule `r` takes part in lookups of scope `x` (`None`: the
/// port-agnostic scope, which no in-port-qualified rule joins).
fn applies(r: &FlowRule, x: Option<PortNo>) -> bool {
    r.fields.in_port.is_none() || r.fields.in_port == x
}

/// Whether two matches share a header, in-ports aside. Integer compares
/// only: prefixes overlap iff they agree on the shorter length, ranges iff
/// they intersect, and the fields are independent.
fn overlaps(a: &Match, b: &Match) -> bool {
    let prefixes = |ia: u32, la: u8, ib: u32, lb: u8| {
        let l = la.min(lb);
        prefix_mask(ia, l) == prefix_mask(ib, l)
    };
    prefixes(a.dst_ip, a.dst_plen, b.dst_ip, b.dst_plen)
        && prefixes(a.src_ip, a.src_plen, b.src_ip, b.src_plen)
        && (a.proto.is_none() || b.proto.is_none() || a.proto == b.proto)
        && a.src_port.lo <= b.src_port.hi
        && b.src_port.lo <= a.src_port.hi
        && a.dst_port.lo <= b.dst_port.hi
        && b.dst_port.lo <= a.dst_port.hi
}

impl<B: HeaderSetBackend> Scope<B> {
    /// Move headers `d` from `P_{x,from}` to `P_{x,to}`, remembering the
    /// first value of every predicate this update touches.
    fn shift(
        &mut self,
        key: Option<PortNo>,
        from: PortNo,
        to: PortNo,
        d: B::Set,
        before: &mut BTreeMap<(Option<PortNo>, PortNo), B::Set>,
        hs: &mut B,
    ) {
        if from == to {
            return;
        }
        let empty = hs.empty();
        let f = self.out.entry(from).or_insert(empty);
        before.entry((key, from)).or_insert(*f);
        *f = hs.diff(*f, d);
        let t = self.out.entry(to).or_insert(empty);
        before.entry((key, to)).or_insert(*t);
        *t = hs.or(*t, d);
    }

    /// The rule at `p` (just inserted, owning nothing) claims `m`, its
    /// match: every lower owner that overlaps gives up its share.
    fn claim(
        &mut self,
        key: Option<PortNo>,
        rules: &[FlowRule],
        p: usize,
        m: B::Set,
        before: &mut BTreeMap<(Option<PortNo>, PortNo), B::Set>,
        hs: &mut B,
    ) {
        let r = &rules[p];
        let to = r.action.out_port();
        let mut eff = hs.empty();
        for (q, rq) in rules.iter().enumerate().skip(p + 1) {
            if eff == m {
                break; // all of m claimed: no lower owner holds any of it
            }
            let own = self.owned[q];
            if hs.is_empty(own) || !overlaps(&r.fields, &rq.fields) {
                continue;
            }
            let t = hs.and(own, m);
            if hs.is_empty(t) {
                continue;
            }
            self.owned[q] = hs.diff(own, t);
            eff = hs.or(eff, t);
            self.shift(key, rq.action.out_port(), to, t, before, hs);
        }
        let t = hs.and(self.miss, m);
        if !hs.is_empty(t) {
            self.miss = hs.diff(self.miss, t);
            eff = hs.or(eff, t);
            self.shift(key, DROP_PORT, to, t, before, hs);
        }
        self.owned[p] = eff;
    }

    /// The rule at `p` (about to be removed) hands its owned set down the
    /// match order; the rest returns to the miss.
    fn release(
        &mut self,
        key: Option<PortNo>,
        rules: &[FlowRule],
        p: usize,
        before: &mut BTreeMap<(Option<PortNo>, PortNo), B::Set>,
        hs: &mut B,
    ) {
        let r = &rules[p];
        let from = r.action.out_port();
        let mut o = std::mem::replace(&mut self.owned[p], hs.empty());
        for (q, rq) in rules.iter().enumerate().skip(p + 1) {
            if hs.is_empty(o) {
                return;
            }
            if !applies(rq, key) || !overlaps(&r.fields, &rq.fields) {
                continue;
            }
            let mq = hs.from_match(&rq.fields);
            let t = hs.and(o, mq);
            if hs.is_empty(t) {
                continue;
            }
            self.owned[q] = hs.or(self.owned[q], t);
            o = hs.diff(o, t);
            self.shift(key, from, rq.action.out_port(), t, before, hs);
        }
        if !hs.is_empty(o) {
            self.miss = hs.or(self.miss, o);
            self.shift(key, from, DROP_PORT, o, before, hs);
        }
    }
}

impl<B: HeaderSetBackend> SwitchPredicates<B> {
    /// Compute predicates from the switch's rule list (any order; priorities
    /// decide shadowing) for a switch with the given data ports.
    pub fn from_rules(switch: SwitchId, ports: &[PortNo], rules: &[FlowRule], hs: &mut B) -> Self {
        let mut sorted = rules.to_vec();
        sorted.sort_by_key(rank);
        let mut p = SwitchPredicates {
            switch,
            ports: ports.to_vec(),
            full: hs.full(),
            empty: hs.empty(),
            rules: sorted,
            uniform: None,
            per_port: HashMap::new(),
        };
        if p.rules.iter().any(|r| r.fields.in_port.is_some()) {
            for &x in ports {
                let scope = p.scan(Some(x), hs);
                p.per_port.insert(x, scope);
            }
        } else {
            p.uniform = Some(p.scan(None, hs));
        }
        p
    }

    /// One pass of priority shadowing over the sorted rules for in-port
    /// scope `x`.
    fn scan(&self, x: Option<PortNo>, hs: &mut B) -> Scope<B> {
        let mut out: HashMap<PortNo, B::Set> = HashMap::new();
        let mut owned = vec![hs.empty(); self.rules.len()];
        let mut remaining = hs.full(); // headers not yet claimed by any rule
        for (i, r) in self.rules.iter().enumerate() {
            if hs.is_empty(remaining) {
                break;
            }
            if !applies(r, x) {
                continue;
            }
            let m = hs.from_match(&r.fields);
            let eff = hs.and(m, remaining);
            if hs.is_empty(eff) {
                continue;
            }
            remaining = hs.diff(remaining, m);
            owned[i] = eff;
            let entry = out.entry(r.action.out_port()).or_insert_with(|| hs.empty());
            *entry = hs.or(*entry, eff);
        }
        // Table miss: whatever no rule claimed is dropped.
        if !hs.is_empty(remaining) {
            let entry = out.entry(DROP_PORT).or_insert_with(|| hs.empty());
            *entry = hs.or(*entry, remaining);
        }
        Scope {
            out,
            owned,
            miss: remaining,
        }
    }

    /// Build predicates from an explicit `(in_port, out_port) → headers`
    /// map — used by the configuration pipeline (§4.1), which composes
    /// forwarding and ACL predicates itself. Pairs absent from the map are
    /// `FALSE`. Such predicates carry no rules: a rule update rebuilds them
    /// from the updated (initially empty) rule list.
    pub fn from_transfer_map(
        switch: SwitchId,
        ports: &[PortNo],
        map: HashMap<(PortNo, PortNo), B::Set>,
        hs: &B,
    ) -> Self {
        let scope = || Scope {
            out: HashMap::new(),
            owned: Vec::new(),
            miss: hs.empty(),
        };
        let mut per_port: HashMap<PortNo, Scope<B>> = ports.iter().map(|&x| (x, scope())).collect();
        for ((x, y), b) in map {
            if hs.is_empty(b) {
                continue;
            }
            per_port.entry(x).or_insert_with(scope).out.insert(y, b);
        }
        SwitchPredicates {
            switch,
            ports: ports.to_vec(),
            full: hs.full(),
            empty: hs.empty(),
            rules: Vec::new(),
            uniform: None,
            per_port,
        }
    }

    /// The data ports of the switch.
    pub fn ports(&self) -> &[PortNo] {
        &self.ports
    }

    /// The switch's rules in match order (priority descending, then id
    /// ascending).
    pub fn rules(&self) -> &[FlowRule] {
        &self.rules
    }

    /// The scope in-port `x` looks up, `None` for a port with no scope.
    fn scope(&self, x: PortNo) -> Option<&Scope<B>> {
        self.uniform.as_ref().or_else(|| self.per_port.get(&x))
    }

    /// `P_{x,y}`: headers that transfer from port `x` to port `y`.
    pub fn transfer(&self, x: PortNo, y: PortNo) -> B::Set {
        match self.scope(x) {
            Some(s) => s.out.get(&y).copied().unwrap_or(self.empty),
            None if y.is_drop() => self.full,
            None => self.empty,
        }
    }

    /// Non-empty `(y, P_{x,y})` pairs for a given in-port, drop port
    /// included, in deterministic order.
    pub fn outputs(&self, x: PortNo) -> Vec<(PortNo, B::Set)> {
        let Some(scope) = self.scope(x) else {
            return vec![(DROP_PORT, self.full)];
        };
        let mut v: Vec<(PortNo, B::Set)> = scope
            .out
            .iter()
            .filter(|(_, b)| **b != self.empty)
            .map(|(p, b)| (*p, *b))
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// Whether any rule made the predicates in-port-dependent.
    pub fn is_port_dependent(&self) -> bool {
        self.uniform.is_none()
    }

    /// Apply one rule change (the switch id of `upd` is not consulted) and
    /// return every transfer predicate it changed, as `(x, y, P_{x,y}
    /// before, P_{x,y} after)`. Set algebra runs only on the rules whose
    /// match overlaps the changed rule's; every other lower-priority rule
    /// costs one integer compare (see the module docs). A change of shape —
    /// the first `in_port` rule arriving, the last one leaving, or
    /// predicates built from a transfer map — rebuilds through
    /// [`from_rules`](Self::from_rules) instead.
    ///
    /// Semantics match editing the rule list and rebuilding: an add replaces
    /// every rule with the same id, a delete removes every rule with the
    /// id, a modify re-targets the first one in match order.
    pub fn update(
        &mut self,
        upd: &RuleUpdate,
        hs: &mut B,
    ) -> Vec<(PortNo, PortNo, B::Set, B::Set)> {
        let (removed, added) = match *upd {
            RuleUpdate::Add(_, rule) => (Some(rule.id), Some(rule)),
            RuleUpdate::Delete(_, id) => (Some(id), None),
            RuleUpdate::Modify(..) => (None, None),
        };
        let dependent_after = added.is_some_and(|r| r.fields.in_port.is_some())
            || self
                .rules
                .iter()
                .any(|r| Some(r.id) != removed && r.fields.in_port.is_some());
        if self.rules.is_empty() || dependent_after != self.is_port_dependent() {
            return self.rebuild(upd, hs);
        }

        let mut before = BTreeMap::new();
        let SwitchPredicates {
            rules,
            uniform,
            per_port,
            ..
        } = self;
        let mut scopes: Vec<(Option<PortNo>, &mut Scope<B>)> = uniform
            .iter_mut()
            .map(|s| (None, s))
            .chain(per_port.iter_mut().map(|(x, s)| (Some(*x), s)))
            .collect();
        match *upd {
            RuleUpdate::Modify(_, id, action) => {
                if let Some(p) = rules.iter().position(|r| r.id == id) {
                    let from = rules[p].action.out_port();
                    rules[p].action = action;
                    for (key, scope) in &mut scopes {
                        let own = scope.owned[p];
                        if !hs.is_empty(own) {
                            scope.shift(*key, from, action.out_port(), own, &mut before, hs);
                        }
                    }
                }
            }
            _ => {
                let removed = removed.expect("add and delete name a rule");
                while let Some(p) = rules.iter().position(|r| r.id == removed) {
                    for (key, scope) in &mut scopes {
                        scope.release(*key, rules, p, &mut before, hs);
                        scope.owned.remove(p);
                    }
                    rules.remove(p);
                }
                if let Some(rule) = added {
                    let p = rules.partition_point(|q| rank(q) < rank(&rule));
                    rules.insert(p, rule);
                    let m = hs.from_match(&rule.fields);
                    for (key, scope) in &mut scopes {
                        scope.owned.insert(p, hs.empty());
                        if applies(&rule, *key) {
                            scope.claim(*key, rules, p, m, &mut before, hs);
                        }
                    }
                }
            }
        }

        let mut changes = Vec::new();
        for ((key, y), was) in before {
            let scope = match key {
                None => self.uniform.as_mut(),
                Some(x) => self.per_port.get_mut(&x),
            }
            .expect("a touched scope exists");
            let now = scope.out[&y];
            if hs.is_empty(now) {
                scope.out.remove(&y);
            }
            if was == now {
                continue;
            }
            match key {
                None => changes.extend(self.ports.iter().map(|&x| (x, y, was, now))),
                Some(x) => changes.push((x, y, was, now)),
            }
        }
        changes
    }

    /// Edit the rule list and recompute the switch with
    /// [`from_rules`](Self::from_rules); returns every changed predicate.
    fn rebuild(&mut self, upd: &RuleUpdate, hs: &mut B) -> Vec<(PortNo, PortNo, B::Set, B::Set)> {
        let mut rules = std::mem::take(&mut self.rules);
        match *upd {
            RuleUpdate::Add(_, rule) => {
                rules.retain(|r| r.id != rule.id);
                rules.push(rule);
            }
            RuleUpdate::Delete(_, id) => rules.retain(|r| r.id != id),
            RuleUpdate::Modify(_, id, action) => {
                if let Some(r) = rules.iter_mut().find(|r| r.id == id) {
                    r.action = action;
                }
            }
        }
        let new = Self::from_rules(self.switch, &self.ports, &rules, hs);
        let old = std::mem::replace(self, new);
        let mut changes = Vec::new();
        for &x in &self.ports {
            for y in self.ports.iter().copied().chain([DROP_PORT]) {
                let (was, now) = (old.transfer(x, y), self.transfer(x, y));
                if was != now {
                    changes.push((x, y, was, now));
                }
            }
        }
        changes
    }

    /// Copy these predicates into another backend instance, translating
    /// every set handle via [`HeaderSetBackend::import`]. Handles in `self`
    /// must belong to `src`; the returned predicates' handles belong to
    /// `dst`. With `owned` false only the transfer predicates are copied —
    /// enough to traverse (the parallel build's workers), not to update.
    ///
    /// Reusing one `memo` across all switches of a network makes predicates
    /// that share structure (common prefixes, default drops) translate only
    /// once — this is the seeding step of the sharded parallel build.
    pub fn translated(&self, src: &B, dst: &mut B, memo: &mut B::Memo, owned: bool) -> Self {
        let (full, empty) = (dst.full(), dst.empty());
        let mut tr = |s: &Scope<B>| Scope {
            out: s
                .out
                .iter()
                .map(|(p, b)| (*p, dst.import(src, *b, memo)))
                .collect(),
            owned: if owned {
                s.owned.iter().map(|b| dst.import(src, *b, memo)).collect()
            } else {
                Vec::new()
            },
            miss: dst.import(src, s.miss, memo),
        };
        SwitchPredicates {
            switch: self.switch,
            ports: self.ports.clone(),
            full,
            empty,
            rules: if owned {
                self.rules.clone()
            } else {
                Vec::new()
            },
            uniform: self.uniform.as_ref().map(&mut tr),
            per_port: self.per_port.iter().map(|(x, s)| (*x, tr(s))).collect(),
        }
    }
}
