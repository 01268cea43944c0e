//! Report streams, generated from the seed at set-up, and what the oracle
//! expects of any prefix of them. The program sees only the reports.

use crate::rng::Rng;
use crate::sut::{self, Backend, Counts, Report, Sut, Verdict};

/// Witnesses per path entry of the hot stream: ≈4 k distinct reports on
/// the fat tree, which the verdict cache holds entirely.
pub const HOT_PER_ENTRY: usize = 16;

/// Witnesses per path entry of a wide stream: far more distinct reports
/// than the verdict cache or the 8192-entry dedup window hold.
pub const WIDE_PER_ENTRY: usize = 400;

/// Share of failing reports in a wide stream.
const FAILING_SHARE: f64 = 0.01;

/// Duplicates in the robust stream: 2 % of positions repeat a report from
/// at most 64 positions before.
const DUPLICATE_PER_MILLE: usize = 20;
const DUPLICATE_HORIZON: usize = 64;

/// What the oracle expects of a run of reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    /// Verdicts of the reports that are not duplicates.
    pub verdicts: Counts,
    pub duplicates: u64,
}

impl Expect {
    fn plus(&self, o: &Expect) -> Expect {
        let mut verdicts = self.verdicts;
        verdicts.merge(&o.verdicts);
        Expect {
            verdicts,
            duplicates: self.duplicates + o.duplicates,
        }
    }

    fn times(&self, n: u64) -> Expect {
        Expect {
            verdicts: Counts {
                pass: self.verdicts.pass * n,
                tag_mismatch: self.verdicts.tag_mismatch * n,
                no_matching_path: self.verdicts.no_matching_path * n,
            },
            duplicates: self.duplicates * n,
        }
    }

    pub fn merge(&mut self, o: &Expect) {
        *self = self.plus(o);
    }
}

/// One connection's share of a stream, and which positions duplicate a
/// recent report.
pub type Part = (Vec<Report>, Vec<bool>);

/// One generator's stream: it sends `reports` round and round. `cum[i]` is
/// what the oracle expects of the first `i` reports.
pub struct Sub {
    pub reports: Vec<Report>,
    cum: Vec<Expect>,
}

impl Sub {
    /// `duplicate[i]` marks positions that repeat a recent report; the
    /// robust path drops those before a verdict.
    pub fn new(reports: Vec<Report>, verdicts: &[Verdict], duplicate: &[bool]) -> Sub {
        assert!(!reports.is_empty(), "an empty stream");
        let mut cum = Vec::with_capacity(reports.len() + 1);
        let mut acc = Expect::default();
        cum.push(acc);
        for (v, dup) in verdicts.iter().zip(duplicate) {
            if *dup {
                acc.duplicates += 1;
            } else {
                acc.verdicts.add(*v);
            }
            cum.push(acc);
        }
        Sub { reports, cum }
    }

    /// The oracle's expectation for the first `n` reports sent, the stream
    /// wrapping around as often as it takes.
    pub fn expect(&self, n: u64) -> Expect {
        let len = self.reports.len() as u64;
        self.cum[len as usize]
            .times(n / len)
            .plus(&self.cum[(n % len) as usize])
    }
}

/// The hot stream, once per generator, each in its own order; no
/// duplicates are marked.
pub fn hot<B: Backend>(sut: &Sut<B>, seed: u64, parts: usize) -> Vec<Part> {
    let rng = Rng::new(seed);
    let base = sut.witness_reports(HOT_PER_ENTRY, &rng.fork(1), false);
    (0..parts)
        .map(|p| {
            let mut v = base.clone();
            rng.fork(100 + p as u64).shuffle(&mut v);
            let marks = vec![false; v.len()];
            (v, marks)
        })
        .collect()
}

/// A wide stream of passing witnesses with 1 % failing reports mixed in,
/// shuffled.
pub fn wide(
    passing: Vec<Report>,
    failing: impl FnOnce(usize) -> Vec<Report>,
    rng: &mut Rng,
) -> Vec<Report> {
    let want = ((passing.len() as f64 * FAILING_SHARE).round() as usize).max(1);
    let mut all = passing;
    all.extend(failing(want));
    rng.shuffle(&mut all);
    all
}

/// The robust workload's stream: wide, failing reports from one seeded
/// wrong-port switch, split over `parts` connections, each part with its
/// seeded duplicates. A connection carries whole verify shards
/// ([`sut::shard_of`]), so every shard sees one connection's reports
/// in the order they were sent, and whether a duplicate falls inside the
/// dedup window does not depend on how two connections interleave.
/// Returns the parts with their duplicate marks, and the faulty switch.
pub fn wide_robust(sut: &Sut<sut::Bdd>, seed: u64, parts: usize) -> (Vec<Part>, u32) {
    let mut rng = Rng::new(seed);
    let passing = sut.witness_reports(WIDE_PER_ENTRY, &rng.fork(2), false);
    let mut fault_switch = 0;
    let mut fault_rng = rng.fork(3);
    let all = wide(
        passing,
        |want| {
            let t = sut::wrong_port_traffic(want, sut.epoch(), &mut fault_rng);
            fault_switch = t.switch;
            t.reports
        },
        &mut rng,
    );
    let shards = sut::robust_shards();
    let mut split: Vec<Vec<Report>> = vec![Vec::new(); parts];
    for r in all {
        split[sut::shard_of(&r, shards) % parts].push(r);
    }
    let out = split
        .iter()
        .map(|part| with_duplicates(part, &mut rng))
        .collect();
    (out, fault_switch)
}

/// Insert the seeded duplicates into a stream of distinct reports.
fn with_duplicates(distinct: &[Report], rng: &mut Rng) -> Part {
    let mut reports = Vec::with_capacity(distinct.len() + distinct.len() / 40);
    let mut marks = Vec::with_capacity(reports.capacity());
    for r in distinct {
        reports.push(*r);
        marks.push(false);
        if rng.below(1000) < DUPLICATE_PER_MILLE {
            let back = 1 + rng.below(DUPLICATE_HORIZON.min(reports.len()));
            reports.push(reports[reports.len() - back]);
            marks.push(true);
        }
    }
    (reports, marks)
}

/// The stream's wire bytes; what "the same seed gives the same inputs"
/// is checked on.
pub fn wire_bytes(reports: &[Report]) -> Vec<u8> {
    let mut out = Vec::with_capacity(reports.len() * sut::FRAME_LEN);
    for r in reports {
        sut::encode(&mut out, r);
    }
    out
}

/// FNV-1a of the stream's wire bytes, for the results file.
pub fn checksum(reports: &[Report]) -> u64 {
    wire_bytes(reports)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{Bdd, Net};

    #[test]
    fn equal_seeds_give_identical_bytes_and_other_seeds_differ() {
        let a = Sut::<Bdd>::build(Net::FatTree4);
        let b = Sut::<Bdd>::build(Net::FatTree4);
        let hot_a = hot(&a, 7, 2);
        let hot_b = hot(&b, 7, 2);
        assert_eq!(hot_a.len(), 2);
        assert_eq!(hot_a[0].0.len(), 272 * HOT_PER_ENTRY);
        assert_eq!(wire_bytes(&hot_a[0].0), wire_bytes(&hot_b[0].0));
        assert_eq!(wire_bytes(&hot_a[1].0), wire_bytes(&hot_b[1].0));
        assert_ne!(wire_bytes(&hot_a[0].0), wire_bytes(&hot_a[1].0));
        assert_ne!(wire_bytes(&hot_a[0].0), wire_bytes(&hot(&a, 8, 1)[0].0));

        let (wide_a, switch_a) = wide_robust(&a, 7, 2);
        let (wide_b, switch_b) = wide_robust(&b, 7, 2);
        assert_eq!(switch_a, switch_b);
        assert_eq!(wire_bytes(&wide_a[0].0), wire_bytes(&wide_b[0].0));
        assert_eq!(wide_a[1].1, wide_b[1].1);
    }

    #[test]
    fn duplicates_repeat_a_report_at_most_64_back() {
        let sut = Sut::<Bdd>::build(Net::FatTree4);
        let distinct = sut.witness_reports(40, &Rng::new(1), false);
        let (reports, marks) = with_duplicates(&distinct, &mut Rng::new(2));
        let dups = marks.iter().filter(|m| **m).count();
        assert_eq!(reports.len(), distinct.len() + dups);
        let share = dups as f64 / distinct.len() as f64;
        assert!((0.01..0.03).contains(&share), "2 % duplicates, got {share}");
        for (i, _) in marks.iter().enumerate().filter(|(_, m)| **m) {
            let from = i.saturating_sub(DUPLICATE_HORIZON);
            assert!(reports[from..i].contains(&reports[i]));
        }
    }

    #[test]
    fn expectation_wraps_around_the_stream() {
        let sut = Sut::<Bdd>::build(Net::FatTree4);
        let reports = sut.witness_reports(1, &Rng::new(1), false)[..4].to_vec();
        let verdicts = [
            Verdict::Pass,
            Verdict::TagMismatch,
            Verdict::Pass,
            Verdict::NoMatchingPath,
        ];
        let sub = Sub::new(reports, &verdicts, &[false, false, true, false]);
        let e = sub.expect(9);
        assert_eq!(e.verdicts.pass, 3);
        assert_eq!(e.verdicts.tag_mismatch, 2);
        assert_eq!(e.verdicts.no_matching_path, 2);
        assert_eq!(e.duplicates, 2);
    }
}
