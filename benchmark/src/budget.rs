//! The stage budget: CPU time and run-queue wait per layer, from the
//! threads' names. Sampled at the edges of the measured interval.

use crate::procfs;

const GENERATOR: usize = 0;
const INTAKE: usize = 1;
const PUMP: usize = 2;
const BENCH: usize = 3;
const OTHER: usize = 4;

/// Which layer a thread belongs to, by the name the program gave it.
/// A thread spawned without a name inherits its parent's, so the scoped
/// verify workers count with the pump while they live; once they have
/// exited only the process total still holds their time, and it shows up
/// under `other`.
fn class_of(name: &str) -> usize {
    if name.starts_with("gen-") {
        GENERATOR
    } else if ["net-reactor", "net-udp", "net-accept", "net-conn"]
        .iter()
        .any(|p| name.starts_with(p))
    {
        INTAKE
    } else if name.starts_with("net-pump") || name.starts_with("net-verify") {
        PUMP
    } else if name.starts_with("gapbench") || name.starts_with("bench-") {
        BENCH
    } else {
        OTHER
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    process_ns: u64,
    switches: u64,
    /// (on-CPU ns, runnable-but-waiting ns) per class.
    classes: [(u64, u64); 5],
}

pub fn sample() -> Sample {
    let mut s = Sample {
        process_ns: procfs::process_cpu_ns(),
        switches: procfs::context_switches(),
        classes: Default::default(),
    };
    for t in procfs::threads() {
        let c = &mut s.classes[class_of(&t.name)];
        c.0 += t.run_ns;
        c.1 += t.wait_ns;
    }
    s
}

/// CPU spent between two samples, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    pub process_ns: f64,
    pub generator_ns: f64,
    pub intake_ns: f64,
    pub intake_wait_ns: f64,
    pub pump_ns: f64,
    pub pump_wait_ns: f64,
    /// The benchmark's own measuring threads.
    pub bench_ns: f64,
    /// Process total minus every class above.
    pub other_ns: f64,
    pub switches: f64,
}

pub fn between(a: &Sample, b: &Sample) -> Budget {
    let run = |i: usize| b.classes[i].0.saturating_sub(a.classes[i].0) as f64;
    let wait = |i: usize| b.classes[i].1.saturating_sub(a.classes[i].1) as f64;
    let process_ns = b.process_ns.saturating_sub(a.process_ns) as f64;
    let named = run(GENERATOR) + run(INTAKE) + run(PUMP) + run(BENCH);
    Budget {
        process_ns,
        generator_ns: run(GENERATOR),
        intake_ns: run(INTAKE),
        intake_wait_ns: wait(INTAKE),
        pump_ns: run(PUMP),
        pump_wait_ns: wait(PUMP),
        bench_ns: run(BENCH),
        other_ns: (process_ns - named).max(0.0),
        switches: b.switches.saturating_sub(a.switches) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_follow_the_programs_thread_names() {
        assert_eq!(class_of("gen-1"), GENERATOR);
        assert_eq!(class_of("net-reactor-udp"), INTAKE);
        assert_eq!(class_of("net-conn-17"), INTAKE);
        assert_eq!(class_of("net-pump"), PUMP);
        assert_eq!(class_of("net-verify-3"), PUMP);
        assert_eq!(class_of("gapbench"), BENCH);
        assert_eq!(class_of("net-liveness"), OTHER);
    }
}
