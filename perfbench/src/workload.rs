//! The three workloads: seeded inputs, regenerated one file at a time, and
//! the fixed sequence of operations one round issues.

use cdstore_workloads::{FslConfig, FslWorkload, Snapshot, VmConfig, VmWorkload, Workload};

/// `unique`: files per round and bytes per file.
const UNIQUE_FILES: usize = 128;
const UNIQUE_FILE_BYTES: usize = 256 * 1024;

/// `fsl-weekly`: users, weeks, chunks in a user's first snapshot, weeks a
/// snapshot is retained, and restores per round.
const FSL_USERS: usize = 8;
const FSL_WEEKS: usize = 16;
const FSL_INITIAL_CHUNKS: usize = 40;
const FSL_RETAIN_WEEKS: usize = 4;
const FSL_RESTORES: usize = 112;

/// `vm-clones`: images (users), weeks, 4 KB chunks per image, and restores
/// per round.
const VM_USERS: usize = 36;
const VM_WEEKS: usize = 3;
const VM_CHUNKS_PER_IMAGE: usize = 80;
const VM_RESTORES: usize = 108;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Unique,
    FslWeekly,
    VmClones,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Unique, Kind::FslWeekly, Kind::VmClones];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Unique => "unique",
            Kind::FslWeekly => "fsl-weekly",
            Kind::VmClones => "vm-clones",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// SplitMix64: the benchmark's own seeded generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What a file's bytes are made of.
#[derive(Debug, Clone)]
pub enum Source {
    /// `len` seeded random bytes.
    Random { seed: u64, len: usize },
    /// A trace snapshot, backed up as its pre-cut chunks.
    Trace(Snapshot),
}

/// One file of the workload.
#[derive(Debug, Clone)]
pub struct Input {
    pub user: u64,
    pub path: String,
    pub source: Source,
}

impl Input {
    /// The file's bytes, regenerated from the seed.
    pub fn bytes(&self) -> Vec<u8> {
        match &self.source {
            Source::Random { seed, len } => {
                let mut rng = SplitMix::new(*seed);
                let mut out = Vec::with_capacity(len + 8);
                while out.len() < *len {
                    out.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                out.truncate(*len);
                out
            }
            Source::Trace(snapshot) => snapshot.materialize().concat(),
        }
    }

    /// The pre-cut chunks of a trace file (`None` for files the client
    /// chunks itself).
    pub fn chunks(&self) -> Option<Vec<Vec<u8>>> {
        match &self.source {
            Source::Random { .. } => None,
            Source::Trace(snapshot) => Some(snapshot.materialize()),
        }
    }

    /// Logical size in bytes.
    pub fn len(&self) -> u64 {
        match &self.source {
            Source::Random { len, .. } => *len as u64,
            Source::Trace(snapshot) => snapshot.logical_bytes(),
        }
    }
}

/// One operation of a round, naming inputs by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Backup(usize),
    Delete(usize),
    Gc,
    Flush,
    Restore(usize),
}

/// A workload's inputs and the operations one round issues, in order. Every
/// round replays the same plan against a fresh deployment.
pub struct Plan {
    pub inputs: Vec<Input>,
    pub steps: Vec<Step>,
}

impl Plan {
    pub fn new(kind: Kind, seed: u64) -> Plan {
        match kind {
            Kind::Unique => unique(seed),
            Kind::FslWeekly => fsl_weekly(seed),
            Kind::VmClones => vm_clones(seed),
        }
    }

    /// Backup steps per round.
    pub fn backups(&self) -> usize {
        self.count(|s| matches!(s, Step::Backup(_)))
    }

    /// Restore steps per round.
    pub fn restores(&self) -> usize {
        self.count(|s| matches!(s, Step::Restore(_)))
    }

    fn count(&self, f: impl Fn(&Step) -> bool) -> usize {
        self.steps.iter().filter(|s| f(s)).count()
    }
}

fn unique(seed: u64) -> Plan {
    let mut seeds = SplitMix::new(seed ^ 0x0000_756e_6971_7565);
    let inputs: Vec<Input> = (0..UNIQUE_FILES)
        .map(|i| Input {
            user: 1,
            path: format!("/unique/file-{i:03}.bin"),
            source: Source::Random {
                seed: seeds.next_u64(),
                len: UNIQUE_FILE_BYTES,
            },
        })
        .collect();
    let mut steps: Vec<Step> = (0..inputs.len()).map(Step::Backup).collect();
    steps.push(Step::Flush);
    steps.extend((0..inputs.len()).map(Step::Restore));
    Plan { inputs, steps }
}

/// Inputs indexed `week * users + user`.
fn trace_inputs(weeks: Vec<Vec<Snapshot>>) -> Vec<Input> {
    weeks
        .into_iter()
        .flatten()
        .map(|snapshot| Input {
            user: snapshot.user + 1,
            path: snapshot.pathname(),
            source: Source::Trace(snapshot),
        })
        .collect()
}

fn fsl_weekly(seed: u64) -> Plan {
    let workload = FslWorkload::new(FslConfig {
        users: FSL_USERS,
        weeks: FSL_WEEKS,
        initial_chunks_per_user: FSL_INITIAL_CHUNKS,
        seed,
        ..FslConfig::default()
    });
    let inputs = trace_inputs(workload.snapshots());
    let at = |week: usize, user: usize| week * FSL_USERS + user;
    let mut steps = Vec::new();
    for week in 0..FSL_WEEKS {
        steps.extend((0..FSL_USERS).map(|u| Step::Backup(at(week, u))));
        if let Some(expired) = week.checked_sub(FSL_RETAIN_WEEKS) {
            steps.extend((0..FSL_USERS).map(|u| Step::Delete(at(expired, u))));
            steps.push(Step::Gc);
        }
    }
    steps.push(Step::Flush);
    let retained: Vec<usize> = (FSL_WEEKS - FSL_RETAIN_WEEKS..FSL_WEEKS)
        .flat_map(|w| (0..FSL_USERS).map(move |u| at(w, u)))
        .collect();
    let mut rng = SplitMix::new(seed ^ 0x0066_736c);
    steps.extend((0..FSL_RESTORES).map(|_| Step::Restore(retained[rng.below(retained.len())])));
    Plan { inputs, steps }
}

fn vm_clones(seed: u64) -> Plan {
    let workload = VmWorkload::new(VmConfig {
        users: VM_USERS,
        weeks: VM_WEEKS,
        chunks_per_image: VM_CHUNKS_PER_IMAGE,
        seed,
        ..VmConfig::default()
    });
    let inputs = trace_inputs(workload.snapshots());
    let mut steps: Vec<Step> = (0..inputs.len()).map(Step::Backup).collect();
    steps.push(Step::Flush);
    let mut rng = SplitMix::new(seed ^ 0x0000_766d);
    steps.extend((0..VM_RESTORES).map(|_| Step::Restore(rng.below(inputs.len()))));
    Plan { inputs, steps }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backups and restores every round issues at least, so a round's own
    /// p90 has ten samples beyond it.
    const MIN_OPS_PER_ROUND: usize = 100;

    #[test]
    fn same_seed_same_inputs() {
        for kind in Kind::ALL {
            let (a, b) = (Plan::new(kind, 7), Plan::new(kind, 7));
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.inputs[3].bytes(), b.inputs[3].bytes());
            assert_ne!(Plan::new(kind, 8).inputs[3].bytes(), a.inputs[3].bytes());
        }
    }

    #[test]
    fn rounds_have_enough_ops_and_restore_only_live_files() {
        for kind in Kind::ALL {
            let plan = Plan::new(kind, 1);
            assert!(plan.backups() >= MIN_OPS_PER_ROUND);
            assert!(plan.restores() >= MIN_OPS_PER_ROUND);
            let mut live = std::collections::BTreeSet::new();
            for step in &plan.steps {
                match *step {
                    Step::Backup(i) => assert!(live.insert(i)),
                    Step::Delete(i) => assert!(live.remove(&i)),
                    Step::Restore(i) => assert!(live.contains(&i)),
                    Step::Gc | Step::Flush => {}
                }
            }
        }
    }
}
