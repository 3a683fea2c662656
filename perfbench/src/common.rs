//! What the three workloads share: command-line arguments, the run
//! budget, the seed rotation, the travel-domain inputs and crowd
//! provider, the timing crowd wrapper and the on-disk work directory.

// audit: allow-file(D2, a benchmark measures wall-clock time by design)

use crate::stats::{splitmix64, Mark};
use crowd::population::{generate, PopulationConfig};
use crowd::{Answer, AnswerModel, CrowdSource, MemberBehavior, MemberId, Question, SimulatedCrowd};
use oassis_server::{CrowdProvider, SessionSpec};
use ontology::domains::{travel, DomainScale, GeneratedDomain};
use ontology::Ontology;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Crowd seeds per rotation. Every run completes whole rotations, so
/// every exact count is the same at any run length. One travel crowd's
/// question count varies by about 12 % from seed to seed; averaging 16
/// crowds keeps a run's mean work within about 3 % across workload
/// seeds.
pub const ROTATION: usize = 16;

/// Habit profiles planted in the travel crowd (the E1 setting).
pub const HABITS: usize = 12;

/// Seed of the planted habit world (the habit profiles every crowd
/// draws its members from), the seed the E1 experiment plants with. The
/// workload seed varies the members drawn and the mining seed, not the
/// world, so every run mines the same ground truth.
pub const WORLD_SEED: u64 = 7;

/// Members of a served session's crowd.
pub const SERVE_MEMBERS: u32 = 48;

/// Queries a served session runs after its cold query (all answer-cache
/// hits).
pub const SERVE_REPEATS: usize = 8;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `mine`, `serve` or `recover`.
    pub workload: String,
    /// Workload seed; the crowd seeds of a rotation derive from it.
    pub seed: u64,
    /// Seconds the timed phase runs for (then the open rotation ends).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value != "0",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !matches!(args.workload.as_str(), "mine" | "serve" | "recover") {
            return Err(format!(
                "--workload must be mine, serve or recover (got {:?})",
                args.workload
            ));
        }
        if args.seconds.is_nan() || args.seconds < 0.0 {
            return Err("--seconds must be non-negative".into());
        }
        Ok(args)
    }
}

/// One slot of the seed rotation: the crowd seed and the mining seed of
/// the ops that use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Position in the rotation.
    pub index: usize,
    /// Seed of the simulated crowd.
    pub crowd: u64,
    /// Mining seed (`MiningConfig::seed`).
    pub mining: u64,
}

/// The [`ROTATION`] slots derived from a workload seed. Seeds are kept
/// below 2^53 so they survive the wire protocol's JSON numbers.
pub fn rotation(seed: u64) -> [Slot; ROTATION] {
    std::array::from_fn(|i| {
        let base = splitmix64(seed ^ (i as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
        Slot {
            index: i,
            crowd: base >> 11,
            mining: splitmix64(base) >> 11,
        }
    })
}

/// Seed of the warm-up slot.
const WARM_UP_SEED: u64 = 0x5eed;

/// The slot set-up warms up with: the same crowd for every workload
/// seed, so set-up does the same work whatever the seed. Its index lies
/// outside the rotation, so no reference outcome is kept for it.
pub fn warm_up_slot() -> Slot {
    Slot {
        index: ROTATION,
        crowd: WARM_UP_SEED,
        mining: WARM_UP_SEED,
    }
}

/// How long the timed phase runs: at least `min_rotations` whole
/// rotations, and until `seconds` have passed at a rotation boundary.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock target of the timed phase.
    pub seconds: f64,
    /// Whole rotations to run regardless of time.
    pub min_rotations: usize,
}

impl Budget {
    /// A budget of `seconds` (at least one rotation).
    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            seconds,
            min_rotations: 1,
        }
    }

    /// Exactly `n` rotations (no time target).
    pub fn rotations(n: usize) -> Budget {
        Budget {
            seconds: 0.0,
            min_rotations: n.max(1),
        }
    }

    /// Whether another rotation should start after `done` rotations
    /// with `elapsed` of the timed phase gone.
    pub fn more(&self, done: usize, elapsed: Duration) -> bool {
        done < self.min_rotations || elapsed.as_secs_f64() < self.seconds
    }
}

/// A run's clock: wall time since the timed phase started and process
/// CPU time, captured together as [`Mark`]s.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
}

impl Clock {
    /// Starts the clock now.
    pub fn start() -> Clock {
        Clock {
            start: Instant::now(),
        }
    }

    /// Time since the start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// A mark with `ops` completed.
    pub fn mark(&self, ops: u64) -> Mark {
        Mark {
            t: self.elapsed().as_secs_f64(),
            cpu: crate::procfs::cpu_seconds(),
            ops,
        }
    }
}

/// Whose CPU time a set-up is charged with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuScope {
    /// The calling thread, within a scheduler tick: for a set-up that
    /// does all its work on that thread.
    Thread,
    /// Every thread of the process, in 10 ms ticks: for a set-up that
    /// works on other threads too and runs for a second or more.
    Process,
}

impl CpuScope {
    fn seconds(self) -> f64 {
        match self {
            CpuScope::Thread => crate::procfs::thread_cpu_seconds(),
            CpuScope::Process => crate::procfs::cpu_seconds(),
        }
    }
}

/// The cost of one set-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupTime {
    /// CPU seconds (see [`CpuScope`]). Host steal and stalls, which
    /// swing the wall time of the same set-up by 25–60 % between runs,
    /// do not count here.
    pub cpu: f64,
    /// Wall seconds.
    pub wall: f64,
}

/// Runs set-up `f`, with its CPU time charged to `scope`.
pub fn timed_setup<R>(scope: CpuScope, f: impl FnOnce() -> R) -> (SetupTime, R) {
    let cpu = scope.seconds();
    let (ms, r) = timed(f);
    let time = SetupTime {
        cpu: scope.seconds() - cpu,
        wall: ms / 1e3,
    };
    (time, r)
}

/// Milliseconds spent in `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64() * 1e3, r)
}

/// The paper-scale travel domain (E1) and its shared ontology.
pub struct Travel {
    /// The generated domain (ontology, query text).
    pub domain: Arc<GeneratedDomain>,
    /// The ontology the server and the recovering manager share.
    pub ontology: Arc<Ontology>,
}

impl Travel {
    /// Generates the domain.
    pub fn new() -> Travel {
        let domain = travel(DomainScale::paper());
        let ontology = Arc::new(domain.ontology.clone());
        Travel {
            domain: Arc::new(domain),
            ontology,
        }
    }

    /// The provider the server asks for each query's crowd.
    pub fn provider(&self) -> TravelProvider {
        TravelProvider {
            domain: self.domain.clone(),
        }
    }
}

impl Default for Travel {
    fn default() -> Travel {
        Travel::new()
    }
}

/// A crowd of `members` drawn with `seed` from the planted habit world
/// ([`WORLD_SEED`]). `paper` members behave like the paper's crowd
/// (bounded sessions, pruning clicks, volunteered tips; the settings of
/// `bench::domain_crowd`); otherwise they are rng-free (the settings of
/// `bench::pure_domain_crowd`), so a member's answer depends on the
/// question alone and cached answers stay exact.
pub fn travel_crowd(
    domain: &GeneratedDomain,
    members: usize,
    seed: u64,
    paper: bool,
) -> SimulatedCrowd<'_> {
    let profiles = bench::domain_profiles(domain, HABITS, WORLD_SEED);
    let behavior = if paper {
        MemberBehavior {
            session_limit: Some(30),
            pruning_prob: 0.25,
            more_tip_prob: 0.05,
            spammer: false,
            stall_every: None,
        }
    } else {
        MemberBehavior::default()
    };
    let cfg = PopulationConfig {
        members,
        transactions: (20, 40),
        behavior,
        answer_model: AnswerModel::Bucketed5,
        seed,
        ..Default::default()
    };
    SimulatedCrowd::new(domain.ontology.vocab(), generate(&profiles, &cfg))
}

/// Serves the travel domain's crowd: `spec.members` rng-free members
/// drawn with `spec.seed` (see [`travel_crowd`]), so equal specs answer
/// identically and a cached repeat reproduces the cold query's outcome.
#[derive(Clone)]
pub struct TravelProvider {
    domain: Arc<GeneratedDomain>,
}

impl CrowdProvider for TravelProvider {
    fn provide<'a>(&'a self, spec: &SessionSpec) -> Box<dyn CrowdSource + Send + 'a> {
        Box::new(travel_crowd(
            &self.domain,
            spec.members as usize,
            spec.seed,
            false,
        ))
    }
}

/// Shared totals of a [`TimedCrowd`]: asks that reached the members and
/// the nanoseconds they took.
#[derive(Debug, Default)]
pub struct AskTotals {
    /// Questions answered by the wrapped crowd.
    pub asks: AtomicU64,
    /// Nanoseconds spent inside the wrapped crowd's `ask`.
    pub nanos: AtomicU64,
}

impl AskTotals {
    /// `(asks, milliseconds)` so far.
    pub fn read(&self) -> (u64, f64) {
        (
            self.asks.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed) as f64 / 1e6,
        )
    }
}

/// Times every `ask` that reaches the wrapped crowd (the members'
/// answering cost, below any answer cache).
pub struct TimedCrowd<'a> {
    inner: Box<dyn CrowdSource + Send + 'a>,
    totals: Arc<AskTotals>,
}

impl<'a> TimedCrowd<'a> {
    /// Wraps `inner`, adding into `totals`.
    pub fn new(inner: Box<dyn CrowdSource + Send + 'a>, totals: Arc<AskTotals>) -> TimedCrowd<'a> {
        TimedCrowd { inner, totals }
    }
}

impl CrowdSource for TimedCrowd<'_> {
    fn members(&self) -> Vec<MemberId> {
        self.inner.members()
    }

    fn ask(&mut self, member: MemberId, question: &Question) -> Answer {
        let t = Instant::now();
        let answer = self.inner.ask(member, question);
        let nanos = t.elapsed().as_nanos() as u64;
        self.totals.asks.fetch_add(1, Ordering::Relaxed);
        self.totals.nanos.fetch_add(nanos, Ordering::Relaxed);
        answer
    }

    fn questions_asked(&self) -> usize {
        self.inner.questions_asked()
    }

    fn member_has_profile(&self, member: MemberId, label: &str) -> bool {
        self.inner.member_has_profile(member, label)
    }

    fn advance_clock(&mut self, ticks: u64) {
        self.inner.advance_clock(ticks);
    }
}

/// A provider whose crowds are [`TimedCrowd`]s, also timing crowd
/// construction (traced runs only).
pub struct TimedProvider<P> {
    inner: P,
    /// Asks reaching the members, and their time.
    pub totals: Arc<AskTotals>,
    /// Crowds built, and the nanoseconds building them took.
    pub builds: Arc<AskTotals>,
}

impl<P> TimedProvider<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> TimedProvider<P> {
        TimedProvider {
            inner,
            totals: Arc::default(),
            builds: Arc::default(),
        }
    }
}

impl<P: CrowdProvider> CrowdProvider for TimedProvider<P> {
    fn provide<'a>(&'a self, spec: &SessionSpec) -> Box<dyn CrowdSource + Send + 'a> {
        let t = Instant::now();
        let crowd = self.inner.provide(spec);
        self.builds.asks.fetch_add(1, Ordering::Relaxed);
        self.builds
            .nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Box::new(TimedCrowd::new(crowd, self.totals.clone()))
    }
}

/// A scratch directory inside the working directory (the checkout the
/// benchmark runs in), removed again on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.perfbench-work/<tag>-<pid>` under the current directory.
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let path = std::env::current_dir()?
            .join(".perfbench-work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // only succeeds once the last run's directory is gone
            let _ = std::fs::remove_dir(parent);
        }
    }
}
