//! The single-caller workloads: `engine-moldyn` and `engine-pic` call
//! the library on the native backend, `sim-moldyn-p32` on the
//! simulator. One caller, one job at a time; the native backend's
//! `host_threads` stays at its default.

use earth_model::native::NativeConfig;
use earth_model::sim::SimConfig;
use irred::{
    approx_eq, EngineError, ExecutionConfig, PhasedEngine, PhasedSpec, PreparedPhased,
    ReductionEngine, RunOutcome, SeqEngine, StrategyConfig, Tuning, Workspace,
};
use kernels::family::{FamilyKernel, FamilyProblem};
use kernels::moldyn::MolDynKernel;
use kernels::MolDynProblem;
use workloads::{oracle_reduce, Distribution, MolDyn, MolDynPreset, PicDeck};

use crate::serve::bit_equal;

/// A workload driven by one caller in a closed loop.
pub trait SingleCaller {
    /// Generator work for job `n`, done before the job's clock starts.
    fn stage(&mut self, _n: u64) {}
    /// Run job `n` of the timed sequence.
    fn job(&mut self, n: u64) -> Result<RunOutcome, EngineError>;
    /// How many of the sampled outcomes `(job number, outcome)` are
    /// wrong. `cycles` holds `time_cycles` of every job of the window.
    fn wrong(&self, samples: &[(u64, RunOutcome)], cycles: &[u64]) -> u64;
}

/// The native configuration every `engine-*` job runs under.
pub fn native_config() -> ExecutionConfig {
    ExecutionConfig::native(NativeConfig::default()).with_tuning(Tuning::auto())
}

/// A spec prepared once and executed per job.
pub struct Prepared<K> {
    pub engine: PhasedEngine,
    pub spec: PhasedSpec<K>,
    pub strat: StrategyConfig,
    pub prepared: PreparedPhased<K>,
    pub ws: Workspace,
}

impl<K: irred::EdgeKernel> Prepared<K> {
    fn new(spec: PhasedSpec<K>, strat: StrategyConfig) -> Self {
        let engine = PhasedEngine::new(native_config());
        let mut prepared = engine.prepare(&spec, &strat).expect("prepare");
        let mut ws = Workspace::new();
        // First execute fills the workspace's buffer pools.
        engine
            .execute(&mut prepared, &mut ws)
            .expect("warm-up execute");
        Prepared {
            engine,
            spec,
            strat,
            prepared,
            ws,
        }
    }
}

/// `engine-moldyn`: 131 072 molecules on an FCC lattice, 786 432
/// pairs, 3 force arrays + 3 position arrays (≈12 MB working set
/// against a 4 MiB L2 per core). One job = one `execute` of 10 sweeps.
pub struct EngineMolDyn(pub Prepared<MolDynKernel>);

const MOLDYN_CELLS: usize = 32;
const MOLDYN_SWEEPS: usize = 10;

impl EngineMolDyn {
    pub fn setup(seed: u64) -> Self {
        let mut config = MolDyn::fcc(MOLDYN_CELLS, 0.75);
        // The seed moves every molecule a little off its lattice site:
        // the pair list stands, the forces differ per seed.
        config.perturb(0.02, seed);
        let problem = MolDynProblem::from_config(config);
        let strat = StrategyConfig::new(8, 2, Distribution::Cyclic, MOLDYN_SWEEPS);
        EngineMolDyn(Prepared::new(problem.spec, strat))
    }
}

impl SingleCaller for EngineMolDyn {
    fn job(&mut self, _n: u64) -> Result<RunOutcome, EngineError> {
        let p = &mut self.0;
        p.engine.execute(&mut p.prepared, &mut p.ws)
    }

    /// Tiling reassociates the force sums, so the comparison with the
    /// sequential run allows 1e-9 relative.
    fn wrong(&self, samples: &[(u64, RunOutcome)], _cycles: &[u64]) -> u64 {
        let seq = SeqEngine::new(SimConfig::default())
            .run(&self.0.spec, &self.0.strat)
            .expect("sequential reference");
        samples
            .iter()
            .filter(|(_, out)| !values_close(&out.values, &seq.values))
            .count() as u64
    }
}

fn values_close(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| approx_eq(x, y, 1e-9))
}

/// `engine-pic`: 524 288 particles depositing into 65 536 cells, two
/// arrays; a tenth of the particles move every step. One job = the
/// step's churn through `apply_updates`, then an `execute` of 4 sweeps.
pub struct EnginePic {
    pub deck: PicDeck,
    pub run: Prepared<FamilyKernel>,
    staged: Vec<(usize, Vec<u32>)>,
}

const PIC_CELLS: usize = 65_536;
const PIC_PARTICLES: usize = 524_288;

impl EnginePic {
    pub fn setup(seed: u64) -> Self {
        // The deck's trajectory is closed-form in the step number; the
        // `steps` field only sizes its own tests.
        let deck =
            PicDeck::generate(PIC_CELLS, PIC_PARTICLES, 0, 0.1, seed).expect("pic deck knobs");
        let problem = FamilyProblem::from_family(deck.initial());
        let strat = StrategyConfig::new(8, 2, Distribution::Cyclic, 4);
        EnginePic {
            deck,
            run: Prepared::new(problem.spec, strat),
            staged: Vec::new(),
        }
    }

    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The incremental-inspector half of a job.
    pub fn apply_staged(&mut self) -> Result<(), EngineError> {
        self.run.prepared.apply_updates(&self.staged)
    }

    /// The kernel half of a job.
    pub fn execute(&mut self) -> Result<RunOutcome, EngineError> {
        let p = &mut self.run;
        p.engine.execute(&mut p.prepared, &mut p.ws)
    }
}

impl SingleCaller for EnginePic {
    /// The churn list is the solver's input, so building it is the
    /// generator's work, not the job's.
    fn stage(&mut self, n: u64) {
        self.staged = self.deck.step_updates(n as usize);
    }

    fn job(&mut self, _n: u64) -> Result<RunOutcome, EngineError> {
        self.apply_staged()?;
        self.execute()
    }

    /// Integer charges and coefficients: job `n` leaves the deck at
    /// step `n + 1` and must equal the straight-line oracle exactly.
    fn wrong(&self, samples: &[(u64, RunOutcome)], _cycles: &[u64]) -> u64 {
        samples
            .iter()
            .filter(|(n, out)| {
                let want = oracle_reduce(&self.deck.family_at(*n as usize + 1));
                !bit_equal(&out.values, &want)
            })
            .count() as u64
    }
}

/// `sim-moldyn-p32`: the paper's 10K moldyn dataset on 32 simulated
/// nodes, serial simulator core. One job = one full
/// `PhasedEngine::run` (inspect + build + simulate 4 sweeps).
pub struct SimMolDyn {
    pub spec: PhasedSpec<MolDynKernel>,
    pub strat: StrategyConfig,
}

impl SimMolDyn {
    pub fn setup(seed: u64) -> Self {
        // The repo's 10K preset as it stands (randomly renumbered, like
        // the paper's dataset); the seed moves the molecules a little
        // off their lattice sites. The pair list, and with it the
        // simulated cycle count, is the same for every seed.
        let mut problem = MolDynProblem::preset(MolDynPreset::MolDyn10K);
        problem.config.perturb(0.02, seed);
        problem.refresh();
        let sim = SimMolDyn {
            spec: problem.spec,
            strat: StrategyConfig::new(32, 2, Distribution::Cyclic, 4),
        };
        sim.run(Self::config()).expect("warm-up run");
        sim
    }

    pub fn config() -> ExecutionConfig {
        ExecutionConfig::sim(SimConfig::default())
    }

    pub fn run(&self, cfg: ExecutionConfig) -> Result<RunOutcome, EngineError> {
        PhasedEngine::new(cfg).run(&self.spec, &self.strat)
    }
}

impl SingleCaller for SimMolDyn {
    fn job(&mut self, _n: u64) -> Result<RunOutcome, EngineError> {
        self.run(Self::config())
    }

    /// Values against the sequential run, and simulated time must be
    /// the same number of cycles on every repetition.
    fn wrong(&self, samples: &[(u64, RunOutcome)], cycles: &[u64]) -> u64 {
        let seq = SeqEngine::new(SimConfig::default())
            .run(&self.spec, &self.strat)
            .expect("sequential reference");
        let bad_values = samples
            .iter()
            .filter(|(_, out)| !values_close(&out.values, &seq.values))
            .count();
        let drifting = cycles.iter().filter(|&&c| c != cycles[0]).count();
        (bad_values + drifting) as u64
    }
}
