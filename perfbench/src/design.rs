//! The design-time workloads: proving floorplans of fixed problem corpora
//! through the engine registry, one solve at a time on one thread.

use crate::probe::TimedDispatcher;
use crate::stats::SplitMix64;
use crate::{Batch, Layers, Size};
use rfp_device::SyntheticSpec;
use rfp_floorplan::binio::{read_problem_bin, write_problem_bin};
use rfp_floorplan::candidates::{enumerate_candidates_uncached, CandidateConfig};
use rfp_floorplan::jsonio::{read_problem, write_problem};
use rfp_floorplan::{
    EngineRegistry, FloorplanProblem, SolveControl, SolveDispatcher, SolveOutcome, SolveRequest,
};
use rfp_workloads::{
    hetero_golden_problem, sdr2_problem, sdr3_problem, sdr_problem, HeteroDeviceSpec, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which corpus a design workload proves, and with which engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// The golden SDR, SDR2 and SDR3 problems, proved by `combinatorial`.
    FcReservation,
    /// Seeded 3-region problems on an 8x4 columnar device (the portion
    /// model, Eqs. 1-15), then seeded 3-region problems on the default 8x4
    /// hetero fabric plus the golden hetero problem (the candidate-assignment
    /// model), proved by `milp`.
    Milp,
}

/// Generator seeds of the seeded MILP corpora, per model. They are fixed:
/// proof effort varies up to 100x between generator seeds, which no run of a
/// few seconds can average out, so the run seed only chooses the proof order.
/// One seed per model keeps a batch near two seconds, so a run plays several
/// and a slow stretch of the shared host spoils one batch, not the figure.
const PORTION_SEEDS: [u64; 1] = [0];
const ASSIGNMENT_SEEDS: [u64; 1] = [0];

/// One problem of a corpus and what its proof must show.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub problem: FloorplanProblem,
    /// Proven wasted frames; for the MILP corpora it is filled in from the
    /// `combinatorial` proof of the same problem ([`DesignBench::reference`]).
    pub expected_waste: Option<u64>,
    /// Free-compatible areas the proof must reserve (golden problems only).
    pub expected_fc: Option<usize>,
}

/// Checks one proof. Every returned string is a failed gate.
pub fn check_proof(case: &Case, outcome: &SolveOutcome) -> Vec<String> {
    let mut failures = Vec::new();
    if !outcome.is_proven() {
        failures.push(format!(
            "{}: not proven ({:?}: {:?})",
            case.name, outcome.status, outcome.detail
        ));
    }
    let Some(fp) = &outcome.floorplan else {
        failures.push(format!("{}: no floorplan", case.name));
        return failures;
    };
    for fault in fp.validate(&case.problem) {
        failures.push(format!("{}: invalid floorplan: {fault}", case.name));
    }
    match (case.expected_waste, outcome.wasted_frames()) {
        (Some(want), Some(got)) if want != got => {
            failures.push(format!("{}: wasted frames {got}, expected {want}", case.name))
        }
        (None, _) => failures.push(format!("{}: no expected objective", case.name)),
        _ => {}
    }
    if let Some(want) = case.expected_fc {
        if fp.fc_found() != want {
            failures.push(format!("{}: {} FC areas, expected {want}", case.name, fp.fc_found()));
        }
    }
    failures
}

/// The corpus in canonical order.
pub fn corpus(kind: Corpus, size: Size) -> Vec<Case> {
    let case = |name: String, problem, waste, fc| Case {
        name,
        problem,
        expected_waste: waste,
        expected_fc: fc,
    };
    let (portion_seeds, assignment_seeds): (&[u64], &[u64]) = match size {
        Size::Full => (&PORTION_SEEDS, &ASSIGNMENT_SEEDS),
        Size::Tiny => (&[], &[]),
    };
    let spec = |seed| WorkloadSpec {
        seed,
        n_regions: 3,
        device: SyntheticSpec { cols: 8, rows: 4, ..SyntheticSpec::default() },
        ..WorkloadSpec::default()
    };
    match kind {
        Corpus::FcReservation => {
            let mut cases = vec![case("sdr".into(), sdr_problem(), Some(90), Some(0))];
            if size == Size::Full {
                cases.push(case("sdr2".into(), sdr2_problem(), Some(90), Some(6)));
                cases.push(case("sdr3".into(), sdr3_problem(), Some(556), Some(9)));
            }
            cases
        }
        Corpus::Milp => {
            let fabric = HeteroDeviceSpec::default().partition();
            let mut cases: Vec<Case> = portion_seeds
                .iter()
                .map(|&s| case(format!("portion{s}"), spec(s).generate().problem, None, None))
                .collect();
            if size == Size::Tiny {
                let tiny = WorkloadSpec { n_regions: 2, utilisation: 0.25, ..spec(0) };
                cases.push(case("portion-tiny".into(), tiny.generate().problem, None, None));
            }
            cases.extend(assignment_seeds.iter().map(|&s| {
                case(format!("assignment{s}"), spec(s).generate_on(fabric.clone()), None, None)
            }));
            cases.push(case("hetero-golden".into(), hetero_golden_problem(), None, None));
            cases
        }
    }
}

/// `true` when `milp` builds the portion model for `problem` (columnar
/// devices); otherwise it builds the candidate-assignment model.
fn portion_model(problem: &FloorplanProblem) -> bool {
    problem.partition.columnar().is_some()
}

/// Decodes `problem` from its `rfp-problem` JSON and `rfpb` documents.
/// Fails unless both decodings agree and re-encoding them reproduces both
/// documents byte for byte. Returns the decoding, the decode seconds and the
/// bytes decoded.
pub fn round_trip(problem: &FloorplanProblem) -> (Result<FloorplanProblem, String>, f64, u64) {
    let json = write_problem(problem);
    let bin = write_problem_bin(problem);
    let start = Instant::now();
    let from_json = read_problem(&json);
    let from_bin = read_problem_bin(&bin);
    let secs = start.elapsed().as_secs_f64();
    let bytes = (json.len() + bin.len()) as u64;
    let decoded = match (from_json, from_bin) {
        (Ok(a), Ok(b)) if a == b && write_problem(&a) == json && write_problem_bin(&b) == bin => {
            Ok(b)
        }
        (Err(e), _) => Err(format!("JSON decode failed: {e}")),
        (_, Err(e)) => Err(format!("rfpb decode failed: {e}")),
        _ => Err("the JSON and rfpb decodings disagree or do not re-encode".to_string()),
    };
    (decoded, secs, bytes)
}

/// Inputs of one batch.
struct Inputs {
    cases: Vec<Case>,
    dispatcher: TimedDispatcher,
}

/// A design workload: set-up decodes the corpus from both interchange
/// formats and builds the registry; a batch proves every problem once.
pub struct DesignBench {
    pub kind: Corpus,
    pub size: Size,
    pub seed: u64,
    /// Proven wasted frames by case name (MILP corpora).
    reference: BTreeMap<String, u64>,
    /// `fc_found` of the `combinatorial` proof of the golden hetero problem.
    hetero_fc_combinatorial: Option<usize>,
    /// Whether the hetero-golden FC shortfall has been reported.
    fc_noted: bool,
    inputs: Option<Inputs>,
}

impl DesignBench {
    pub fn new(kind: Corpus, size: Size, seed: u64) -> Self {
        DesignBench {
            kind,
            size,
            seed,
            reference: BTreeMap::new(),
            hetero_fc_combinatorial: None,
            fc_noted: false,
            inputs: None,
        }
    }

    fn engine(&self) -> &'static str {
        match self.kind {
            Corpus::FcReservation => "combinatorial",
            Corpus::Milp => "milp",
        }
    }

    /// The MILP gate's expected objectives: `combinatorial` proves every
    /// problem of the corpus once per run, untimed. Returns the failures.
    pub fn reference(&mut self) -> Vec<String> {
        if self.kind == Corpus::FcReservation {
            return Vec::new();
        }
        let registry = EngineRegistry::builtin();
        let mut failures = Vec::new();
        for case in corpus(self.kind, self.size) {
            let problem = match round_trip(&case.problem).0 {
                Ok(problem) => problem,
                Err(e) => {
                    failures.push(format!("{}: {e}", case.name));
                    continue;
                }
            };
            if problem != case.problem {
                eprintln!(
                    "perfbench: note: {}: the decoded problem differs from the generated one \
                     (the interchange formats drop tile types absent from the grid); the \
                     decoded problem is the one proved",
                    case.name
                );
            }
            let req = SolveRequest::new(problem).with_threads(1);
            let outcome = registry.dispatch("combinatorial", &req, &SolveControl::default());
            match (outcome.is_proven(), outcome.wasted_frames()) {
                (true, Some(waste)) => {
                    self.reference.insert(case.name.clone(), waste);
                }
                _ => failures.push(format!("{}: combinatorial reference unproven", case.name)),
            }
            if case.name == "hetero-golden" {
                self.hetero_fc_combinatorial = outcome.floorplan.map(|fp| fp.fc_found());
            }
        }
        failures
    }

    /// Drops the inputs of the last set-up.
    pub fn discard(&mut self) {
        self.inputs = None;
    }

    /// Builds one input set. Returns `(decode seconds, decoded bytes,
    /// failures)`.
    pub fn setup(&mut self) -> (f64, u64, Vec<String>) {
        let mut failures = Vec::new();
        let mut decode_s = 0.0;
        let mut bytes = 0u64;
        let mut cases = corpus(self.kind, self.size);
        for case in &mut cases {
            let (decoded, secs, len) = round_trip(&case.problem);
            decode_s += secs;
            bytes += len;
            match decoded {
                Ok(problem) => case.problem = problem,
                Err(e) => failures.push(format!("{}: {e}", case.name)),
            }
            if case.expected_waste.is_none() {
                case.expected_waste = self.reference.get(&case.name).copied();
            }
        }
        SplitMix64::new(self.seed).shuffle(&mut cases);
        let dispatcher = TimedDispatcher::new(Arc::new(EngineRegistry::builtin()));
        self.inputs = Some(Inputs { cases, dispatcher });
        (decode_s, bytes, failures)
    }

    /// Proves every problem of the last set-up once, calling `between`
    /// between two proofs with the batch clock stopped.
    pub fn batch(&mut self, between: &mut dyn FnMut()) -> Batch {
        let Inputs { cases, dispatcher } = self.inputs.take().expect("setup precedes every batch");
        let engine = self.engine();
        let mut batch = Batch::default();
        let mut solves = Vec::new();
        let mut proofs_s = Vec::new();
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        for (i, case) in cases.iter().enumerate() {
            if i > 0 {
                let pause = Instant::now();
                between();
                paused += pause.elapsed();
            }
            let req = SolveRequest::new(case.problem.clone()).with_threads(1);
            let t = Instant::now();
            let outcome = dispatcher.dispatch(engine, &req, &SolveControl::default());
            proofs_s.push(t.elapsed().as_secs_f64());
            solves.push(outcome);
        }
        batch.wall_s = (start.elapsed() - paused).as_secs_f64();
        // A design request is the whole corpus: percentiles over its three
        // distinct proofs would each time a single proof, and a single
        // proof flips between the shared host's fast and slow stretches.
        batch.decisions_s = vec![batch.wall_s];
        for (case, outcome) in cases.iter().zip(&solves) {
            batch.attempted += 1;
            batch.failures.extend(check_proof(case, outcome));
        }
        batch.events = cases.len() as u64;
        batch.dispatch_s = dispatcher.call_seconds();
        self.fill_layers(&cases, &solves, &proofs_s, &mut batch.layers);
        batch
    }

    fn fill_layers(
        &mut self,
        cases: &[Case],
        solves: &[SolveOutcome],
        secs: &[f64],
        layers: &mut Layers,
    ) {
        // Per model shape (`true` = portion): proof seconds, LP seconds and
        // LP iterations.
        let mut shapes: BTreeMap<bool, (f64, f64, u64)> = BTreeMap::new();
        let (mut solve_s, mut nodes, mut rows, mut nonzeros) = (0.0, 0u64, 0usize, 0usize);
        let mut per_node = BTreeMap::new();
        for ((case, outcome), &wall) in cases.iter().zip(solves).zip(secs) {
            let stats = &outcome.stats;
            let shape = shapes.entry(portion_model(&case.problem)).or_default();
            shape.0 += wall;
            shape.1 += stats.lp_seconds;
            shape.2 += stats.lp_iterations;
            solve_s += stats.solve_seconds;
            nodes += stats.nodes;
            if let Some(ms) = &stats.model_stats {
                rows += ms.n_cons;
                nonzeros += ms.n_nonzeros;
            }
            per_node.insert(case.name.as_str(), (stats.nodes, stats.solve_seconds));
            if case.name == "hetero-golden" {
                self.record_hetero_fc(case, outcome, layers);
            }
        }
        match self.kind {
            Corpus::FcReservation => {
                let us_per_node = |names: &[&str]| {
                    let (n, s) = names
                        .iter()
                        .filter_map(|name| per_node.get(name))
                        .fold((0u64, 0.0), |(n, s), &(dn, ds)| (n + dn, s + ds));
                    s * 1e6 / n.max(1) as f64
                };
                for (metric, name) in [
                    ("combinatorial.nodes_per_s.sdr", "sdr"),
                    ("combinatorial.nodes_per_s.sdr2", "sdr2"),
                    ("combinatorial.nodes_per_s.sdr3", "sdr3"),
                ] {
                    if per_node.contains_key(name) {
                        layers.set(metric, 1e6 / us_per_node(&[name]));
                    }
                }
                if per_node.contains_key("sdr2") {
                    let ratio = us_per_node(&["sdr2", "sdr3"]) / us_per_node(&["sdr"]);
                    layers.set("combinatorial.fc_node_cost_ratio", ratio);
                }
            }
            Corpus::Milp => {
                let (lp_s, lp_iters) =
                    shapes.values().fold((0.0, 0u64), |(s, i), v| (s + v.1, i + v.2));
                layers.set("milp.lp_s", lp_s);
                layers.set("milp.lp_iterations", lp_iters as f64);
                layers.set("milp.lp_share", lp_s / solve_s);
                layers.set("milp.nodes", nodes as f64);
                layers.set("milp.nodes_per_s", nodes as f64 / solve_s);
                for (portion, (wall, lp_s, iters)) in shapes {
                    let (batch, per_iter) = if portion {
                        ("batch_s.portion_model", "milp.us_per_lp_iter.portion_model")
                    } else {
                        ("batch_s.assignment_model", "milp.us_per_lp_iter.assignment_model")
                    };
                    layers.set(batch, wall);
                    layers.set(per_iter, lp_s * 1e6 / iters.max(1) as f64);
                }
                layers.set("model.rows", rows as f64);
                layers.set("model.nonzeros", nonzeros as f64);
            }
        }
    }

    /// Records how many FC areas each exact engine reserved on the golden
    /// hetero problem, and reports a shortfall once per run.
    fn record_hetero_fc(&mut self, case: &Case, outcome: &SolveOutcome, layers: &mut Layers) {
        let milp = outcome.floorplan.as_ref().map_or(0, |fp| fp.fc_found());
        let requested = case.problem.n_fc_areas();
        let comb = self.hetero_fc_combinatorial.unwrap_or(0);
        layers.set("hetero_golden.fc_requested", requested as f64);
        layers.set("hetero_golden.fc_found.milp", milp as f64);
        layers.set("hetero_golden.fc_found.combinatorial", comb as f64);
        if (milp < requested || comb < requested) && !std::mem::replace(&mut self.fc_noted, true) {
            eprintln!(
                "perfbench: note: hetero-golden: milp reserves {milp}/{requested} and \
                 combinatorial {comb}/{requested} FC areas, although \
                 hetero_golden_problem's documentation says both are reserved"
            );
        }
    }

    /// Candidate enumeration over every region of the corpus, called
    /// directly and without the memo cache: `(seconds, candidates)`.
    pub fn enumerate_candidates(&self) -> (f64, u64) {
        let config = CandidateConfig::default();
        let mut secs = 0.0;
        let mut count = 0u64;
        for case in corpus(self.kind, self.size) {
            for spec in &case.problem.regions {
                let start = Instant::now();
                let cands = enumerate_candidates_uncached(&case.problem.partition, spec, &config);
                secs += start.elapsed().as_secs_f64();
                count += cands.len() as u64;
            }
        }
        (secs, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proven(kind: Corpus) -> (Case, SolveOutcome) {
        let case = corpus(kind, Size::Tiny).remove(0);
        let req = SolveRequest::new(case.problem.clone()).with_threads(1);
        let outcome =
            EngineRegistry::builtin().dispatch("combinatorial", &req, &SolveControl::default());
        (case, outcome)
    }

    #[test]
    fn the_gate_passes_the_golden_sdr_proof() {
        let (case, outcome) = proven(Corpus::FcReservation);
        assert_eq!(check_proof(&case, &outcome), Vec::<String>::new());
    }

    #[test]
    fn the_gate_fails_on_a_wrong_expected_objective() {
        let (mut case, outcome) = proven(Corpus::FcReservation);
        case.expected_waste = Some(91);
        let failures = check_proof(&case, &outcome);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("expected 91"));
        case.expected_waste = None;
        assert_eq!(check_proof(&case, &outcome).len(), 1);
        case.expected_waste = Some(90);
        case.expected_fc = Some(1);
        assert_eq!(check_proof(&case, &outcome).len(), 1);
    }

    #[test]
    fn the_full_corpora_have_the_documented_shape() {
        let fc = corpus(Corpus::FcReservation, Size::Full);
        let names: Vec<&str> = fc.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["sdr", "sdr2", "sdr3"]);
        assert_eq!(fc.iter().map(|c| c.problem.n_fc_areas()).collect::<Vec<_>>(), [0, 6, 9]);
        let milp = corpus(Corpus::Milp, Size::Full);
        let portion: Vec<&Case> = milp.iter().filter(|c| portion_model(&c.problem)).collect();
        assert_eq!(portion.len(), PORTION_SEEDS.len());
        assert_eq!(milp.len(), PORTION_SEEDS.len() + ASSIGNMENT_SEEDS.len() + 1);
        assert!(milp.iter().all(|c| c.problem.regions.len() == 3));
        assert_eq!(milp.last().unwrap().name, "hetero-golden");
    }

    #[test]
    fn seeds_permute_the_corpus_without_changing_it() {
        let names = |seed| {
            let mut bench = DesignBench::new(Corpus::Milp, Size::Full, seed);
            bench.setup();
            let inputs = bench.inputs.take().unwrap();
            inputs.cases.into_iter().map(|c| c.name).collect::<Vec<_>>()
        };
        assert_eq!(names(5), names(5));
        let mut a = names(1);
        let mut b = names(2);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
