//! Search-order pin of the `combinatorial` engine under relocation
//! constraints: the golden SDR2 and SDR3 problems are proven at one thread
//! with fixed node counts and (for SDR3) a byte-identical floorplan, and at
//! several threads with the same floorplan quality.

use rfp_floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
use rfp_floorplan::jsonio::{read_problem, write_floorplan};
use rfp_floorplan::problem::FloorplanProblem;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read `{path}`: {e}"))
}

fn golden_problem(name: &str) -> FloorplanProblem {
    read_problem(&golden(&format!("{name}.problem.json"))).expect("golden problems decode")
}

fn config(threads: usize) -> CombinatorialConfig {
    CombinatorialConfig { threads, ..CombinatorialConfig::with_time_limit(120.0) }
}

/// Proves `name` at `threads` and checks waste and FC count; returns the
/// floorplan JSON and the node count.
fn prove(name: &str, threads: usize, waste: u64, fc_areas: usize) -> (String, u64) {
    let problem = golden_problem(name);
    let res = solve_combinatorial(&problem, &config(threads)).expect("golden problems solve");
    assert!(res.proven, "{name} at {threads} thread(s) is proven");
    assert_eq!(res.best_waste, Some(waste), "{name} at {threads} thread(s): wasted frames");
    let fp = res.floorplan.expect("a proven feasible problem has a floorplan");
    assert!(fp.validate(&problem).is_empty(), "{name} at {threads} thread(s) validates");
    assert_eq!(fp.fc_found(), fc_areas, "{name} at {threads} thread(s): FC areas");
    assert_eq!(fp.metrics(&problem).fc_requested, fc_areas);
    (write_floorplan(&fp), res.nodes)
}

#[test]
fn sdr2_serial_search_order_is_pinned() {
    let (_, nodes) = prove("sdr2", 1, 90, 6);
    assert_eq!(nodes, 727_342);
}

#[test]
fn sdr3_serial_search_order_and_floorplan_are_pinned() {
    let (json, nodes) = prove("sdr3", 1, 556, 9);
    assert_eq!(nodes, 77_263);
    assert_eq!(json, golden("sdr3.floorplan.json"), "SDR3 floorplan drifted from the golden");
}

#[test]
fn parallel_searches_prove_the_same_quality() {
    for threads in [2, 4] {
        prove("sdr2", threads, 90, 6);
        prove("sdr3", threads, 556, 9);
    }
}
