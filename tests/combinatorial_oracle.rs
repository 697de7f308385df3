//! Differential oracle for the `combinatorial` engine: on random small
//! problems the engine's proven result, serial and parallel, must match an
//! exhaustive scan of every tuple of candidate rectangles.
//!
//! The problems mix columnar and heterogeneous fabrics, one to four
//! regions, with and without connections, and requirements that often
//! exceed the device (so over-capacity instances are proven infeasible).
//! They carry no relocation requests: the scan covers the lexicographic
//! objective (wasted frames, then weighted wire length) and feasibility.

use proptest::prelude::*;
use rfp_device::{fabric_partition, fabric_partition_with_boundaries, Device, Rect, SyntheticSpec};
use rfp_floorplan::candidates::{enumerate_candidates, Candidate, CandidateConfig};
use rfp_floorplan::combinatorial::{solve_combinatorial, CombinatorialConfig};
use rfp_floorplan::problem::{FloorplanProblem, RegionSpec};
use rfp_workloads::HeteroDeviceSpec;

/// A small device: columnar (BRAM and DSP columns) or a heterogeneous
/// fabric (BRAM stripes one row high, a die boundary after row 1).
fn device(hetero: bool, cols: u32, rows: u32) -> Device {
    if hetero {
        HeteroDeviceSpec {
            cols,
            rows,
            bram_every: 3,
            bram_stripe: 1,
            hard_block: None,
            die_boundaries: if rows >= 2 { vec![1] } else { vec![] },
        }
        .build()
    } else {
        SyntheticSpec {
            name: "oracle".into(),
            cols,
            rows,
            bram_every: 3,
            dsp_every: 5,
            hard_block: None,
        }
        .build()
        .unwrap()
    }
}

/// Builds the problem: one region per `(clb, bram)` requirement, and, when
/// `connect` is set, a connection for every region pair whose bit is set
/// in `mask` (pairs in `(0,1), (0,2), (1,2), (0,3), …` order).
fn problem(
    hetero: bool,
    cols: u32,
    rows: u32,
    reqs: &[(u32, u32)],
    connect: bool,
    mask: u32,
) -> FloorplanProblem {
    let dev = device(hetero, cols, rows);
    let clb = dev.registry.by_name("CLB").expect("every device has CLB tiles");
    let bram = dev.registry.by_name("BRAM");
    let partition = if hetero {
        fabric_partition_with_boundaries(&dev, if rows >= 2 { &[1] } else { &[] }).unwrap()
    } else {
        fabric_partition(&dev).unwrap()
    };
    let mut p = FloorplanProblem::new(partition);
    for (i, &(c, b)) in reqs.iter().enumerate() {
        let mut req = vec![(clb, c)];
        if let (Some(bram), true) = (bram, b > 0) {
            req.push((bram, b));
        }
        p.add_region(RegionSpec::new(format!("R{i}"), req));
    }
    if connect {
        let mut bit = 0;
        for j in 1..reqs.len() {
            for i in 0..j {
                if mask & (1 << bit) != 0 {
                    p.connect(i, j, 1.0 + bit as f64);
                }
                bit += 1;
            }
        }
    }
    p
}

fn wirelength(p: &FloorplanProblem, rects: &[Rect]) -> f64 {
    p.connections
        .iter()
        .map(|c| c.weight * rects[c.a].center_distance_x2(&rects[c.b]) as f64 / 2.0)
        .sum()
}

/// Exhaustive scan of every non-overlapping candidate tuple, keeping the
/// lexicographic minimum of (wasted frames, wire length).
fn scan(
    p: &FloorplanProblem,
    cands: &[Vec<Candidate>],
    placed: &mut Vec<Rect>,
    waste: u64,
    best: &mut Option<(u64, f64)>,
) {
    if placed.len() == cands.len() {
        let wl = wirelength(p, placed);
        let better = match *best {
            None => true,
            Some((bw, bwl)) => waste < bw || (waste == bw && wl + 1e-9 < bwl),
        };
        if better {
            *best = Some((waste, wl));
        }
        return;
    }
    for cand in &cands[placed.len()] {
        if placed.iter().any(|r| r.overlaps(&cand.rect)) {
            continue;
        }
        placed.push(cand.rect);
        scan(p, cands, placed, waste + cand.waste, best);
        placed.pop();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same verdict, same optimal waste and same optimal wire length as the
    /// exhaustive scan, at one and two threads; every floorplan validates.
    #[test]
    fn combinatorial_matches_the_exhaustive_scan(
        hetero in any::<bool>(),
        cols in 3u32..=8,
        rows in 2u32..=4,
        reqs in proptest::collection::vec((1u32..=5, 0u32..=1), 1..=4),
        connect in any::<bool>(),
        mask in 0u32..64,
    ) {
        let p = problem(hetero, cols, rows, &reqs, connect, mask);
        let cands: Vec<Vec<Candidate>> = p
            .regions
            .iter()
            .map(|r| enumerate_candidates(&p.partition, r, &CandidateConfig::default()))
            .collect();
        let solvable = p.validate().is_ok() && cands.iter().all(|c| !c.is_empty());
        let mut expected = None;
        if solvable {
            scan(&p, &cands, &mut Vec::new(), 0, &mut expected);
        }
        for threads in [1usize, 2] {
            let config = CombinatorialConfig { threads, ..CombinatorialConfig::default() };
            let res = solve_combinatorial(&p, &config);
            if !solvable {
                prop_assert!(res.is_err(), "{threads} thread(s): unsolvable input must be an error");
                continue;
            }
            let res = res.expect("solvable inputs solve");
            prop_assert!(res.proven, "{} thread(s): the search must be exhausted", threads);
            match expected {
                None => prop_assert!(
                    res.floorplan.is_none(),
                    "{} thread(s): engine found a floorplan the scan proves impossible",
                    threads
                ),
                Some((waste, wl)) => {
                    prop_assert_eq!(res.best_waste, Some(waste), "{} thread(s): waste", threads);
                    let got = res.best_wirelength.expect("a feasible result has a wire length");
                    prop_assert!(
                        (got - wl).abs() < 1e-9,
                        "{} thread(s): wire length {} vs optimum {}",
                        threads,
                        got,
                        wl
                    );
                    let fp = res.floorplan.expect("a feasible result has a floorplan");
                    prop_assert!(fp.validate(&p).is_empty(), "{:?}", fp.validate(&p));
                    prop_assert_eq!(fp.metrics(&p).wasted_frames, waste);
                }
            }
        }
    }
}
