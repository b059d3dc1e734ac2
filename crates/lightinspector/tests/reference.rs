//! Differential property: [`inspect`] against a plain per-iteration
//! inspector, byte for byte.
//!
//! The reference below implements the documented emission order the
//! straightforward way — one iteration at a time, phases straight from
//! the geometry, nested per-phase lists concatenated at the end:
//! iterations in ascending local order within a phase, buffer slots
//! numbered from `num_elements` in `(iteration, reference)` scan order,
//! and each phase's copies in that scan order. The property compares
//! whole [`FlatInspection`]s for `m ∈ {1, 2, 3, 5}`, so both const-width
//! arms of the inspector and its run-time-width arm run, on uniform and
//! local (`c, c+1, …` mod `n`) indirection, with `n < k·P` and zero
//! iterations among the cases, for every `proc_id`.
//!
//! Failing cases print a `PROP_SEED` replay line; see DESIGN.md.

use harness::prop::{check, Config, Gen};
use harness::prop_assert_eq;
use lightinspector::{inspect, CopyOp, FlatInspection, FlatPlan, InspectorInput, PhaseGeometry};

/// The inspection of processor `proc`, computed per iteration.
fn reference(g: &PhaseGeometry, proc: usize, ind: &[Vec<u32>]) -> FlatInspection {
    let kp = g.num_phases();
    let phase = |e: u32| g.phase_of_portion_on(proc, g.portion_of(e as usize));
    let n = g.num_elements() as u32;
    let mut next_slot = n;
    let mut rows: Vec<Vec<(u32, Vec<u32>)>> = vec![Vec::new(); kp];
    let mut folds: Vec<Vec<CopyOp>> = vec![Vec::new(); kp];
    for i in 0..ind[0].len() {
        let p = ind.iter().map(|col| phase(col[i])).min().unwrap();
        let mut targets = Vec::new();
        for col in ind {
            let e = col[i];
            let q = phase(e);
            if q == p {
                targets.push(e);
            } else {
                folds[q].push(CopyOp {
                    dest: e,
                    src: next_slot,
                });
                targets.push(next_slot);
                next_slot += 1;
            }
        }
        rows[p].push((i as u32, targets));
    }
    let (mut iter_ptr, mut copy_ptr) = (vec![0u32], vec![0u32]);
    let (mut iters, mut refs, mut copies) = (Vec::new(), Vec::new(), Vec::new());
    for (phase_rows, phase_folds) in rows.into_iter().zip(folds) {
        for (i, targets) in phase_rows {
            iters.push(i);
            refs.extend(targets);
        }
        copies.extend(phase_folds);
        iter_ptr.push(iters.len() as u32);
        copy_ptr.push(copies.len() as u32);
    }
    FlatInspection {
        geometry: *g,
        proc_id: proc,
        buffer_len: (next_slot - n) as usize,
        iters,
        flat: FlatPlan::new(ind.len(), iter_ptr, refs, copy_ptr, copies).unwrap(),
    }
}

#[derive(Debug, Clone)]
struct Case {
    procs: usize,
    k: usize,
    n: usize,
    ind: Vec<Vec<u32>>,
}

fn case(g: &mut Gen) -> Case {
    let procs = g.usize_incl(1, 8);
    let k = g.usize_incl(1, 4);
    // Half the cases have fewer elements than portions.
    let n = if g.prob(0.5) {
        g.usize_incl(1, k * procs)
    } else {
        g.usize_incl(1, 400)
    };
    let m = *g.pick(&[1usize, 2, 3, 5]);
    let iters = if g.prob(0.1) { 0 } else { g.usize_incl(0, 300) };
    let ind = if g.prob(0.5) {
        // Each iteration touches `m` consecutive elements from a
        // random cell, the shape of particle-in-cell deposits.
        let cells: Vec<u32> = (0..iters).map(|_| g.u32_in(0..n as u32)).collect();
        (0..m)
            .map(|r| {
                cells
                    .iter()
                    .map(|&c| ((c as usize + r) % n) as u32)
                    .collect()
            })
            .collect()
    } else {
        (0..m)
            .map(|_| (0..iters).map(|_| g.u32_in(0..n as u32)).collect())
            .collect()
    };
    Case { procs, k, n, ind }
}

#[test]
fn inspect_equals_reference() {
    check("inspect_equals_reference", Config::cases(256), case, |c| {
        let g = PhaseGeometry::new(c.procs, c.k, c.n);
        let cols: Vec<&[u32]> = c.ind.iter().map(Vec::as_slice).collect();
        for proc_id in 0..c.procs {
            let got = inspect(InspectorInput {
                geometry: g,
                proc_id,
                indirection: &cols,
            })
            .unwrap();
            prop_assert_eq!(got, reference(&g, proc_id, &c.ind));
        }
        Ok(())
    });
}
