//! Property-based tests for the LightInspector, on the in-tree
//! [`harness::prop`] harness.
//!
//! The central invariant: for *any* geometry and *any* indirection
//! contents, the plan produced by the inspector is structurally valid —
//! every iteration runs exactly once, every resident reference is
//! actually resident, and every buffered contribution is folded exactly
//! once, later, into the right element. `verify_flat` encodes those
//! checks; these tests drive it across the parameter space.
//!
//! Failing cases print a `PROP_SEED` replay line; see DESIGN.md.

use harness::prop::{check, Config, Gen};
use harness::{prop_assert, prop_assert_eq};
use lightinspector::{inspect, verify_flat, InspectorInput, PhaseGeometry};

/// Geometry + matching random indirection arrays.
#[derive(Debug, Clone)]
struct Scenario {
    p: usize,
    k: usize,
    n: usize,
    a: Vec<u32>,
    b: Vec<u32>,
}

fn scenario(g: &mut Gen) -> Scenario {
    let p = g.usize_incl(1, 8);
    let k = g.usize_incl(1, 4);
    let n = g.usize_incl(1, 100);
    let iters = g.usize_incl(0, 300);
    let a = (0..iters).map(|_| g.u32_in(0..n as u32)).collect();
    let b = (0..iters).map(|_| g.u32_in(0..n as u32)).collect();
    Scenario { p, k, n, a, b }
}

#[test]
fn plan_is_always_valid() {
    check("plan_is_always_valid", Config::cases(256), scenario, |s| {
        let g = PhaseGeometry::new(s.p, s.k, s.n);
        for proc_id in 0..s.p {
            let plan = inspect(InspectorInput {
                geometry: g,
                proc_id,
                indirection: &[&s.a, &s.b],
            })
            .unwrap();
            prop_assert!(verify_flat(&plan, &[&s.a, &s.b]).is_ok());
            prop_assert_eq!(plan.iters.len(), s.a.len());
        }
        Ok(())
    });
}

#[test]
fn buffers_bounded_by_refs() {
    check(
        "buffers_bounded_by_refs",
        Config::cases(256),
        scenario,
        |s| {
            let g = PhaseGeometry::new(s.p, s.k, s.n);
            let plan = inspect(InspectorInput {
                geometry: g,
                proc_id: 0,
                indirection: &[&s.a, &s.b],
            })
            .unwrap();
            // At most one buffered reference per (iteration, ref) pair
            // beyond the resident one: m-1 = 1 per iteration here.
            prop_assert!(plan.buffer_len <= s.a.len());
            prop_assert_eq!(plan.buffer_len, plan.flat.copies.len());
            Ok(())
        },
    );
}

#[test]
fn single_ref_groups_residents() {
    check(
        "single_ref_groups_residents",
        Config::cases(256),
        scenario,
        |s| {
            let g = PhaseGeometry::new(s.p, s.k, s.n);
            let proc_id = s.p - 1;
            let plan = inspect(InspectorInput {
                geometry: g,
                proc_id,
                indirection: &[&s.a],
            })
            .unwrap();
            prop_assert!(verify_flat(&plan, &[&s.a]).is_ok());
            prop_assert_eq!(plan.iters.len(), s.a.len());
            // One reference is always resident in its iteration's phase:
            // no buffer, no copies.
            prop_assert_eq!(plan.buffer_len, 0);
            prop_assert!(plan.flat.copies.is_empty());
            for phase in 0..g.num_phases() {
                let range = g.portion_range(g.portion_owned_by(proc_id, phase));
                for &target in plan.flat.phase_refs(phase) {
                    prop_assert!(range.contains(&(target as usize)));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn ownership_round_trips() {
    check(
        "ownership_round_trips",
        Config::cases(256),
        |g| {
            let p = g.usize_incl(1, 16);
            let k = g.usize_incl(1, 4);
            let n = g.usize_incl(1, 1000);
            let e = g.usize_in(0..n);
            (p, k, n, e)
        },
        |&(p, k, n, e)| {
            let g = PhaseGeometry::new(p, k, n);
            let portion = g.portion_of(e);
            for proc in 0..p {
                let phase = g.phase_of_portion_on(proc, portion);
                prop_assert_eq!(g.portion_owned_by(proc, phase), portion);
                prop_assert_eq!(g.owner_at(portion, phase), Some(proc));
            }
            Ok(())
        },
    );
}
