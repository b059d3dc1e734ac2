//! A walkthrough of the LightInspector in the style of the paper's
//! Figure 3: 2 processors, k = 2, a mesh of 8 nodes and 20 edges.
//!
//! Prints the input indirection arrays and, for processor 0, the CSR
//! plan the inspector emits — the phase pointers, and per phase the
//! edges, their rewritten (buffered) references, and the second-loop
//! copy list: the artifacts Figure 3 tabulates.
//!
//! ```sh
//! cargo run --example inspector_walkthrough
//! ```

use lightinspector::{inspect, verify_flat, InspectorInput, PhaseGeometry};

fn main() {
    // 8 nodes, 20 edges, split as 10 edges per processor (block).
    let geometry = PhaseGeometry::new(2, 2, 8);
    println!(
        "geometry: P = 2, k = 2 → {} phases, portions of {} nodes",
        geometry.num_phases(),
        geometry.portion_size()
    );
    for p in 0..geometry.num_phases() {
        let portion = geometry.portion_owned_by(0, p);
        let r = geometry.portion_range(portion);
        println!("  phase {p}: P0 owns nodes {:?}", r);
    }

    // Processor 0's ten edges (endpoint pairs).
    let indir1_in: Vec<u32> = vec![0, 2, 4, 6, 1, 3, 5, 7, 0, 5];
    let indir2_in: Vec<u32> = vec![1, 3, 5, 7, 2, 4, 6, 4, 7, 2];
    println!("\nindir1_in = {indir1_in:?}");
    println!("indir2_in = {indir2_in:?}");

    let plan = inspect(InspectorInput {
        geometry,
        proc_id: 0,
        indirection: &[&indir1_in, &indir2_in],
    })
    .expect("inspector input valid");
    verify_flat(&plan, &[&indir1_in, &indir2_in]).expect("plan valid");

    println!(
        "\nremote buffer starts at location {} (= num_nodes)",
        geometry.num_elements()
    );
    println!("buffer slots allocated: {}", plan.buffer_len);
    println!("\nCSR plan (rows = edges in phase order, m = 2 refs per row):");
    println!("  iter_ptr = {:?}", plan.flat.iter_ptr);
    println!("  iters    = {:?}", plan.iters);
    println!("  refs     = {:?}", plan.flat.refs);
    println!("  copy_ptr = {:?}", plan.flat.copy_ptr);

    for p in 0..plan.flat.num_phases() {
        println!("\nphase {p}: rows {:?}", plan.flat.phase_rows(p));
        println!("  edges = {:?}", plan.phase_iters(p));
        let outs: Vec<&[u32]> = plan.flat.phase_refs(p).chunks(2).collect();
        println!("  (indir1_out, indir2_out) = {outs:?}");
        let copies = plan.flat.phase_copies(p);
        if copies.is_empty() {
            println!("  second loop: (empty)");
        }
        for c in copies {
            println!(
                "  second loop: X[{}] += X[{}]; X[{}] = 0",
                c.dest, c.src, c.src
            );
        }
    }

    // The Figure-3 narrative: an edge whose second endpoint is owned in
    // a future phase gets a buffer location.
    let edge = 7u32; // endpoints (7, 4): phases 3 and 2 on P0
    let p = (0..plan.flat.num_phases())
        .find(|&p| plan.phase_iters(p).contains(&edge))
        .expect("every edge is scheduled");
    println!(
        "\nedge {edge} touches nodes ({}, {}) → assigned to phase {p}; \
         the other endpoint is folded later by the second loop",
        indir1_in[edge as usize], indir2_in[edge as usize]
    );
}
