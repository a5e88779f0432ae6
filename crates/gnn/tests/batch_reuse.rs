//! Batch-assembly reuse guarantees: after warm-up, rebuilding a
//! [`GraphBatch`] in place via `assemble` performs **zero** heap
//! allocations (counting allocator) even across 1000 rebuilds with
//! varying member shapes, and the reused assembly stays bitwise
//! identical to a freshly constructed batch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paragraph_gnn::{GraphBatch, GraphSchema, HeteroGraph};
use paragraph_tensor::Tensor;

/// Wraps the system allocator and counts allocation calls made by the
/// calling thread. A per-thread count keeps tests that run concurrently
/// in this process (the default harness) out of each other's totals.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The zero-allocation contract holds with tracing off: an enabled span
/// recorder allocates its own records. `PARAGRAPH_TRACE` and
/// `PARAGRAPH_TRACE_STORE` may have switched tracing and the trace store
/// on, so counting tests switch both off first.
fn tracing_off() {
    paragraph_obs::set_enabled(false);
    paragraph_obs::set_store_enabled(false);
}

fn schema() -> GraphSchema {
    GraphSchema {
        node_feat_dims: vec![2, 3],
        num_edge_types: 2,
    }
}

/// A deterministic member graph whose size is driven by `seed`.
fn member(seed: usize) -> HeteroGraph {
    let n = 4 + seed % 5;
    let types: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
    let mut g = HeteroGraph::new(&schema(), types);
    let rows0 = (0..n).filter(|i| i % 2 == 0).count();
    let rows1 = n - rows0;
    g.set_features(
        0,
        Tensor::from_fn(rows0, 2, |i, j| (seed + i * 2 + j) as f32 * 0.11 - 0.3),
    );
    g.set_features(
        1,
        Tensor::from_fn(rows1, 3, |i, j| (seed + i * 3 + j) as f32 * 0.07 - 0.5),
    );
    let src: Vec<u32> = (0..n).map(|i| i as u32).collect();
    let dst: Vec<u32> = (0..n).map(|i| ((i * 3 + 1 + seed) % n) as u32).collect();
    g.set_edges(0, src.clone(), dst.clone());
    g.set_edges(1, dst, src);
    g.validate().unwrap();
    g
}

fn assert_batches_match(reused: &GraphBatch, fresh: &GraphBatch) {
    let (a, b) = (reused.graph(), fresh.graph());
    assert_eq!(a.num_nodes(), b.num_nodes());
    assert_eq!(reused.num_graphs(), fresh.num_graphs());
    for t in 0..a.num_node_types() {
        let (fa, fb) = (a.features(t as u16), b.features(t as u16));
        assert_eq!((fa.rows(), fa.cols()), (fb.rows(), fb.cols()));
        let bits_a: Vec<u32> = fa.as_slice().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = fb.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "feature mismatch for node type {t}");
    }
    for et in 0..a.num_edge_types() {
        assert_eq!(*a.edges(et).src, *b.edges(et).src);
        assert_eq!(*a.edges(et).dst, *b.edges(et).dst);
    }
    let (pa, pb) = (a.plan(), b.plan());
    assert_eq!(pa.union().num_edges(), pb.union().num_edges());
    assert_eq!(pa.union().sorted_src(), pb.union().sorted_src());
    assert_eq!(pa.union().sorted_dst(), pb.union().sorted_dst());
    assert_eq!(pa.union().in_degree(), pb.union().in_degree());
    let ca: Vec<u32> = pa.union_gcn_coeff().iter().map(|v| v.to_bits()).collect();
    let cb: Vec<u32> = pb.union_gcn_coeff().iter().map(|v| v.to_bits()).collect();
    assert_eq!(ca, cb, "union GCN coefficients drifted");
    for et in 0..a.num_edge_types() {
        assert_eq!(
            pa.edge_type(et).sorted_src(),
            pb.edge_type(et).sorted_src(),
            "per-type plan mismatch for edge type {et}"
        );
    }
}

#[test]
fn reused_assembly_matches_fresh_batch() {
    let members: Vec<HeteroGraph> = (0..8).map(member).collect();
    let refs: Vec<&HeteroGraph> = members.iter().collect();
    let mut batch = GraphBatch::new(&refs[..2]);
    // Grow, shrink, and reshuffle the member set across reuses.
    for window in [&refs[..5], &refs[2..4], &refs[..8], &refs[3..4], &refs[..3]] {
        batch.assemble(window);
        let fresh = GraphBatch::new(window);
        assert_batches_match(&batch, &fresh);
        for (i, g) in window.iter().enumerate() {
            assert_eq!(batch.num_nodes_of(i), g.num_nodes());
        }
    }
}

#[test]
fn steady_state_assembly_is_allocation_free() {
    tracing_off();
    let members: Vec<HeteroGraph> = (0..8).map(member).collect();
    let refs: Vec<&HeteroGraph> = members.iter().collect();
    let windows = [&refs[..4], &refs[4..8], &refs[2..6], &refs[..8]];

    let mut batch = GraphBatch::new(windows[0]);
    // Warm-up: visit every shape once so all buffers reach their
    // high-water capacity (the largest window dominates).
    for window in &windows {
        batch.assemble(window);
    }

    let before = alloc_count();
    for i in 0..1000 {
        batch.assemble(windows[i % windows.len()]);
    }
    let delta = alloc_count() - before;
    assert_eq!(
        delta, 0,
        "{delta} heap allocations across 1000 steady-state batch assemblies"
    );
}
