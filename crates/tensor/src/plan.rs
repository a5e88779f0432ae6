//! Compiled CSR message plans for sparse aggregation kernels.
//!
//! A [`CsrPlan`] is the one-time compilation of a COO edge list into the
//! layout the fused tape ops ([`crate::Tape::attend_aggregate`],
//! [`crate::Tape::spmm_mean`], [`crate::Tape::spmm_norm`]) consume:
//! destination-sorted edge order, per-destination segment offsets, a
//! source-side transpose for the backward scatter, and in/out degree
//! vectors. Layers used to re-derive all of this from COO on every call;
//! a plan is built once per graph and shared behind an `Arc` across
//! layers, epochs, and ensemble members.
//!
//! The destination sort is a *stable* counting sort, so edges that share
//! a destination keep their original relative order. This makes the
//! fused segment reductions accumulate in exactly the same element order
//! as the composed `scatter_add_rows` path, which is what lets the fused
//! kernels be bitwise identical to the primitives they replace.
//!
//! A plan also lists the rows its edges touch: the destinations with a
//! non-empty segment, and every node that is a source or destination.
//! On a circuit graph each of the 30 edge types touches a small share of
//! the nodes, so kernels that visit only these rows skip work whose
//! result nothing reads (untouched rows would receive no message).

use std::sync::Arc;

/// Destination-sorted CSR compilation of one edge list.
///
/// All edge-indexed slices (`sorted_src`, `sorted_dst`, `perm`) are in
/// *destination-sorted* order: edges targeting destination `d` occupy
/// the contiguous range `dst_offsets[d]..dst_offsets[d+1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPlan {
    num_nodes: usize,
    /// `dst_offsets[d]..dst_offsets[d+1]` indexes the edges into `d`.
    dst_offsets: Vec<u32>,
    /// Source node of each dst-sorted edge.
    sorted_src: Vec<u32>,
    /// Destination node of each dst-sorted edge.
    sorted_dst: Vec<u32>,
    /// Original COO index of each dst-sorted edge (`perm[i]` is where
    /// sorted edge `i` came from).
    perm: Vec<u32>,
    /// `edges_of_src[src_offsets[s]..src_offsets[s+1]]` lists the
    /// dst-sorted edge indices whose source is `s`, in ascending sorted
    /// index order. This is the transpose used by backward scatters.
    src_offsets: Vec<u32>,
    edges_of_src: Vec<u32>,
    in_degree: Vec<f32>,
    /// `1 / max(in_degree, 1)` — the mean-aggregation coefficient.
    inv_in_degree: Vec<f32>,
    out_degree: Vec<f32>,
    /// Ascending destinations with at least one incoming edge.
    dst_rows: Vec<u32>,
    /// Ascending nodes that are the source or destination of an edge.
    touched_rows: Vec<u32>,
}

impl CsrPlan {
    /// Compiles a COO edge list over `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length or reference a node
    /// `>= num_nodes`.
    pub fn new(src: &[u32], dst: &[u32], num_nodes: usize) -> Self {
        let mut plan = Self {
            num_nodes: 0,
            dst_offsets: Vec::new(),
            sorted_src: Vec::new(),
            sorted_dst: Vec::new(),
            perm: Vec::new(),
            src_offsets: Vec::new(),
            edges_of_src: Vec::new(),
            in_degree: Vec::new(),
            inv_in_degree: Vec::new(),
            out_degree: Vec::new(),
            dst_rows: Vec::new(),
            touched_rows: Vec::new(),
        };
        plan.rebuild(src, dst, num_nodes);
        plan
    }

    /// Recompiles this plan for a new edge list in place, reusing every
    /// internal buffer. With capacities at or above the new sizes the
    /// call performs no heap allocation — repeated batch assembly over
    /// similarly-sized unions recompiles its CSR plans alloc-free.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CsrPlan::new`].
    pub fn rebuild(&mut self, src: &[u32], dst: &[u32], num_nodes: usize) {
        assert_eq!(src.len(), dst.len(), "src/dst edge list length mismatch");
        let e = src.len();
        for (&s, &d) in src.iter().zip(dst.iter()) {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "edge ({s}, {d}) out of range for {num_nodes} nodes"
            );
        }
        self.num_nodes = num_nodes;

        // Stable counting sort by destination. `dst_offsets` doubles as
        // the placement cursor: after the scatter, slot `d` holds the
        // end of segment `d` (= the true offset of `d + 1`), so one
        // right-shift restores the offsets without a cursor clone.
        let off = &mut self.dst_offsets;
        off.clear();
        off.resize(num_nodes + 1, 0);
        for &d in dst {
            off[d as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            off[i + 1] += off[i];
        }
        refill_u32(&mut self.sorted_src, e);
        refill_u32(&mut self.sorted_dst, e);
        refill_u32(&mut self.perm, e);
        for i in 0..e {
            let d = dst[i] as usize;
            let at = off[d] as usize;
            off[d] += 1;
            self.sorted_src[at] = src[i];
            self.sorted_dst[at] = dst[i];
            self.perm[at] = i as u32;
        }
        for d in (1..=num_nodes).rev() {
            off[d] = off[d - 1];
        }
        off[0] = 0;

        // Source-side transpose: for each source node, the dst-sorted
        // edge indices it feeds, in ascending order (another stable
        // counting sort with the same cursor-in-place trick).
        let soff = &mut self.src_offsets;
        soff.clear();
        soff.resize(num_nodes + 1, 0);
        for &s in &self.sorted_src {
            soff[s as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            soff[i + 1] += soff[i];
        }
        refill_u32(&mut self.edges_of_src, e);
        for (i, &s) in self.sorted_src.iter().enumerate() {
            let at = soff[s as usize] as usize;
            soff[s as usize] += 1;
            self.edges_of_src[at] = i as u32;
        }
        for s in (1..=num_nodes).rev() {
            soff[s] = soff[s - 1];
        }
        soff[0] = 0;

        self.in_degree.clear();
        self.in_degree.resize(num_nodes, 0.0);
        self.out_degree.clear();
        self.out_degree.resize(num_nodes, 0.0);
        for i in 0..e {
            self.in_degree[dst[i] as usize] += 1.0;
            self.out_degree[src[i] as usize] += 1.0;
        }
        self.inv_in_degree.clear();
        self.inv_in_degree
            .extend(self.in_degree.iter().map(|&d| 1.0 / d.max(1.0)));

        // Row lists in O(E): destinations ascend in dst-sorted order,
        // sources in the source transpose's order; dedup both and merge.
        let dst_rows = &mut self.dst_rows;
        dst_rows.clear();
        for &d in &self.sorted_dst {
            if dst_rows.last() != Some(&d) {
                dst_rows.push(d);
            }
        }
        let touched = &mut self.touched_rows;
        touched.clear();
        let mut push = |v: u32| {
            if touched.last() != Some(&v) {
                touched.push(v);
            }
        };
        let mut dsts = dst_rows.iter().copied().peekable();
        for &ei in &self.edges_of_src {
            let s = self.sorted_src[ei as usize];
            while let Some(d) = dsts.next_if(|&d| d < s) {
                push(d);
            }
            push(s);
        }
        dsts.for_each(push);
    }

    /// Convenience constructor that wraps the plan in an `Arc`.
    pub fn shared(src: &[u32], dst: &[u32], num_nodes: usize) -> Arc<Self> {
        Arc::new(Self::new(src, dst, num_nodes))
    }

    /// Sum of the capacities of every internal buffer, in elements.
    /// Batch-assembly scratch uses this to cap how much memory one
    /// oversized batch can pin across rebuilds.
    pub fn retained_capacity(&self) -> usize {
        self.dst_offsets.capacity()
            + self.sorted_src.capacity()
            + self.sorted_dst.capacity()
            + self.perm.capacity()
            + self.src_offsets.capacity()
            + self.edges_of_src.capacity()
            + self.in_degree.capacity()
            + self.inv_in_degree.capacity()
            + self.out_degree.capacity()
            + self.dst_rows.capacity()
            + self.touched_rows.capacity()
    }

    /// Shrinks every internal buffer's *excess* capacity back to its
    /// current length when it exceeds `cap` elements. Keeps a pooled
    /// plan from permanently pinning the high-water memory of one huge
    /// batch.
    pub fn shrink_excess(&mut self, cap: usize) {
        fn trim<T>(v: &mut Vec<T>, cap: usize) {
            if v.capacity() > cap {
                v.shrink_to(v.len().max(cap));
            }
        }
        trim(&mut self.dst_offsets, cap);
        trim(&mut self.sorted_src, cap);
        trim(&mut self.sorted_dst, cap);
        trim(&mut self.perm, cap);
        trim(&mut self.src_offsets, cap);
        trim(&mut self.edges_of_src, cap);
        trim(&mut self.in_degree, cap);
        trim(&mut self.inv_in_degree, cap);
        trim(&mut self.out_degree, cap);
        trim(&mut self.dst_rows, cap);
        trim(&mut self.touched_rows, cap);
    }

    /// Number of nodes the plan was compiled over.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.sorted_src.len()
    }

    /// Per-destination segment offsets (`len = num_nodes + 1`).
    pub fn dst_offsets(&self) -> &[u32] {
        &self.dst_offsets
    }

    /// The dst-sorted edge range targeting destination `d`.
    pub fn edges_into(&self, d: usize) -> std::ops::Range<usize> {
        self.dst_offsets[d] as usize..self.dst_offsets[d + 1] as usize
    }

    /// Source node per dst-sorted edge.
    pub fn sorted_src(&self) -> &[u32] {
        &self.sorted_src
    }

    /// Destination node per dst-sorted edge.
    pub fn sorted_dst(&self) -> &[u32] {
        &self.sorted_dst
    }

    /// Original COO edge index per dst-sorted edge.
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Per-source offsets into [`CsrPlan::edges_of_src`].
    pub fn src_offsets(&self) -> &[u32] {
        &self.src_offsets
    }

    /// Dst-sorted edge indices grouped by source node.
    pub fn edges_of_src(&self) -> &[u32] {
        &self.edges_of_src
    }

    /// The dst-sorted edge indices leaving source `s`.
    pub fn edges_from(&self, s: usize) -> &[u32] {
        &self.edges_of_src[self.src_offsets[s] as usize..self.src_offsets[s + 1] as usize]
    }

    /// In-degree (number of incoming edges) per node.
    pub fn in_degree(&self) -> &[f32] {
        &self.in_degree
    }

    /// `1 / max(in_degree, 1)` per node.
    pub fn inv_in_degree(&self) -> &[f32] {
        &self.inv_in_degree
    }

    /// Out-degree (number of outgoing edges) per node.
    pub fn out_degree(&self) -> &[f32] {
        &self.out_degree
    }

    /// Destinations with a non-empty segment, ascending: the only rows a
    /// segment reduction over this plan writes.
    pub fn dst_rows(&self) -> &[u32] {
        &self.dst_rows
    }

    /// Nodes that are a source or destination of some edge, ascending:
    /// the only rows a message over this plan reads or writes.
    pub fn touched_rows(&self) -> &[u32] {
        &self.touched_rows
    }
}

/// Clears and zero-resizes a scatter target, reusing its capacity.
fn refill_u32(v: &mut Vec<u32>, len: usize) {
    v.clear();
    v.resize(len, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_by_destination_stably() {
        // Two edges into node 0 appear in original order (idx 1 then 2),
        // likewise the two into node 1 (idx 0 then 3).
        let src = [0u32, 1, 2, 2, 0];
        let dst = [1u32, 0, 0, 1, 2];
        let plan = CsrPlan::new(&src, &dst, 3);
        assert_eq!(plan.num_edges(), 5);
        assert_eq!(plan.dst_offsets(), &[0, 2, 4, 5]);
        assert_eq!(plan.sorted_src(), &[1, 2, 0, 2, 0]);
        assert_eq!(plan.sorted_dst(), &[0, 0, 1, 1, 2]);
        assert_eq!(plan.perm(), &[1, 2, 0, 3, 4]);
    }

    #[test]
    fn source_transpose_covers_every_edge() {
        let src = [0u32, 1, 2, 2, 0];
        let dst = [1u32, 0, 0, 1, 2];
        let plan = CsrPlan::new(&src, &dst, 3);
        let mut seen = [false; 5];
        for s in 0..3 {
            for &ei in plan.edges_from(s) {
                assert_eq!(plan.sorted_src()[ei as usize], s as u32);
                assert!(!seen[ei as usize], "edge {ei} listed twice");
                seen[ei as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        // Within a source, sorted edge indices ascend (determinism
        // contract for the backward scatter order).
        for s in 0..3 {
            let edges = plan.edges_from(s);
            assert!(edges.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn degrees_match_coo() {
        let src = [0u32, 1, 2, 2, 0];
        let dst = [1u32, 0, 0, 1, 2];
        let plan = CsrPlan::new(&src, &dst, 4);
        assert_eq!(plan.in_degree(), &[2.0, 2.0, 1.0, 0.0]);
        assert_eq!(plan.out_degree(), &[2.0, 1.0, 2.0, 0.0]);
        assert_eq!(plan.inv_in_degree(), &[0.5, 0.5, 1.0, 1.0]);
    }

    #[test]
    fn row_lists_cover_exactly_the_touched_nodes() {
        // Node 3 only sends, node 4 only receives, nodes 1 and 5 are
        // isolated.
        let plan = CsrPlan::new(&[0, 3, 2], &[2, 4, 0], 6);
        assert_eq!(plan.dst_rows(), &[0, 2, 4]);
        assert_eq!(plan.touched_rows(), &[0, 2, 3, 4]);
        let empty = CsrPlan::new(&[], &[], 3);
        assert!(empty.dst_rows().is_empty() && empty.touched_rows().is_empty());
        // Against the degree vectors on scrambled multi-edge lists.
        for seed in 0..20_u32 {
            let n = 3 + seed as usize % 9;
            let e = seed as usize % 13;
            let src: Vec<u32> = (0..e as u32)
                .map(|i| (i * 7 + seed * 3) % n as u32)
                .collect();
            let dst: Vec<u32> = (0..e as u32).map(|i| (i * i + seed) % n as u32).collect();
            let plan = CsrPlan::new(&src, &dst, n);
            let want = |pred: &dyn Fn(usize) -> bool| -> Vec<u32> {
                (0..n).filter(|&v| pred(v)).map(|v| v as u32).collect()
            };
            let (din, dout) = (plan.in_degree(), plan.out_degree());
            assert_eq!(plan.dst_rows(), want(&|v| din[v] > 0.0));
            assert_eq!(plan.touched_rows(), want(&|v| din[v] + dout[v] > 0.0));
        }
    }

    #[test]
    fn empty_edge_list() {
        let plan = CsrPlan::new(&[], &[], 3);
        assert_eq!(plan.num_edges(), 0);
        assert_eq!(plan.dst_offsets(), &[0, 0, 0, 0]);
        assert_eq!(plan.in_degree(), &[0.0, 0.0, 0.0]);
        assert_eq!(plan.inv_in_degree(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edges() {
        CsrPlan::new(&[0, 5], &[1, 0], 3);
    }

    #[test]
    fn rebuild_matches_fresh_compilation() {
        // Rebuild a plan across differently-shaped edge lists (growing,
        // shrinking, different node counts); every intermediate state
        // must equal a from-scratch compilation.
        let cases: [(&[u32], &[u32], usize); 4] = [
            (&[0, 1, 2, 2, 0], &[1, 0, 0, 1, 2], 3),
            (&[3, 0, 1], &[0, 3, 2], 4),
            (&[], &[], 2),
            (&[0, 0, 1, 1, 2, 2, 3], &[1, 2, 3, 0, 0, 1, 2], 5),
        ];
        let mut plan = CsrPlan::new(&[], &[], 1);
        for (src, dst, n) in cases {
            plan.rebuild(src, dst, n);
            assert_eq!(plan, CsrPlan::new(src, dst, n));
        }
    }

    #[test]
    fn shrink_excess_bounds_retained_capacity() {
        let src: Vec<u32> = (0..4096).map(|i| i % 64).collect();
        let dst: Vec<u32> = (0..4096).map(|i| (i + 1) % 64).collect();
        let mut plan = CsrPlan::new(&src, &dst, 64);
        plan.rebuild(&[0], &[1], 2);
        assert!(plan.retained_capacity() >= 4096);
        plan.shrink_excess(16);
        assert!(plan.retained_capacity() < 9 * 32);
        assert_eq!(plan, CsrPlan::new(&[0], &[1], 2));
    }
}
