//! Integration: every generated dataset circuit survives a SPICE
//! write/parse round trip with its structure intact.

use paragraph_circuitgen::{paper_dataset, DatasetConfig};
use paragraph_netlist::{parse_spice, write_flat_spice};

fn connected(c: &paragraph_netlist::Circuit) -> usize {
    c.fanouts().iter().filter(|&&f| f > 0).count()
}

#[test]
fn dataset_circuits_roundtrip_through_spice() {
    let data = paper_dataset(DatasetConfig {
        scale: 0.06,
        seed: 4,
    });
    for dc in &data {
        let text = write_flat_spice(&dc.circuit);
        let back = parse_spice(&text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}", dc.name))
            .flatten()
            .unwrap();
        // Dangling nets (e.g. unused global-distribution nets in tiny
        // chips) cannot be expressed in SPICE text; compare device mix and
        // connected nets.
        let mut k1 = dc.circuit.kind_counts();
        let mut k2 = back.kind_counts();
        k1.net = 0;
        k2.net = 0;
        assert_eq!(k1, k2, "{}: device mix changed", dc.name);
        assert_eq!(
            connected(&dc.circuit),
            connected(&back),
            "{}: connected nets changed",
            dc.name
        );
        back.validate().unwrap();
        // Per-net fanout distribution preserved (order-independent;
        // dangling zero-fanout nets excluded — see above).
        let fanouts = |c: &paragraph_netlist::Circuit| {
            let mut f: Vec<usize> = c.fanouts().into_iter().filter(|&f| f > 0).collect();
            f.sort_unstable();
            f
        };
        assert_eq!(fanouts(&dc.circuit), fanouts(&back), "{}", dc.name);
    }
}

#[test]
fn graphs_of_roundtripped_circuits_match() {
    let data = paper_dataset(DatasetConfig {
        scale: 0.06,
        seed: 5,
    });
    for dc in data.iter().take(4) {
        let text = write_flat_spice(&dc.circuit);
        let back = parse_spice(&text).unwrap().flatten().unwrap();
        let g1 = paragraph::build_graph(&dc.circuit);
        let g2 = paragraph::build_graph(&back);
        // Node counts may differ by the dangling signal nets dropped in
        // the SPICE text; edge structure must match exactly.
        let dangling =
            (dc.circuit.num_nets() - connected(&dc.circuit)) - (back.num_nets() - connected(&back));
        assert_eq!(g1.graph.num_nodes(), g2.graph.num_nodes() + dangling);
        assert_eq!(g1.graph.num_edges(), g2.graph.num_edges());
        for t in 0..g1.graph.num_edge_types() {
            assert_eq!(
                g1.graph.edges(t).len(),
                g2.graph.edges(t).len(),
                "{}: edge type {t}",
                dc.name
            );
        }
    }
}

/// FNV-1a over `text`, continuing from `h`.
fn fnv1a(mut h: u64, text: &str) -> u64 {
    for byte in text.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `write_flat_spice` is the benchmark's request-body generator and the
/// text every round trip above rests on: its output is pinned byte for
/// byte over one chip of every block family plus the first dataset
/// chips (digest captured before the writer stopped cloning the circuit).
#[test]
fn flat_spice_text_is_pinned() {
    use paragraph_circuitgen::{
        compose_chip, FAMILY_ANALOG, FAMILY_DAC, FAMILY_DIGITAL, FAMILY_IO, FAMILY_MEM, FAMILY_PLL,
        FAMILY_PMU, FAMILY_REF,
    };
    let families = [
        FAMILY_DIGITAL,
        FAMILY_ANALOG,
        FAMILY_IO,
        FAMILY_DAC,
        FAMILY_PLL,
        FAMILY_MEM,
        FAMILY_PMU,
        FAMILY_REF,
    ];
    let mut circuits: Vec<_> = families
        .iter()
        .enumerate()
        .map(|(i, family)| compose_chip(&format!("chip{i}"), 7 + i as u64, family, 12))
        .collect();
    let data = paper_dataset(DatasetConfig {
        scale: 0.06,
        seed: 4,
    });
    circuits.extend(data.into_iter().take(3).map(|dc| dc.circuit));
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    let mut bytes = 0;
    for c in &circuits {
        let text = write_flat_spice(c);
        bytes += text.len();
        digest = fnv1a(digest, &text);
    }
    assert_eq!((bytes, digest), (42_353, 0x60c7_b3cd_d699_fc0d));
}
