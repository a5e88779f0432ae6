//! Seeded inputs: request netlists for the serving workloads and the
//! training set every workload trains on. The same seed always yields the
//! same inputs; the program under test only ever sees what is built here.

use std::path::Path;

use paragraph::{
    fit_norm, normalize_circuits, prepare_circuits, CapEnsemble, FeatureNorm, FitConfig, GnnKind,
    Precision, PreparedCircuit, SavedModel, Target, TargetModel, PAPER_MAX_V,
};
use paragraph_circuitgen::{
    grow_chip, paper_dataset, ChipBuilder, DatasetConfig, Family, Split, FAMILY_ANALOG, FAMILY_DAC,
    FAMILY_DIGITAL, FAMILY_IO, FAMILY_MEM, FAMILY_PLL, FAMILY_PMU, FAMILY_REF,
};
use paragraph_layout::LayoutConfig;
use paragraph_netlist::{write_flat_spice, Circuit, NetClass};
use serde_json::json;

use crate::stats::mix;

const FAMILIES: [Family; 8] = [
    FAMILY_DIGITAL,
    FAMILY_ANALOG,
    FAMILY_IO,
    FAMILY_DAC,
    FAMILY_PLL,
    FAMILY_MEM,
    FAMILY_PMU,
    FAMILY_REF,
];

/// Block families mixed into one generated chip.
const FAMILIES_PER_CHIP: usize = 4;

/// Threads used to generate inputs (the host's two cores).
const GEN_THREADS: usize = 2;

/// One request's netlist and what a correct answer to it looks like.
pub struct Input {
    /// Flat SPICE text, as a designer's tool would send it.
    pub netlist: String,
    /// Signal nets in the circuit: a CAP response carries one value each.
    pub signal_nets: usize,
}

/// `count` distinct chips of `blocks` blocks each, chip `i` drawn from
/// four block families and a seed derived from `(seed, i)`.
pub fn netlists(seed: u64, blocks: usize, count: usize) -> Vec<Input> {
    let per_thread = count.div_ceil(GEN_THREADS);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..GEN_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let lo = (t * per_thread).min(count);
                    let hi = ((t + 1) * per_thread).min(count);
                    (lo..hi).map(|i| chip(seed, blocks, i)).collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("input generator panicked"))
            .collect()
    })
}

fn chip(seed: u64, blocks: usize, i: usize) -> Input {
    let mut builder = ChipBuilder::new(format!("chip{i}"), mix(seed ^ mix(i as u64)));
    for k in 0..FAMILIES_PER_CHIP {
        let family = FAMILIES[(i + k) % FAMILIES.len()];
        grow_chip(&mut builder, family, blocks / FAMILIES_PER_CHIP);
    }
    let circuit = builder.into_circuit();
    Input {
        netlist: write_flat_spice(&circuit),
        signal_nets: signal_nets(&circuit),
    }
}

/// Signal nets some device touches: the nets written out, so the nets a
/// CAP response carries one value for.
pub fn signal_nets(circuit: &Circuit) -> usize {
    let mut connected = vec![false; circuit.num_nets()];
    for device in circuit.devices() {
        for (_, net) in &device.conns {
            connected[net.0 as usize] = true;
        }
    }
    circuit
        .nets()
        .iter()
        .zip(&connected)
        .filter(|(n, &c)| c && n.class == NetClass::Signal)
        .count()
}

/// The HTTP `/predict` body (also a valid JSON-lines request) for input
/// `id` served by `model`.
pub fn request_body(id: usize, model: &str, netlist: &str) -> String {
    let request = json!({"op": "predict", "id": id as u64, "model": model, "netlist": netlist});
    serde_json::to_string(&request).expect("request serialises")
}

/// The seeded paper dataset's training chips, laid out, labelled and
/// normalised.
pub fn train_set(seed: u64, scale: f64) -> (Vec<PreparedCircuit>, FeatureNorm) {
    let chips = paper_dataset(DatasetConfig { scale, seed })
        .into_iter()
        .filter(|c| c.split == Split::Train)
        .map(|c| (c.name, c.circuit));
    let mut train = prepare_circuits(chips, &LayoutConfig::default());
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);
    (train, norm)
}

/// Paper dimensions (F = 32, L = 5) with `epochs` epochs.
pub fn paper_fit(seed: u64, epochs: usize) -> FitConfig {
    FitConfig {
        epochs,
        seed,
        ..FitConfig::new(GnnKind::ParaGraph)
    }
}

/// Trains the serving models and saves them as artifacts under `dir`,
/// each pinned to `precision`. `ensemble` trains the four Algorithm-2
/// members (served as `cap_ensemble`), otherwise one CAP model (`cap`).
pub fn train_and_save(
    train: &[PreparedCircuit],
    norm: &FeatureNorm,
    fit: &FitConfig,
    ensemble: bool,
    precision: Precision,
    dir: &Path,
) -> std::io::Result<()> {
    let models: Vec<(String, TargetModel)> = if ensemble {
        CapEnsemble::train(train, &PAPER_MAX_V, fit, norm)
            .members()
            .iter()
            .enumerate()
            .map(|(i, m)| (format!("cap_m{i}"), m.clone()))
            .collect()
    } else {
        let (model, _) = TargetModel::train(train, Target::Cap, None, fit.clone(), norm);
        vec![("cap".to_owned(), model)]
    };
    std::fs::create_dir_all(dir)?;
    for (name, mut model) in models {
        model.precision = Some(precision);
        std::fs::write(
            dir.join(format!("{name}.json")),
            SavedModel::from_model(&model).to_json(),
        )?;
    }
    Ok(())
}
