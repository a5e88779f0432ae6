//! The training probe: a paper-dimension ParaGraph CAP model (F = 32,
//! L = 5) trained in-process on the seeded paper dataset, one optimizer
//! step per training chip, in slices between the serving rounds.

use std::time::Instant;

use paragraph::{circuit_schema, PreparedCircuit, Target};
use paragraph_gnn::{GnnModel, GraphTask, ModelConfig, TrainConfig, Trainer};
use paragraph_tensor::Tensor;

use crate::inputs;
use crate::report::Counts;

/// Paper-dataset scale: 18 training chips of roughly 25–2000 devices.
pub const SCALE: f64 = 0.25;
const LR: f32 = 0.01;

/// The model `TargetModel::train` builds for CAP at paper dimensions.
pub fn paper_model(seed: u64) -> GnnModel {
    let fit = inputs::paper_fit(seed, 1);
    let mut config = ModelConfig::new(fit.kind);
    config.embed_dim = fit.embed_dim;
    config.layers = fit.layers;
    config.fc_layers = Target::Cap.fc_layers();
    config.seed = fit.seed;
    GnnModel::new(config, &circuit_schema())
}

/// One CAP training task per chip with labelled nets.
pub fn tasks(train: &[PreparedCircuit]) -> Vec<GraphTask> {
    train
        .iter()
        .filter_map(|pc| {
            let labels = pc.labels(Target::Cap, None);
            (!labels.is_empty()).then(|| {
                GraphTask::new(
                    pc.graph.graph.clone(),
                    labels.nodes.clone(),
                    Tensor::from_col(&labels.scaled),
                )
            })
        })
        .collect()
}

/// A training loop that can be run in slices: one optimizer step per
/// task, cycling through the tasks, keeping each task's fastest step.
pub struct Stepper {
    trainer: Trainer,
    model: GnnModel,
    tasks: Vec<GraphTask>,
    next: usize,
    loss_sum: f32,
    /// Each task's fastest step, ms.
    pub best_ms: Vec<f64>,
    /// Mean loss of each completed epoch.
    pub losses: Vec<f32>,
    /// Steps taken; a non-finite loss counts as failed.
    pub counts: Counts,
}

impl Stepper {
    pub fn new(tasks: Vec<GraphTask>, model: GnnModel) -> Self {
        Self {
            trainer: Trainer::new(TrainConfig {
                epochs: 1,
                lr: LR,
                lr_decay: 1.0,
                loss_target: None,
                graphs_per_batch: 1,
            }),
            model,
            best_ms: vec![f64::INFINITY; tasks.len()],
            tasks,
            next: 0,
            loss_sum: 0.0,
            losses: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Steps until `secs` have passed (at least one step); with
    /// `whole_epochs`, stops only at an epoch boundary.
    pub fn run_for(&mut self, secs: f64, whole_epochs: bool) {
        let started = Instant::now();
        loop {
            let task = &self.tasks[self.next];
            let t = Instant::now();
            let loss = self.trainer.step(&mut self.model, task);
            let best = &mut self.best_ms[self.next];
            *best = best.min(t.elapsed().as_secs_f64() * 1e3);
            self.counts.attempted += 1;
            if loss.is_finite() {
                self.counts.ok += 1;
            } else {
                self.counts.other += 1;
            }
            self.loss_sum += loss;
            self.next = (self.next + 1) % self.tasks.len();
            if self.next == 0 {
                self.losses.push(self.loss_sum / self.tasks.len() as f32);
                self.loss_sum = 0.0;
            }
            let done = started.elapsed().as_secs_f64() >= secs;
            if done && (!whole_epochs || self.next == 0) {
                return;
            }
        }
    }

    /// Steps per second of an epoch run at each task's fastest step.
    /// Interference from other tenants of the host only ever slows a
    /// step, so the fastest repeat tracks the program's own speed far
    /// more steadily than a mean over the loop. Tasks not yet stepped
    /// count as infinitely slow.
    pub fn steps_per_s(&self) -> f64 {
        self.best_ms.len() as f64 * 1e3 / self.best_ms.iter().sum::<f64>()
    }
}
