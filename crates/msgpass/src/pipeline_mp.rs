//! [`Pipeline`] adapter for the message-passing engine.
//!
//! Wraps a [`MsgPassBackend`] behind the engine-agnostic
//! [`rg_core::Pipeline`] interface so the batch runtime
//! ([`rg_core::batch`]) can stream images through the simulated CM-5 node
//! program alongside the host engine — every image goes through the same
//! [`rg_core::driver::run_driver`] loop as the one-shot entry points. Each
//! image still spins up its own simulated nodes (they are part of the
//! simulation), so unlike [`rg_core::HostPipeline`] this adapter does
//! **not** claim zero steady-state allocation — it recycles the output
//! buffer only.
//!
//! Note the engine's structural square cap: splits are limited to squares
//! that fit a node's tile, so cross-engine comparisons must apply the same
//! `max_square_log2` to the other engines (see [`crate::Decomposition`]).

use crate::driver::MsgPassBackend;
use cmmd_sim::{CommScheme, FaultPlan};
use rg_core::driver::run_driver;
use rg_core::pipeline::Pipeline;
use rg_core::telemetry::Telemetry;
use rg_core::{Config, Segmentation};
use rg_imaging::Image;

/// A reusable message-passing pipeline: a node count + communication
/// scheme + config, streamed over many images.
#[derive(Debug)]
pub struct MsgPassPipeline {
    config: Config,
    nodes: usize,
    scheme: CommScheme,
    engine: String,
    chaos: Option<FaultPlan>,
}

impl MsgPassPipeline {
    /// Creates a pipeline running on `nodes` simulated CM-5 nodes with the
    /// given communication scheme.
    pub fn new(config: Config, nodes: usize, scheme: CommScheme) -> Self {
        Self {
            config,
            nodes,
            scheme,
            engine: format!("msgpass:{}:{}", scheme.label(), nodes),
            chaos: None,
        }
    }

    /// Creates a pipeline that runs every image under the given seeded
    /// fault-injection plan (see [`MsgPassBackend::with_chaos`]). Each
    /// image replays the same deterministic schedule, so a chaos batch is
    /// reproducible end to end.
    pub fn with_chaos(config: Config, nodes: usize, scheme: CommScheme, plan: FaultPlan) -> Self {
        let mut pipe = Self::new(config, nodes, scheme);
        pipe.chaos = Some(plan);
        pipe
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }
}

impl Pipeline for MsgPassPipeline {
    fn engine(&self) -> &str {
        &self.engine
    }

    fn run_into(&mut self, img: &Image<u8>, tel: &mut dyn Telemetry, out: &mut Segmentation) {
        let mut backend = MsgPassBackend::new(img, &self.config, self.nodes, self.scheme);
        if let Some(plan) = &self.chaos {
            backend = backend.with_chaos(plan);
        }
        run_driver(&mut backend, tel, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Decomposition;
    use rg_core::telemetry::NullTelemetry;
    use rg_core::{run_batch_collect, segment, BatchOptions};
    use rg_imaging::synth;

    #[test]
    fn pipeline_matches_direct_driver_and_host() {
        let nodes = 4;
        let cap = Decomposition::for_nodes(nodes, 64, 64)
            .unwrap()
            .max_safe_square_log2();
        let cfg = Config::with_threshold(10).max_square_log2(Some(cap));
        let imgs = [synth::nested_rects(64), synth::rect_collection(64)];
        let mut pipe = MsgPassPipeline::new(cfg, nodes, CommScheme::LinearPermutation);
        assert_eq!(pipe.engine(), "msgpass:LP:4");
        for img in &imgs {
            let seg = pipe.run(img, &mut NullTelemetry);
            assert_eq!(seg, segment(img, &cfg));
        }
    }

    #[test]
    fn batch_streams_through_simulated_nodes() {
        let nodes = 4;
        let cap = Decomposition::for_nodes(nodes, 32, 32)
            .unwrap()
            .max_safe_square_log2();
        let cfg = Config::with_threshold(10).max_square_log2(Some(cap));
        let imgs: Vec<_> = (0..2).map(|s| synth::random_rects(32, 32, 5, s)).collect();
        let (results, summary) = run_batch_collect(
            &imgs,
            &BatchOptions::new(),
            || Box::new(MsgPassPipeline::new(cfg, nodes, CommScheme::Async)),
            &mut NullTelemetry,
        );
        assert_eq!(summary.images, 2);
        for (img, got) in imgs.iter().zip(&results) {
            assert_eq!(got, &segment(img, &cfg));
        }
    }
}
