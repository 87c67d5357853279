//! [`Pipeline`] adapter for the data-parallel engine.
//!
//! Wraps a [`DataParBackend`] behind the engine-agnostic
//! [`rg_core::Pipeline`] interface so the batch runtime
//! ([`rg_core::batch`]) can stream images through a simulated CM alongside
//! the host engine — every image goes through the same
//! [`rg_core::driver::run_driver`] loop as the one-shot entry points. The
//! simulated machine rebuilds its fields per image (the virtual-processor
//! sets are part of the simulation), so unlike [`rg_core::HostPipeline`]
//! this adapter does **not** claim zero steady-state allocation — it
//! recycles the output buffer only.

use crate::driver::DataParBackend;
use cm_sim::CostModel;
use rg_core::driver::run_driver;
use rg_core::pipeline::Pipeline;
use rg_core::telemetry::Telemetry;
use rg_core::{Config, Segmentation};
use rg_imaging::Image;

/// A reusable data-parallel pipeline: one simulated cost model + config,
/// streamed over many images.
#[derive(Debug)]
pub struct DataParPipeline {
    config: Config,
    model: CostModel,
    engine: String,
}

impl DataParPipeline {
    /// Creates a pipeline running on the simulated machine `model`.
    pub fn new(config: Config, model: CostModel) -> Self {
        Self {
            config,
            model,
            engine: format!("datapar:{}", model.name),
        }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }
}

impl Pipeline for DataParPipeline {
    fn engine(&self) -> &str {
        &self.engine
    }

    fn run_into(&mut self, img: &Image<u8>, tel: &mut dyn Telemetry, out: &mut Segmentation) {
        let mut backend = DataParBackend::new(img, &self.config, self.model);
        run_driver(&mut backend, tel, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rg_core::telemetry::NullTelemetry;
    use rg_core::{run_batch_collect, segment, BatchOptions};
    use rg_imaging::synth;

    #[test]
    fn pipeline_matches_direct_driver_and_host() {
        let cfg = Config::with_threshold(10);
        let imgs = [synth::nested_rects(64), synth::rect_collection(64)];
        let mut pipe = DataParPipeline::new(cfg, CostModel::cm2_8k());
        assert_eq!(pipe.engine(), "datapar:CM-2 (8K procs)");
        for img in &imgs {
            let seg = pipe.run(img, &mut NullTelemetry);
            assert_eq!(seg, segment(img, &cfg));
        }
    }

    #[test]
    fn batch_streams_through_simulated_machine() {
        let cfg = Config::with_threshold(10);
        let imgs: Vec<_> = (0..3).map(|s| synth::random_rects(32, 32, 5, s)).collect();
        let (results, summary) = run_batch_collect(
            &imgs,
            &BatchOptions::new(),
            || Box::new(DataParPipeline::new(cfg, CostModel::cm2_8k())),
            &mut NullTelemetry,
        );
        assert_eq!(summary.images, 3);
        for (img, got) in imgs.iter().zip(&results) {
            assert_eq!(got, &segment(img, &cfg));
        }
    }
}
