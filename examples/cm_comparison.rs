//! Runs one image through every simulated platform of the paper and prints
//! the comparison: the reproduction of the experience of Table rows
//! "CM Fortran on CM-2 / CM-5" vs "F77 + CMMD on CM-5 (LP / Async)".
//!
//! ```text
//! cargo run --release --example cm_comparison            # image 3
//! cargo run --release --example cm_comparison -- 1       # image 1
//! ```

use cm_sim::CostModel;
use cmmd_sim::CommScheme;
use rg_core::{segment, Config, TieBreak};
use rg_datapar::segment_datapar;
use rg_imaging::synth::PaperImage;
use rg_msgpass::{segment_msgpass, Decomposition};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let pi = PaperImage::ALL[(n - 1).min(5)];
    let img = pi.generate();

    // Shared configuration: the cap that lets every engine agree bit for
    // bit (the largest square fitting one CM-5 node's sub-image).
    let d = Decomposition::for_nodes(32, img.width(), img.height())
        .expect("32 nodes fit a paper image");
    let cfg = Config::with_threshold(10)
        .tie_break(TieBreak::Random { seed: 0x5EED })
        .max_square_log2(Some(d.max_safe_square_log2()));

    println!("{}\n", pi.description());
    let host = segment(&img, &cfg);
    println!(
        "host reference: {} squares -> {} regions ({} split + {} merge iterations)\n",
        host.num_squares, host.num_regions, host.split_iterations, host.merge_iterations
    );

    println!(
        "{:<42} {:>12} {:>12} {:>10}",
        "platform", "split (s)", "merge (s)", "identical"
    );
    for model in [
        CostModel::cm2_8k(),
        CostModel::cm2_16k(),
        CostModel::cm5_dp_32(),
    ] {
        let out = segment_datapar(&img, &cfg, model);
        println!(
            "{:<42} {:>12.3} {:>12.3} {:>10}",
            format!("CM Fortran on {}", out.platform),
            out.split_seconds,
            out.merge_seconds_as_reported(),
            out.seg == host
        );
    }
    for scheme in [CommScheme::LinearPermutation, CommScheme::Async] {
        let out = segment_msgpass(&img, &cfg, 32, scheme);
        println!(
            "{:<42} {:>12.3} {:>12.3} {:>10}",
            format!("F77 + CMMD on CM-5 (32 nodes, {})", scheme.label()),
            out.split_seconds,
            out.merge_seconds_as_reported(),
            out.seg == host
        );
    }
    println!("\n(simulated seconds; every engine returns the identical segmentation)");
}
