//! Regenerates the paper's three figures.
//!
//! ```text
//! cargo run --release -p rg-bench --bin figures -- fig1   # split worked example
//! cargo run --release -p rg-bench --bin figures -- fig2   # merge walkthrough
//! cargo run --release -p rg-bench --bin figures -- fig3   # merge-time bar series (+ CSV)
//! cargo run --release -p rg-bench --bin figures           # all three
//! ```

use rg_bench::tables::{paper_config, run_all_platforms};
use rg_core::graph::Rag;
use rg_core::{split, Config, Connectivity, Merger, TieBreak};
use rg_imaging::synth::{figure1_image, PaperImage};

fn main() {
    let arg = std::env::args().nth(1);
    match arg.as_deref() {
        Some("fig1") => fig1(),
        Some("fig2") => fig2(),
        Some("fig3") => fig3(),
        None => {
            fig1();
            fig2();
            fig3();
        }
        Some(other) => {
            eprintln!("unknown figure {other:?}; use fig1|fig2|fig3");
            std::process::exit(2);
        }
    }
}

/// Figure 1: the split stage on the 4x4 worked example, T = 3.
fn fig1() {
    println!("== Figure 1: The Split Stage (4x4 image, T = 3) ==\n");
    let img = figure1_image();
    println!("(a) at start of the split stage:");
    for y in 0..4 {
        let row: Vec<String> = (0..4).map(|x| img.get(x, y).to_string()).collect();
        println!("    {}", row.join(" "));
    }
    let cfg = Config::with_threshold(3);
    let s = split(&img, &cfg);
    println!(
        "\n(b) after {} split iteration(s): {} square regions",
        s.iterations,
        s.num_squares()
    );
    for (i, sq) in s.squares.iter().enumerate() {
        println!(
            "    region {i}: {}x{} square at ({}, {}), intensities {}..{}",
            sq.side(),
            sq.side(),
            sq.x,
            sq.y,
            s.stats[i].min,
            s.stats[i].max
        );
    }
    println!();
}

/// Figure 2: the merge stage on the same example, smallest-ID ties.
fn fig2() {
    println!("== Figure 2: The Merge Stage (4x4 image, T = 3, smallest-ID ties) ==\n");
    let img = figure1_image();
    let cfg = Config::with_threshold(3).tie_break(TieBreak::SmallestId);
    let s = split(&img, &cfg);
    let rag = Rag::from_split(&s, Connectivity::Four);
    println!(
        "(a) at start of the merge stage: {} regions, {} RAG edges",
        rag.num_vertices(),
        rag.num_edges()
    );
    let ids: Vec<u64> = s.squares.iter().map(|sq| sq.id(4) as u64).collect();
    let mut merger = Merger::new(rag, ids, &cfg);
    let mut step = 0;
    let captions = ["(b)", "(c)", "(d)"];
    while !merger.is_done() {
        let r = merger.step();
        let label = captions.get(step).copied().unwrap_or("(+)");
        step += 1;
        println!(
            "{label} after merge iteration {}: {} merges, {} regions, {} active edges",
            merger.iterations(),
            r.merges,
            merger.num_regions(),
            merger.active_edges()
        );
        let labels = merger.labels_by_vertex();
        println!("    region membership (vertex -> representative): {labels:?}");
    }
    println!(
        "\nfinal: {} regions after {} iterations (paper: 2 regions after 3 iterations)\n",
        merger.num_regions(),
        merger.iterations()
    );
}

/// Figure 3: merge-stage seconds for images 1-6 across the five platforms.
fn fig3() {
    println!("== Figure 3: Comparison of Times Taken by the Merge Stage ==\n");
    let mut csv = String::from("image,platform,merge_seconds,paper_merge_seconds\n");
    let mut names: Vec<String> = Vec::new();
    let mut series: Vec<Vec<f64>> = Vec::new();
    for (i, pi) in PaperImage::ALL.into_iter().enumerate() {
        let rows = run_all_platforms(pi);
        let refs = rg_bench::tables::paper_reference(pi);
        if i == 0 {
            names = rows.iter().map(|r| r.platform.clone()).collect();
            series = vec![Vec::new(); rows.len()];
        }
        for (j, (r, p)) in rows.iter().zip(refs.iter()).enumerate() {
            series[j].push(r.merge_s);
            csv.push_str(&format!(
                "Image {},{},{:.3},{:.3}\n",
                i + 1,
                r.platform,
                r.merge_s,
                p.merge_s
            ));
        }
        // paper_config(pi.size()) recomputed inside run_all_platforms; the
        // explicit call here keeps the binary self-documenting.
        let _ = paper_config(pi.size());
    }
    // Text bar chart, one group per image like the paper's figure.
    let max = series
        .iter()
        .flat_map(|s| s.iter().copied())
        .fold(0.0f64, f64::max);
    for (i, _) in PaperImage::ALL.iter().enumerate() {
        println!("Image {}:", i + 1);
        for (j, name) in names.iter().enumerate() {
            let v = series[j][i];
            let bar = "#".repeat(((v / max) * 50.0).round() as usize);
            println!("  {name:<40} {v:>8.3}s {bar}");
        }
    }
    let path = "figure3.csv";
    std::fs::write(path, &csv).expect("write figure3.csv");
    println!("\nseries written to {path}\n");
}
