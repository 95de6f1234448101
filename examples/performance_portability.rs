//! Performance portability across GPU generations — the paper's core
//! argument (§I, §IV-C).
//!
//! ```text
//! cargo run --example performance_portability
//! ```
//!
//! For each of the three simulated architectures (Kepler K40c, Maxwell
//! GTX980, Pascal P100) and a few array sizes, the framework selects a
//! *different* best code version: the winning algorithm depends on each
//! generation's atomic-instruction microarchitecture and shuffle
//! support, which is exactly why a single hand-written kernel cannot be
//! performance-portable.

use gpu_sim::ArchConfig;
use tangram::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sizes: [u64; 4] = [256, 16_384, 1 << 20, 16 << 20];
    println!(
        "{:<18}{:>12}{:>8}{:>26}{:>14}",
        "architecture", "n", "label", "winning version", "time (µs)"
    );
    for arch in ArchConfig::paper_archs() {
        let session = Session::new(arch.clone());
        for &n in &sizes {
            let row = session.select_best(n)?.row;
            println!(
                "{:<18}{:>12}{:>8}{:>26}{:>14.1}",
                arch.id,
                n,
                row.fig6_label.map(|c| format!("({c})")).unwrap_or_else(|| "-".into()),
                row.version.to_string(),
                row.time_ns / 1000.0
            );
        }
    }
    println!();
    println!("Note how Kepler (software-locked shared atomics) avoids the");
    println!("shared-atomic versions that Maxwell/Pascal (native support)");
    println!("prefer — §IV-C2 vs §IV-C3/4 of the paper.");
    Ok(())
}
