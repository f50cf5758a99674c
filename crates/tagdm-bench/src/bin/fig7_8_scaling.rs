//! Reproduces Figures 7–8: execution time and quality as the number of input tagging
//! tuples varies (size-binned sub-corpora), comparing Exact against SM-LSH-Fo on
//! Problem 1 and against DV-FDP-Fo on Problem 6.

use tagdm_bench::experiments::scaling;
use tagdm_bench::report::write_json;
use tagdm_bench::workloads::ExperimentScale;

fn main() {
    let scale = ExperimentScale::from_env();
    eprintln!("running scaling sweep at {} scale ...", scale.name());
    let result = scaling::run(scale, None);
    println!("{}", result.time_table());
    println!("{}", result.quality_table());
    if let Some(path) = write_json("fig7_8_scaling", &result) {
        eprintln!("wrote {}", path.display());
    }
}
