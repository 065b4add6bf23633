//! Prints Table II (benchmark characteristics), paper vs measured.
//!
//! Pass `--hierarchy` to also validate one workload through the full
//! L1/L2/L3 cache hierarchy.

use memsim_sim::figures::tables;
use memsim_trace::SpecProfile;

fn main() {
    let (opts, hierarchy) = bumblebee_bench::parse_env_selecting(&["--hierarchy"]);
    let rows = tables::table2_with(&opts.engine(), &opts.cfg);
    opts.write_jsonl("table2", &tables::table2_jsonl(&rows));
    println!("{}", tables::render_table2(&rows));
    if hierarchy.is_some() {
        let mpki = tables::hierarchy_mpki(&opts.cfg, &SpecProfile::mcf(), 100_000);
        println!("mcf miss stream replayed through Table I hierarchy: {mpki:.1} MPKI");
    }
}
