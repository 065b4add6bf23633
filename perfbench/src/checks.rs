//! Correctness checks. Each cell of a workload is one operation: every
//! check that touches the cell runs, and the cell counts as failed if any
//! of them fails. A cell is never dropped from the tally.

use memsim_sim::{RunObservations, SimReport};

/// Cells attempted and failed, with the first problem of each failure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    problems: Vec<Vec<String>>,
    labels: Vec<String>,
}

impl Tally {
    /// Registers `n` cells, labelled in cell order.
    pub fn new(labels: impl IntoIterator<Item = String>) -> Tally {
        let labels: Vec<String> = labels.into_iter().collect();
        Tally {
            problems: vec![Vec::new(); labels.len()],
            labels,
        }
    }

    /// Records the outcome of one check on cell `id`.
    pub fn record(&mut self, id: usize, outcome: Result<(), String>) {
        if let Err(problem) = outcome {
            self.problems[id].push(problem);
        }
    }

    /// Cells attempted.
    pub fn attempted(&self) -> u64 {
        self.labels.len() as u64
    }

    /// Cells with at least one failed check.
    pub fn failed(&self) -> u64 {
        self.problems.iter().filter(|p| !p.is_empty()).count() as u64
    }

    /// One line per failed cell.
    pub fn failures(&self) -> Vec<String> {
        self.labels
            .iter()
            .zip(&self.problems)
            .filter(|(_, p)| !p.is_empty())
            .map(|(l, p)| format!("{l}: {}", p.join("; ")))
            .collect()
    }
}

/// The cell measured exactly `accesses` accesses and a non-zero cycle count.
pub fn measured(report: &SimReport, accesses: u64, counted: u64) -> Result<(), String> {
    if report.accesses != accesses || counted != accesses {
        return Err(format!(
            "measured {counted} accesses (report says {}), expected {accesses}",
            report.accesses
        ));
    }
    if report.cycles == 0 || report.instructions == 0 {
        return Err(format!(
            "degenerate run: {} cycles, {} instructions",
            report.cycles, report.instructions
        ));
    }
    Ok(())
}

/// `got` equals `want` in every field, floats bit for bit.
pub fn same_report(what: &str, got: &SimReport, want: &SimReport) -> Result<(), String> {
    // `Debug` prints every field, floats in round-trip form, so equal
    // strings mean equal reports.
    if format!("{got:?}") == format!("{want:?}") {
        return Ok(());
    }
    Err(format!(
        "{what} differs: cycles {} vs {}, hbm_bytes {} vs {}, dram_bytes {} vs {}, ipc {} vs {}",
        got.cycles,
        want.cycles,
        got.hbm_bytes,
        want.hbm_bytes,
        got.dram_bytes,
        want.dram_bytes,
        got.ipc,
        want.ipc
    ))
}

/// The observed cell's path counts reconcile with the controller's hit
/// and off-chip counters, and its traffic matrix with the device totals.
pub fn observations(report: &SimReport, obs: &RunObservations) -> Result<(), String> {
    let p = &obs.path_counts;
    if p[0] + p[1] != report.stats.hbm_hits {
        return Err(format!(
            "paths mhbm {} + chbm {} != hbm_hits {}",
            p[0], p[1], report.stats.hbm_hits
        ));
    }
    if p[2] + p[3] + p[4] != report.stats.offchip_serves {
        return Err(format!(
            "paths miss_fill {} + sl_bypass {} + migration {} != offchip_serves {}",
            p[2], p[3], p[4], report.stats.offchip_serves
        ));
    }
    memsim_obs::reconcile(&obs.traffic.matrix, report.hbm_bytes, report.dram_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim_sim::{run_design_batched, Design, MetricsConfig, RunConfig};
    use memsim_trace::SpecProfile;

    fn observed() -> (RunConfig, SimReport, RunObservations) {
        let cfg = RunConfig::tiny();
        let m = MetricsConfig {
            sample_rate: 64,
            ..MetricsConfig::default()
        };
        let (r, o) =
            run_design_batched(Design::Bumblebee, &cfg, &SpecProfile::mcf(), Some(&m), 4096)
                .unwrap();
        (cfg, r, o.unwrap())
    }

    #[test]
    fn clean_cells_pass() {
        let (cfg, r, o) = observed();
        let mut t = Tally::new(["a".to_string()]);
        t.record(0, measured(&r, cfg.accesses, cfg.accesses));
        t.record(0, same_report("self", &r, &r.clone()));
        t.record(0, observations(&r, &o));
        assert_eq!((t.attempted(), t.failed()), (1, 0), "{:?}", t.failures());
    }

    #[test]
    fn tampered_reports_count_as_failed_not_dropped() {
        let (cfg, r, o) = observed();
        let mut cycles = r.clone();
        cycles.cycles += 1;
        let mut zero = r.clone();
        zero.cycles = 0;
        let mut stats = r.clone();
        stats.stats.hbm_hits += 1;
        let mut bytes = r.clone();
        bytes.hbm_bytes += 64;
        let mut t = Tally::new((0..6).map(|i| format!("cell{i}")));
        t.record(0, same_report("tampered", &cycles, &r));
        t.record(1, measured(&zero, cfg.accesses, cfg.accesses));
        t.record(2, measured(&r, cfg.accesses, cfg.accesses - 1));
        t.record(3, observations(&stats, &o));
        t.record(4, observations(&bytes, &o));
        t.record(5, measured(&r, cfg.accesses, cfg.accesses));
        assert_eq!(t.attempted(), 6);
        assert_eq!(t.failed(), 5, "{:?}", t.failures());
        assert!(t.failures().iter().all(|f| !f.starts_with("cell5")));
    }

    #[test]
    fn one_failed_cell_counts_once() {
        let (cfg, r, _) = observed();
        let mut bad = r.clone();
        bad.cycles = 0;
        let mut t = Tally::new(["x".to_string(), "y".to_string()]);
        t.record(0, measured(&bad, cfg.accesses, cfg.accesses));
        t.record(0, same_report("tampered", &bad, &r));
        assert_eq!((t.attempted(), t.failed()), (2, 1));
    }
}
