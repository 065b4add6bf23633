//! Record and replay LLC-miss traces; inspect and diff observability JSONL.
//!
//! ```text
//! trace_tool record <file> [--workloads mcf] [--accesses N] [--scale N]
//! trace_tool replay <file> [--scale N]        # runs Bumblebee vs no-HBM
//! trace_tool info   <file>
//! trace_tool summarize <file.jsonl>           # line/event-kind counts
//! trace_tool timeline  <file.epochs.jsonl> [--cell N]
//! trace_tool histo     <file.epochs.jsonl>    # device latency/queue histograms
//! trace_tool latency   <file.lat.jsonl>       # per-path tails + breakdown
//! trace_tool bandwidth <file.bw.jsonl>        # per-cause traffic + utilization
//! trace_tool diff      <a.epochs.jsonl> <b.epochs.jsonl> [--threshold X]
//! ```
//!
//! The inspection subcommands exit `2` with a clear error on unreadable,
//! empty, or non-matching input instead of printing an empty table. `diff`
//! exits `1` when any matched metric differs by more than `--threshold`
//! (default 0 — the epoch time-series is deterministic, so any delta means
//! the simulation changed behavior). `bandwidth` exits `1` when any
//! cell's cause-attributed byte sums do not reconcile exactly against the
//! devices' undifferentiated counters.

use memsim_sim::report::render_table;
use memsim_sim::{parse_flat, Design, JsonObj, JsonValue, SimParams, System};
use memsim_trace::io::{read_trace, write_trace};
use memsim_analysis::exitcode;
use memsim_types::HybridMemoryController;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(exitcode::USAGE);
}

/// Parses every line of a JSONL file, skipping unparsable lines with a
/// stderr warning. Exits with a clear error when the file cannot be read
/// or contains no parsable lines at all.
fn read_jsonl(path: &str) -> Vec<Vec<(String, JsonValue)>> {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let mut rows = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_flat(line) {
            Some(fields) => rows.push(fields),
            None => eprintln!("warning: {path}:{}: unparsable line skipped", i + 1),
        }
    }
    if rows.is_empty() {
        fail(&format!("{path}: no parsable JSONL lines"));
    }
    rows
}

fn get<'a>(row: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
    row.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str<'a>(row: &'a [(String, JsonValue)], key: &str) -> &'a str {
    get(row, key).and_then(JsonValue::as_str).unwrap_or("?")
}

fn get_u64(row: &[(String, JsonValue)], key: &str) -> u64 {
    get(row, key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn get_f64(row: &[(String, JsonValue)], key: &str) -> f64 {
    get(row, key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// `summarize`: line counts by `kind`, event counts by event name, and
/// the per-cell drop totals of `trace_summary` and `lat_summary` lines.
fn summarize(rows: &[Vec<(String, JsonValue)>]) {
    let mut kinds: Vec<(String, u64)> = Vec::new();
    let mut events: Vec<(String, u64)> = Vec::new();
    let bump = |list: &mut Vec<(String, u64)>, name: &str| {
        match list.iter_mut().find(|(n, _)| n == name) {
            Some((_, c)) => *c += 1,
            None => list.push((name.to_string(), 1)),
        }
    };
    let mut dropped = 0u64;
    let mut ring_cells = 0u64;
    let mut lat_cells = 0u64;
    let mut lat_records = 0u64;
    let mut lat_dropped = 0u64;
    let mut lat_empty_cells = 0u64;
    for row in rows {
        let kind = get_str(row, "kind");
        bump(&mut kinds, kind);
        match kind {
            "event" => bump(&mut events, get_str(row, "event")),
            "trace_summary" => {
                ring_cells += 1;
                dropped += get_u64(row, "dropped");
            }
            "lat_summary" => {
                lat_cells += 1;
                lat_records += get_u64(row, "records");
                lat_dropped += get_u64(row, "dropped");
                if get_u64(row, "sample_rate") > 0 && get_u64(row, "records") == 0 {
                    lat_empty_cells += 1;
                }
            }
            _ => {}
        }
    }
    let mut table = vec![vec!["kind".to_string(), "lines".to_string()]];
    table.extend(kinds.iter().map(|(n, c)| vec![n.clone(), c.to_string()]));
    println!("{}", render_table(&table));
    if !events.is_empty() {
        events.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut table = vec![vec!["event".to_string(), "count".to_string()]];
        table.extend(events.iter().map(|(n, c)| vec![n.clone(), c.to_string()]));
        println!("{}", render_table(&table));
    }
    if ring_cells > 0 {
        println!(
            "events dropped by full rings: {dropped}{}",
            if dropped > 0 { "  (trace is TRUNCATED — raise event_capacity)" } else { "" }
        );
    }
    if lat_cells > 0 {
        println!(
            "sampled latency records: {lat_records} across {lat_cells} cell(s), \
             {lat_dropped} dropped by full rings{}",
            if lat_dropped > 0 { "  (stream is TRUNCATED — raise record_capacity)" } else { "" }
        );
        if lat_empty_cells > 0 {
            fail(&format!(
                "{lat_empty_cells} cell(s) enabled sampling but recorded zero latency \
                 records — the sampler never fired (rate too coarse for the run length?)"
            ));
        }
    }
}

/// `timeline`: the epoch time-series of one cell (or all) as a table.
fn timeline(path: &str, rows: &[Vec<(String, JsonValue)>], cell: Option<u64>) {
    let mut table = vec![
        ["cell", "design", "workload", "epoch", "accesses", "hit%", "cum%", "fills", "migr", "evict", "Rh"]
            .map(str::to_string)
            .to_vec(),
    ];
    for row in rows {
        if get_str(row, "kind") != "epoch" {
            continue;
        }
        if cell.is_some_and(|c| get_u64(row, "cell") != c) {
            continue;
        }
        table.push(vec![
            get_u64(row, "cell").to_string(),
            get_str(row, "design").to_string(),
            get_str(row, "workload").to_string(),
            get_u64(row, "epoch").to_string(),
            get_u64(row, "accesses").to_string(),
            format!("{:.1}", get_f64(row, "hit_rate") * 100.0),
            format!("{:.1}", get_f64(row, "cum_hit_rate") * 100.0),
            get_u64(row, "fills").to_string(),
            get_u64(row, "migrations").to_string(),
            get_u64(row, "evictions").to_string(),
            format!("{:.2}", get_f64(row, "rh")),
        ]);
    }
    if table.len() == 1 {
        fail(&format!(
            "no epoch lines{} in {path} (epochs come from --metrics runs)",
            cell.map_or(String::new(), |c| format!(" for cell {c}"))
        ));
    }
    println!("{}", render_table(&table));
}

/// `histo`: every `kind=histogram` line as a power-of-two bucket chart.
fn histo(path: &str, rows: &[Vec<(String, JsonValue)>]) {
    let mut any = false;
    for row in rows {
        if get_str(row, "kind") != "histogram" {
            continue;
        }
        any = true;
        println!(
            "cell {} {} {} — {} {}: {} samples, mean {:.1}, max {}",
            get_u64(row, "cell"),
            get_str(row, "design"),
            get_str(row, "workload"),
            get_str(row, "device"),
            get_str(row, "metric"),
            get_u64(row, "total"),
            get_f64(row, "mean"),
            get_u64(row, "max"),
        );
        let buckets: Vec<(u32, u64)> = row
            .iter()
            .filter_map(|(k, v)| {
                let idx = k.strip_prefix('b')?.parse().ok()?;
                Some((idx, v.as_u64()?))
            })
            .collect();
        let peak = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
        for (k, count) in buckets {
            let lo: u64 = if k == 0 { 0 } else { 1 << k };
            let bar = "#".repeat(((count * 40).div_ceil(peak)) as usize);
            println!("  ≥{lo:>12} cycles  {count:>10}  {bar}");
        }
        println!();
    }
    if !any {
        fail(&format!("no histogram lines in {path} (histograms come from --metrics runs)"));
    }
}

/// `latency`: per-path tail latencies (p50/p95/p99), the critical-path
/// breakdown (mean lookup / queue wait / bank service / migration stall
/// per sampled access), and an exact reconciliation of the per-path
/// counts against the controller's hit/miss/bypass counters. Exits `1`
/// when any cell's paths do not reconcile — the sampled taxonomy then
/// disagrees with the simulation it claims to describe.
fn latency(path: &str, rows: &[Vec<(String, JsonValue)>]) {
    let mut tails = vec![
        ["cell", "design", "workload", "path", "samples", "p50", "p95", "p99"]
            .map(str::to_string)
            .to_vec(),
    ];
    let mut breakdown = vec![
        ["cell", "design", "workload", "path", "lookup", "queue", "service", "stall", "total"]
            .map(str::to_string)
            .to_vec(),
    ];
    for row in rows {
        if get_str(row, "kind") != "lat_hist" {
            continue;
        }
        let coords = [
            get_u64(row, "cell").to_string(),
            get_str(row, "design").to_string(),
            get_str(row, "workload").to_string(),
            get_str(row, "path").to_string(),
        ];
        let count = get_u64(row, "count").max(1);
        tails.push(
            coords
                .iter()
                .cloned()
                .chain([
                    get_u64(row, "count").to_string(),
                    get_u64(row, "p50").to_string(),
                    get_u64(row, "p95").to_string(),
                    get_u64(row, "p99").to_string(),
                ])
                .collect(),
        );
        let per = |k: &str| get_u64(row, k) as f64 / count as f64;
        let total = per("lookup") + per("queue") + per("service") + per("stall");
        breakdown.push(
            coords
                .into_iter()
                .chain([
                    format!("{:.1}", per("lookup")),
                    format!("{:.1}", per("queue")),
                    format!("{:.1}", per("service")),
                    format!("{:.1}", per("stall")),
                    format!("{total:.1}"),
                ])
                .collect(),
        );
    }
    if tails.len() == 1 {
        fail(&format!(
            "no lat_hist lines in {path} (latency records come from --trace-sample runs)"
        ));
    }
    println!("per-path latency tails (cycles):");
    println!("{}", render_table(&tails));
    println!("critical-path breakdown (mean cycles per sampled access):");
    println!("{}", render_table(&breakdown));
    let mut cells = 0u64;
    let mut bad = 0u64;
    for row in rows {
        if get_str(row, "kind") != "lat_summary" {
            continue;
        }
        cells += 1;
        let hits = get_u64(row, "mhbm_hit") + get_u64(row, "chbm_hit");
        let off = get_u64(row, "miss_fill") + get_u64(row, "sl_bypass") + get_u64(row, "migration");
        let ok = hits == get_u64(row, "hbm_hits") && off == get_u64(row, "offchip_serves");
        if !ok {
            bad += 1;
            eprintln!(
                "cell {} {} {}: path counts ({hits} hit / {off} off-chip) do NOT match \
                 controller counters ({} / {})",
                get_u64(row, "cell"),
                get_str(row, "design"),
                get_str(row, "workload"),
                get_u64(row, "hbm_hits"),
                get_u64(row, "offchip_serves"),
            );
        }
    }
    if bad > 0 {
        eprintln!("FAIL: {bad} of {cells} cell(s) do not reconcile");
        std::process::exit(exitcode::FINDINGS);
    }
    println!("ok: path counts reconcile with controller counters in all {cells} cell(s)");
}


/// Every [`TrafficCause`](memsim_types::TrafficCause) label, in emission
/// order, paired with the short column header `bandwidth` prints.
const CAUSE_COLUMNS: [(&str, &str); 9] = [
    ("demand_read", "dem_rd"),
    ("demand_write", "dem_wr"),
    ("miss_fill", "fill"),
    ("writeback", "wb"),
    ("migration_promote", "promote"),
    ("migration_demote", "demote"),
    ("zombie_evict", "zombie"),
    ("pressure_flush", "flush"),
    ("metadata", "meta"),
];

/// `bandwidth`: the cause-attributed traffic breakdown (bytes per device
/// class per cause), the peak bandwidth-utilization table (worst epoch's
/// achieved bytes/cycle against the Table I theoretical peak), and a hard
/// exact reconciliation of the per-cause byte sums against the devices'
/// undifferentiated counters. Exits `1` when any cell does not reconcile
/// — an unclassified or double-counted transaction means the taxonomy
/// disagrees with the simulation it claims to describe.
fn bandwidth(path: &str, rows: &[Vec<(String, JsonValue)>]) {
    let mut breakdown = vec![
        ["cell", "design", "workload", "device"]
            .into_iter()
            .chain(CAUSE_COLUMNS.iter().map(|&(_, short)| short))
            .chain(["bytes", "ops"])
            .map(str::to_string)
            .collect::<Vec<_>>(),
    ];
    for row in rows {
        if get_str(row, "kind") != "bw" {
            continue;
        }
        breakdown.push(
            [
                get_u64(row, "cell").to_string(),
                get_str(row, "design").to_string(),
                get_str(row, "workload").to_string(),
                get_str(row, "device").to_string(),
            ]
            .into_iter()
            .chain(CAUSE_COLUMNS.iter().map(|&(label, _)| get_u64(row, label).to_string()))
            .chain([get_u64(row, "bytes").to_string(), get_u64(row, "ops").to_string()])
            .collect(),
        );
    }
    if breakdown.len() == 1 {
        fail(&format!("no bw lines in {path} (traffic accounting comes from --metrics runs)"));
    }
    println!("cause-attributed traffic (bytes per device class):");
    println!("{}", render_table(&breakdown));

    // Peak utilization: the worst epoch of each (cell, device) series.
    struct Peak {
        coords: [String; 4],
        peak_bpc: f64,
        util_pct: f64,
        busy_pct: f64,
        epochs: u64,
    }
    let mut peaks: Vec<Peak> = Vec::new();
    for row in rows {
        if get_str(row, "kind") != "bw_epoch" {
            continue;
        }
        let coords = [
            get_u64(row, "cell").to_string(),
            get_str(row, "design").to_string(),
            get_str(row, "workload").to_string(),
            get_str(row, "device").to_string(),
        ];
        let util = get_f64(row, "util_pct");
        let busy = get_f64(row, "busy_pct");
        match peaks.iter_mut().find(|p| p.coords == coords) {
            Some(p) => {
                p.util_pct = p.util_pct.max(util);
                p.busy_pct = p.busy_pct.max(busy);
                p.epochs += 1;
            }
            None => peaks.push(Peak {
                coords,
                peak_bpc: get_f64(row, "peak_bpc"),
                util_pct: util,
                busy_pct: busy,
                epochs: 1,
            }),
        }
    }
    if !peaks.is_empty() {
        let mut table = vec![
            ["cell", "design", "workload", "device", "epochs", "peak B/cyc", "peak util%", "peak busy%"]
                .map(str::to_string)
                .to_vec(),
        ];
        for p in &peaks {
            table.push(
                p.coords
                    .iter()
                    .cloned()
                    .chain([
                        p.epochs.to_string(),
                        format!("{:.2}", p.peak_bpc),
                        format!("{:.1}", p.util_pct),
                        format!("{:.1}", p.busy_pct),
                    ])
                    .collect(),
            );
        }
        println!("peak bandwidth utilization (worst epoch per device):");
        println!("{}", render_table(&table));
    }

    // Hard reconciliation: cause sums vs the devices' own byte counters.
    let mut cells = 0u64;
    let mut bad = 0u64;
    for row in rows {
        if get_str(row, "kind") != "bw_summary" {
            continue;
        }
        cells += 1;
        let hbm = get_u64(row, "mhbm_bytes") + get_u64(row, "chbm_bytes");
        let off = get_u64(row, "offchip_bytes");
        let cause_sum: u64 = CAUSE_COLUMNS.iter().map(|&(label, _)| get_u64(row, label)).sum();
        let ok = hbm == get_u64(row, "hbm_bytes")
            && off == get_u64(row, "dram_bytes")
            && cause_sum == get_u64(row, "total_bytes");
        if !ok {
            bad += 1;
            eprintln!(
                "cell {} {} {}: cause-attributed bytes ({hbm} hbm / {off} off-chip, \
                 {cause_sum} by cause) do NOT match device counters ({} / {}, total {})",
                get_u64(row, "cell"),
                get_str(row, "design"),
                get_str(row, "workload"),
                get_u64(row, "hbm_bytes"),
                get_u64(row, "dram_bytes"),
                get_u64(row, "total_bytes"),
            );
        }
    }
    if cells == 0 {
        fail(&format!("no bw_summary lines in {path} — cannot reconcile"));
    }
    if bad > 0 {
        eprintln!("FAIL: {bad} of {cells} cell(s) do not reconcile");
        std::process::exit(exitcode::FINDINGS);
    }
    println!("ok: cause-attributed bytes reconcile with device counters in all {cells} cell(s)");
}

/// Identity fields that name a diffable line rather than measure it.
const DIFF_KEY_FIELDS: [&str; 9] =
    ["kind", "figure", "tag", "cell", "design", "workload", "epoch", "device", "metric"];

/// The identity of one diffable JSONL line: its kind plus every present
/// coordinate field, serialized to a stable string key.
fn diff_key(row: &[(String, JsonValue)]) -> String {
    let mut key = String::new();
    for field in DIFF_KEY_FIELDS {
        if let Some(v) = get(row, field) {
            let part = match v {
                JsonValue::Str(s) => s.clone(),
                JsonValue::Num(n) => format!("{n}"),
                JsonValue::Bool(b) => b.to_string(),
                JsonValue::Null => "null".to_string(),
            };
            key.push_str(&part);
            key.push('|');
        }
    }
    key
}

/// `diff`: matches the deterministic lines of two observability JSONL
/// files by kind + coordinates and reports the largest per-metric deltas.
/// Exits `1` when any delta exceeds `threshold` or lines are unmatched.
fn diff(a_path: &str, b_path: &str, threshold: f64) {
    let a_rows = read_jsonl(a_path);
    let b_rows = read_jsonl(b_path);
    let mut b_index: std::collections::BTreeMap<String, &Vec<(String, JsonValue)>> =
        b_rows.iter().map(|r| (diff_key(r), r)).collect();
    // metric -> (lines differing, max |delta|)
    let mut metrics: Vec<(String, u64, f64)> = Vec::new();
    let mut only_a = 0u64;
    let mut compared = 0u64;
    for row in &a_rows {
        let Some(other) = b_index.remove(&diff_key(row)) else {
            only_a += 1;
            continue;
        };
        compared += 1;
        for (k, v) in row {
            if DIFF_KEY_FIELDS.contains(&k.as_str()) {
                continue;
            }
            let Some(av) = v.as_f64() else { continue };
            let bv = get_f64(other, k);
            let delta = (av - bv).abs();
            match metrics.iter_mut().find(|(n, _, _)| n == k) {
                Some((_, count, max)) => {
                    *count += u64::from(delta > threshold);
                    *max = max.max(delta);
                }
                None => metrics.push((k.clone(), u64::from(delta > threshold), delta)),
            }
        }
    }
    let only_b = b_index.len() as u64;
    if compared == 0 {
        fail(&format!("{a_path} and {b_path} have no lines in common to diff"));
    }
    let mut table =
        vec![["metric", "lines over threshold", "max |Δ|"].map(str::to_string).to_vec()];
    for (name, count, max) in &metrics {
        table.push(vec![name.clone(), count.to_string(), format!("{max}")]);
    }
    println!("{}", render_table(&table));
    println!(
        "{compared} matched line(s); {only_a} only in {a_path}, {only_b} only in {b_path}"
    );
    let exceeded: u64 = metrics.iter().map(|(_, count, _)| count).sum();
    if exceeded > 0 || only_a > 0 || only_b > 0 {
        eprintln!(
            "FAIL: {exceeded} metric value(s) over threshold {threshold}, \
             {} unmatched line(s)",
            only_a + only_b
        );
        std::process::exit(exitcode::FINDINGS);
    }
    println!("ok: no deltas over threshold {threshold}");
}

/// A `--flag value` parse out of the leftover positional args.
fn flag_value<T: std::str::FromStr>(rest: &[String], flag: &str) -> Option<T> {
    let pos = rest.iter().position(|a| a == flag)?;
    rest.get(pos + 1)?.parse().ok()
}

fn main() -> std::io::Result<()> {
    // Subcommand, paths and `--cell`/`--threshold` stay in `rest`.
    let opts = bumblebee_bench::parse_args(std::env::args().skip(1))
        .unwrap_or_else(|e| bumblebee_bench::usage_exit(&e));
    let mut rest = opts.rest.iter();
    let cmd = rest.next().map(String::as_str).unwrap_or("help");
    let path = rest.next().cloned();

    match (cmd, path) {
        ("record", Some(path)) => {
            let profile = opts.profiles.first().expect("at least one workload");
            let stream = opts.cfg.workload(profile);
            let writer = BufWriter::new(File::create(&path)?);
            let n = write_trace(writer, stream.take(opts.cfg.accesses as usize))?;
            println!("recorded {n} accesses of {} to {path}", profile.name);
        }
        ("replay", Some(path)) => {
            let mut lines = Vec::new();
            for design in [Design::NoHbm, Design::Bumblebee] {
                let reader = BufReader::new(File::open(&path)?);
                let controller = design.build(opts.cfg.geometry, opts.cfg.sram_budget);
                let mut system =
                    System::new(controller, opts.cfg.geometry(), SimParams::default(), design.uses_hbm());
                let mut n = 0u64;
                for rec in read_trace(reader)? {
                    system.step(rec?);
                    n += 1;
                }
                let ipc = system.counters().instructions as f64 / system.now().max(1) as f64;
                let hit = system.controller().stats().hbm_hit_rate();
                println!(
                    "{:10}  {} accesses  {} cycles  IPC {:.3}  HBM hit {:.1}%",
                    design.label(),
                    n,
                    system.now(),
                    ipc,
                    hit * 100.0,
                );
                lines.push(
                    JsonObj::new()
                        .str("kind", "trace_replay")
                        .str("trace", &path)
                        .str("design", design.label())
                        .u64("accesses", n)
                        .u64("cycles", system.now())
                        .f64("ipc", ipc)
                        .f64("hbm_hit_rate", hit)
                        .finish(),
                );
            }
            opts.write_jsonl("trace_replay", &lines);
        }
        ("info", Some(path)) => {
            let reader = BufReader::new(File::open(&path)?);
            let mut n = 0u64;
            let mut writes = 0u64;
            let mut max_addr = 0u64;
            for rec in read_trace(reader)? {
                let a = rec?;
                n += 1;
                writes += u64::from(a.kind.is_write());
                max_addr = max_addr.max(a.addr.0);
            }
            println!("{n} accesses, {:.1}% writes, max addr {:#x}", writes as f64 * 100.0 / n.max(1) as f64, max_addr);
        }
        ("summarize", Some(path)) => summarize(&read_jsonl(&path)),
        ("timeline", Some(path)) => {
            timeline(&path, &read_jsonl(&path), flag_value(&opts.rest, "--cell"));
        }
        ("histo", Some(path)) => histo(&path, &read_jsonl(&path)),
        ("latency", Some(path)) => latency(&path, &read_jsonl(&path)),
        ("bandwidth", Some(path)) => bandwidth(&path, &read_jsonl(&path)),
        ("diff", Some(a)) => {
            let b = rest
                .next()
                .unwrap_or_else(|| fail("diff needs two JSONL files"));
            diff(&a, b, flag_value(&opts.rest, "--threshold").unwrap_or(0.0));
        }
        _ => {
            fail(
                "usage: trace_tool record|replay|info <file> [--workloads w] [--accesses N] [--scale N]\n\
                 \x20      trace_tool summarize|timeline|histo|latency|bandwidth <file.jsonl> [--cell N]\n\
                 \x20      trace_tool diff <a.jsonl> <b.jsonl> [--threshold X]",
            );
        }
    }
    Ok(())
}
