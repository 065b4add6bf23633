//! Bad run-configuration input — the performance flags (`--jobs`,
//! `--shards`, `--batch`) and their environment variables, the run
//! volume and scale, workload names, the trace-sampling rate, and
//! arguments a binary does not take — exits with status 2, exactly one
//! line on stderr and nothing on stdout, before any simulation starts.

use std::process::Command;

const FIG8: &str = env!("CARGO_BIN_EXE_fig8");

/// Runs the figure binary `exe` on a tiny configuration with `args` and
/// `env`, returning the exit code, stdout and stderr.
fn run(exe: &str, args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String, String) {
    let mut cmd = Command::new(exe);
    cmd.args(["--scale", "256", "--accesses", "1000", "--workloads", "mcf", "--jobs", "1"]);
    cmd.args(args);
    for var in ["BUMBLEBEE_JOBS", "BUMBLEBEE_SHARDS", "BUMBLEBEE_BATCH", "BUMBLEBEE_TRACE_SAMPLE"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    let out = std::env::temp_dir().join(format!("perf_flags-{}", std::process::id()));
    cmd.arg("--out").arg(&out);
    let run = cmd.output().expect("the binary runs");
    let _ = std::fs::remove_dir_all(&out);
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (run.status.code(), text(&run.stdout), text(&run.stderr))
}

fn assert_usage_error_of(exe: &str, args: &[&str], env: &[(&str, &str)], needle: &str) {
    let (code, stdout, stderr) = run(exe, args, env);
    assert_eq!(code, Some(2), "{args:?} {env:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line, no backtrace: {stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains(needle), "{stderr}");
    assert!(stdout.is_empty(), "nothing ran: {stdout}");
}

fn assert_usage_error(args: &[&str], env: &[(&str, &str)], needle: &str) {
    assert_usage_error_of(FIG8, args, env, needle);
}

#[test]
fn bad_jobs_exits_2_with_one_line() {
    assert_usage_error(&["--jobs", "0"], &[], "--jobs");
    assert_usage_error(&["--jobs", "many"], &[], "--jobs");
    assert_usage_error(&[], &[("BUMBLEBEE_JOBS", "0")], "BUMBLEBEE_JOBS");
}

#[test]
fn bad_shards_exits_2_with_one_line() {
    assert_usage_error(&["--shards", "0"], &[], "--shards");
    assert_usage_error(&["--shards", "abc"], &[], "--shards");
    assert_usage_error(&[], &[("BUMBLEBEE_SHARDS", "abc")], "BUMBLEBEE_SHARDS");
}

#[test]
fn bad_batch_exits_2_with_one_line() {
    assert_usage_error(&["--batch", "0"], &[], "--batch");
    assert_usage_error(&["--batch", "-1"], &[], "--batch");
    assert_usage_error(&[], &[("BUMBLEBEE_BATCH", "0")], "BUMBLEBEE_BATCH");
}

#[test]
fn bad_run_config_exits_2_with_one_line() {
    assert_usage_error(&["--workloads", "nope"], &[], "unknown Table II benchmark `nope`");
    assert_usage_error(&["--scale", "0"], &[], "--scale");
    assert_usage_error(&["--scale", "100000"], &[], "--scale 100000");
    assert_usage_error(&["--accesses", "0"], &[], "--accesses");
    assert_usage_error(&["--trace-sample", "0"], &[], "--trace-sample");
    assert_usage_error(&[], &[("BUMBLEBEE_TRACE_SAMPLE", "0")], "BUMBLEBEE_TRACE_SAMPLE");
    assert_usage_error(&["ipcc"], &[], "unexpected argument `ipcc` (expected at most one of: ipc,");
    assert_usage_error(&["ipc", "energy"], &[], "unexpected argument `energy`");
    assert_usage_error(&["--spans"], &[], "unexpected argument `--spans`");
    let fig6 = env!("CARGO_BIN_EXE_fig6");
    assert_usage_error_of(fig6, &["ipc"], &[], "unexpected argument `ipc`");
    let sensitivity = env!("CARGO_BIN_EXE_sensitivity");
    assert_usage_error_of(sensitivity, &["hot-qeue"], &[], "unexpected argument `hot-qeue`");
    // Every swept geometry is checked before the first sweep runs.
    assert_usage_error_of(sensitivity, &["--scale", "2048"], &[], "--scale 2048: swept geometry");
}

#[test]
fn trace_tool_takes_its_subcommand_and_path() {
    let dir = std::env::temp_dir().join(format!("perf_flags-tt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("one.jsonl");
    std::fs::write(&file, "{\"kind\":\"report\"}\n").unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_trace_tool")).arg("summarize").arg(&file).output().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(run.status.code(), Some(0), "{}", String::from_utf8_lossy(&run.stderr));
    assert!(String::from_utf8_lossy(&run.stdout).contains("report"));
}

#[test]
fn good_flags_still_run() {
    let (code, _, stderr) = run(FIG8, &["--shards", "2", "--batch", "64", "ipc"], &[]);
    assert_eq!(code, Some(0), "{stderr}");
}
