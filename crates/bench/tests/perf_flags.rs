//! Bad run-configuration input — the performance flags (`--jobs`,
//! `--shards`, `--batch`) and their environment variables, the run
//! volume and scale, workload names and the trace-sampling rate — exits
//! with status 2 and exactly one line on stderr, before any simulation
//! starts.

use std::process::Command;

/// Runs `fig8` on a tiny configuration with `args` and `env`, returning
/// the exit code and stderr.
fn fig8(args: &[&str], env: &[(&str, &str)]) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig8"));
    cmd.args(["--scale", "256", "--accesses", "1000", "--workloads", "mcf", "--jobs", "1"]);
    cmd.args(args);
    for var in ["BUMBLEBEE_JOBS", "BUMBLEBEE_SHARDS", "BUMBLEBEE_BATCH", "BUMBLEBEE_TRACE_SAMPLE"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    let out = std::env::temp_dir().join(format!("perf_flags-{}", std::process::id()));
    cmd.arg("--out").arg(&out);
    let run = cmd.output().expect("fig8 runs");
    let _ = std::fs::remove_dir_all(&out);
    (run.status.code(), String::from_utf8_lossy(&run.stderr).into_owned())
}

fn assert_usage_error(args: &[&str], env: &[(&str, &str)], needle: &str) {
    let (code, stderr) = fig8(args, env);
    assert_eq!(code, Some(2), "{args:?} {env:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line, no backtrace: {stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains(needle), "{stderr}");
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
}

#[test]
fn good_flags_still_run() {
    let (code, stderr) = fig8(&["--shards", "2", "--batch", "64"], &[]);
    assert_eq!(code, Some(0), "{stderr}");
}
