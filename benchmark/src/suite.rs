//! The parent side: runs each pass in a fresh child process under a
//! wall-clock timeout, pairs the untraced and traced passes, and assembles
//! result documents.

use crate::report::{pretty, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::{Pacing, Workload, WORKLOADS};
use serde_json::{json, Value};
use std::io::Read;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Seed used when none is given (recorded in every result file).
pub const DEFAULT_SEED: u64 = 20_240_611;

/// Run length used when none is given; `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 10;

/// Input scale of `--quick`.
pub const QUICK_SCALE: f64 = 0.05;

/// Wall-clock limit for one child. Two children plus cargo's start-up must
/// fit the contract's 180 s.
const CHILD_TIMEOUT: Duration = Duration::from_secs(80);

/// One pass to run in a child.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Requested run length.
    pub seconds: u64,
    /// Input scale.
    pub scale: f64,
    /// Traced or untraced.
    pub traced: bool,
    /// Set-ups to time (their median is `setup_s`).
    pub setups: usize,
}

/// Runs one pass in a fresh child process and parses its result line.
///
/// # Errors
/// Names the workload when the child times out, dies, or prints no result.
pub fn run_child(pass: Pass) -> Result<Value, String> {
    let name = pass.workload.name;
    let exe =
        std::env::current_exe().map_err(|e| format!("{name}: cannot find own binary: {e}"))?;
    let mut command = match pinned_cpu() {
        Some(cpu) => {
            let mut taskset = Command::new("taskset");
            taskset.args(["-c", &cpu.to_string()]).arg(exe);
            taskset
        }
        None => Command::new(exe),
    };
    let mut child = command
        .arg("child")
        .args(["--workload", name])
        .args(["--seed", &pass.seed.to_string()])
        .args(["--seconds", &pass.seconds.to_string()])
        .args(["--scale", &pass.scale.to_string()])
        .args(["--trace", if pass.traced { "1" } else { "0" }])
        .args(["--setups", &pass.setups.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("{name}: cannot start child: {e}"))?;
    // The result is one line; the pipe buffer holds it, so the child never
    // blocks on a parent that is busy watching the clock.
    let mut stdout = child.stdout.take().expect("piped stdout");
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{name}: FAILED, child exceeded the {} s wall-clock timeout and was killed",
                    CHILD_TIMEOUT.as_secs()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{name}: FAILED, cannot wait for child: {e}"));
            }
        }
    };
    let mut text = String::new();
    stdout.read_to_string(&mut text).map_err(|e| format!("{name}: unreadable result: {e}"))?;
    if !status.success() {
        return Err(format!("{name}: FAILED, child exited with {status}"));
    }
    let line =
        text.lines().last().ok_or_else(|| format!("{name}: FAILED, child printed nothing"))?;
    serde_json::from_str(line).map_err(|e| format!("{name}: FAILED, unparsable result: {e}"))
}

/// The CPU every child is pinned to: the highest one this process may run
/// on, if `taskset` exists. The driver is one thread plus at most one
/// scoring worker in strict fork/join, so one CPU loses no parallelism —
/// and on a 2-vCPU VM it turns the pool's hand-off from a cross-vCPU
/// wake-up, whose latency flips between ~12 us and ~50 us with host
/// placement, into a context switch that costs the same on every run.
pub fn pinned_cpu() -> Option<u32> {
    static CPU: OnceLock<Option<u32>> = OnceLock::new();
    *CPU.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let allowed = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        let last: u32 = allowed.trim().rsplit([',', '-']).next()?.parse().ok()?;
        let works = Command::new("taskset")
            .args(["-c", &last.to_string(), "true"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        works.then_some(last)
    })
}

/// Mutable access to member `key` of a JSON object.
fn member_mut<'a>(doc: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match doc {
        Value::Object(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn flag(doc: &Value, key: &str) -> bool {
    doc.get(key).and_then(Value::as_bool).unwrap_or(false)
}

fn number(doc: &Value, key: &str) -> f64 {
    doc.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn text<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Names of the checks a result document failed.
fn failed_checks(doc: &Value) -> Vec<String> {
    doc.get("checks")
        .and_then(Value::as_array)
        .map(|checks| {
            checks
                .iter()
                .filter(|c| !flag(c, "ok"))
                .map(|c| format!("{} ({})", text(c, "name"), text(c, "detail")))
                .collect()
        })
        .unwrap_or_default()
}

/// A traced pass paired with the untraced pass of the same seed: digests
/// must be byte-identical, and the wall-clock ratio is the tracing overhead.
pub struct Paired {
    /// The traced child's document, `trace_overhead_frac` filled in.
    pub traced: Value,
    /// Whether both passes were correct and their digests matched.
    pub correct: bool,
    /// Human-readable reasons when not.
    pub problems: Vec<String>,
}

/// Pairs the two passes of one seed.
pub fn pair(untraced: &Value, mut traced: Value) -> Paired {
    let mut problems = Vec::new();
    for (label, doc) in [("untraced", untraced), ("traced", &traced)] {
        for check in failed_checks(doc) {
            problems.push(format!("{label}: check failed: {check}"));
        }
        if number(doc, "failed") > 0.0 {
            problems.push(format!("{label}: {} operations failed", number(doc, "failed")));
        }
    }
    for digest in ["detections_digest", "incidents_digest"] {
        if text(untraced, digest) != text(&traced, digest) {
            problems.push(format!(
                "{digest} differs between the untraced ({}) and traced ({}) pass",
                text(untraced, digest),
                text(&traced, digest)
            ));
        }
    }
    // Ratio of the two passes' median segment rates: steadier than the ratio
    // of their wall clocks, which one stall on either side would move.
    let rate = |doc: &Value| {
        doc.get("end_to_end")
            .and_then(|m| m.get("records_per_s")?.get("value")?.as_f64())
            .unwrap_or(0.0)
    };
    let overhead = rate(untraced) / rate(&traced).max(1e-9) - 1.0;
    if let Some(slot) = member_mut(&mut traced, "per_layer")
        .and_then(|layers| member_mut(layers, "trace_overhead_frac"))
    {
        *slot = json!({ "value": overhead, "unit": "ratio" });
    }
    Paired { traced, correct: problems.is_empty(), problems }
}

/// The builder's contract: one workload, one seed, end-to-end metrics
/// untraced or per-layer metrics traced, one JSON object as the last line.
///
/// # Errors
/// When a child times out or dies: no result is printed.
pub fn contract(
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<String, String> {
    let base = Pass { workload, seed, seconds, scale: 1.0, traced: false, setups: 3 };
    let (doc, metrics_key, correct) = if traced {
        let untraced = run_child(Pass { setups: 1, ..base })?;
        let paired = pair(&untraced, run_child(Pass { traced: true, setups: 1, ..base })?);
        for problem in &paired.problems {
            eprintln!("{}: {problem}", workload.name);
        }
        (paired.traced, "per_layer", paired.correct)
    } else {
        let doc = run_child(base)?;
        for check in failed_checks(&doc) {
            eprintln!("{}: check failed: {check}", workload.name);
        }
        let correct = flag(&doc, "correct");
        (doc, "end_to_end", correct)
    };
    let result = json!({
        "correct": correct,
        "attempted": number(&doc, "attempted") as u64,
        "failed": number(&doc, "failed") as u64,
        "metrics": doc.get(metrics_key).cloned().unwrap_or(Value::Null),
    });
    Ok(result.to_string())
}

/// The machine and toolchain a result file was produced on.
fn environment() -> Value {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "children_pinned_to_cpu": pinned_cpu().map_or(Value::Null, |cpu| json!(cpu)),
        "cpu_model": cpu,
        "rustc": run("rustc", &["-V"]),
        "commit": run("git", &["rev-parse", "HEAD"]),
    })
}

/// `xsec-e2e run`: every workload, `runs` untraced passes (seeds `seed`,
/// `seed + 1`, ...) and one traced pass of `seed`, every metric printed by
/// name with its unit. Returns the result document and whether every check
/// passed.
pub fn run_suite(seed: u64, seconds: u64, runs: usize, quick: bool) -> (Value, bool) {
    let scale = if quick { QUICK_SCALE } else { 1.0 };
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for workload in &WORKLOADS {
        println!("== {} — {}", workload.name, workload.why);
        let base = Pass {
            workload,
            seed,
            seconds,
            scale,
            traced: false,
            setups: if quick { 1 } else { 3 },
        };
        let mut untraced = Vec::new();
        let mut problems = Vec::new();
        for r in 0..runs.max(1) {
            match run_child(Pass { seed: seed + r as u64, ..base }) {
                Ok(doc) => untraced.push(doc),
                Err(e) => problems.push(e),
            }
        }
        let mut traced = None;
        if let Some(first) = untraced.first() {
            match run_child(Pass { traced: true, setups: 1, ..base }) {
                Ok(doc) => {
                    let paired = pair(first, doc);
                    problems.extend(paired.problems);
                    traced = Some(paired.traced);
                }
                Err(e) => problems.push(e),
            }
        }
        for doc in untraced.iter().skip(1) {
            problems.extend(
                failed_checks(doc)
                    .into_iter()
                    .map(|c| format!("seed {}: check failed: {c}", number(doc, "seed"))),
            );
        }

        print_workload(&untraced, traced.as_ref());
        for problem in &problems {
            println!("   FAILED  {problem}");
        }
        all_ok &= problems.is_empty();
        let k = match workload.pacing {
            Pacing::Closed => Value::Null,
            Pacing::Open { k } => json!(k),
        };
        workloads.push((
            workload.name.to_string(),
            json!({
                "why": workload.why,
                "k": k,
                "ok": problems.is_empty(),
                "problems": problems,
                "runs": untraced,
                "traced": traced.unwrap_or(Value::Null),
            }),
        ));
    }
    let doc = json!({
        "benchmark": "xsec-e2e",
        "comparable": !quick,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "environment": environment(),
        "workloads": Value::Object(workloads),
    });
    (doc, all_ok)
}

/// Prints every metric of one workload by name with its unit.
fn print_workload(untraced: &[Value], traced: Option<&Value>) {
    let values = |docs: &[Value], section: &str, name: &str| -> Vec<f64> {
        docs.iter().filter_map(|d| d.get(section)?.get(name)?.get("value")?.as_f64()).collect()
    };
    for def in &END_TO_END {
        let v = values(untraced, "end_to_end", def.name);
        if v.is_empty() {
            continue;
        }
        let spread = spread(&v)
            .map_or(String::new(), |s| format!("  spread {:.1}% over {} runs", s * 100.0, v.len()));
        println!(
            "   {:<38} {:>16.4} {:<9} bound {:.0}%{spread}",
            def.name,
            median(&v),
            def.unit,
            def.bound * 100.0
        );
    }
    if let Some(first) = untraced.first() {
        println!(
            "   ({} records in {} buckets, {:.2} s timed, stopped on {})",
            number(first, "records"),
            number(first, "buckets"),
            number(first, "wall_s"),
            text(first, "stopped_on")
        );
    }
    if let Some(traced) = traced {
        for def in &PER_LAYER {
            if let Some(v) = values(std::slice::from_ref(traced), "per_layer", def.name).first() {
                println!("   {:<38} {:>16.4} {}", def.name, v, def.unit);
            }
        }
    }
}

/// Writes a result document to `path`, indented.
///
/// # Errors
/// When the file cannot be written.
pub fn write_result(path: &str, doc: &Value) -> Result<(), String> {
    std::fs::write(path, pretty(doc)).map_err(|e| format!("cannot write {path}: {e}"))
}
