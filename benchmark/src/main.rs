//! Wall-clock functional-mode benchmark of the MLP-Offload reproduction.
//!
//! `run` measures one workload in this process and ends with the one-line
//! JSON result the benchmark contract asks for; `all` and `check-repeat`
//! run every workload in child processes of their own, so memory and CPU
//! numbers belong to one workload alone. See README.md.

mod attribution;
mod probes;
mod sut;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use attribution::{median, quartiles, EngineCounts, Metric, END_TO_END, PER_LAYER};
use workloads::{Budget, Session, Size, Workload, GATED_WORKLOADS, WARMUP_ITERS, WORKLOAD_NAMES};

/// Set-ups per untraced run, each followed by a third of the measured
/// iterations; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// A directory tier must leave this much room on its file system.
const MIN_FREE_BYTES: u64 = 2 << 30;

/// Shares of `--seconds` in a `--trace 1` run: an untraced segment (the
/// tail and the base of the tracing overhead), the traced segment, probes.
const TRACE_RUN_SHARES: [f64; 3] = [0.3, 0.4, 0.3];

const USAGE: &str = "usage:
  mlp-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--tier-root <dir>] [--out <dir>]
  mlp-benchmark all [--seed <u64>] [--seconds <s>] [--tier-root <dir>]
  mlp-benchmark check-repeat [--sets <n>] [--runs <n>] [--workload <name>] [--seed <u64>] [--seconds <s>] [--tier-root <dir>]
workloads: mem_small dir_large throttled_mlp throttled_zero3";

// ---------------------------------------------------------------------------
// arguments
// ---------------------------------------------------------------------------

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    runs: usize,
    /// Where directory tiers live; defaults to the benchmark's `out/`.
    tier_root: PathBuf,
    /// Where `run --trace 1` writes the Chrome trace, if anywhere.
    out: Option<PathBuf>,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        sets: 2,
        runs: 5,
        tier_root: out_dir(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--sets" => parsed.sets = value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?,
            "--runs" => parsed.runs = value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?,
            "--tier-root" => parsed.tier_root = PathBuf::from(value),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

// ---------------------------------------------------------------------------
// environment and guards
// ---------------------------------------------------------------------------

/// File-system type of the mount `path` is on (`/proc/self/mountinfo`).
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let (mount, fs) = line.split_once(" - ")?;
            let point = mount.split(' ').nth(4)?;
            path.starts_with(point)
                .then(|| (point.len(), fs.split(' ').next().unwrap_or("")))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs.to_string())
}

/// Free bytes on the file system of `path`, as `df` reports them.
fn free_bytes(path: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(path).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let available_kib: u64 = text
        .lines()
        .nth(1)?
        .split_ascii_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(available_kib * 1024)
}

/// Refuses a tier root that is not writable or too full, before anything
/// is measured. Returns `(file-system type, free bytes)` for the record.
fn check_tier_root(root: &Path) -> Result<(String, u64), String> {
    let probe = root.join(format!("writable-{}", std::process::id()));
    std::fs::create_dir_all(root)
        .and_then(|()| std::fs::write(&probe, b"x"))
        .and_then(|()| std::fs::remove_file(&probe))
        .map_err(|e| format!("tier root {} is not writable: {e}", root.display()))?;
    let free = free_bytes(root).ok_or_else(|| {
        format!(
            "cannot tell the free space under {} (is `df` there?)",
            root.display()
        )
    })?;
    if free < MIN_FREE_BYTES {
        return Err(format!(
            "tier root {} has {} MiB free; directory tiers need {} MiB",
            root.display(),
            free >> 20,
            MIN_FREE_BYTES >> 20
        ));
    }
    Ok((fs_type(root).unwrap_or_else(|| "unknown".into()), free))
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a result depends on besides the code: recorded with every run.
fn run_environment(w: &Workload, args: &Args) -> Result<Vec<(String, String)>, String> {
    let (workers, queue_depth) = sut::aio_defaults();
    let mut env = vec![
        ("workload".to_string(), w.name.to_string()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("params_per_subgroup".into(), w.n.to_string()),
        ("subgroups".into(), w.m.to_string()),
        ("warmup_iters".into(), WARMUP_ITERS.to_string()),
        ("nproc".into(), nproc().to_string()),
        ("aio_workers".into(), workers.to_string()),
        ("aio_queue_depth".into(), queue_depth.to_string()),
    ];
    if w.tier_dir.is_some() {
        let (fs, free) = check_tier_root(&args.tier_root)?;
        env.push(("tier_root".into(), args.tier_root.display().to_string()));
        env.push(("tier_root_fs".into(), fs));
        env.push(("tier_root_free_mib".into(), (free >> 20).to_string()));
    }
    Ok(env)
}

// ---------------------------------------------------------------------------
// one run
// ---------------------------------------------------------------------------

/// The outcome of one run, before printing.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Informational `name value` lines (sample counts and the like).
    info: Vec<(String, String)>,
}

impl Report {
    /// An oracle failure fails every iteration of the run.
    fn new(correct: bool, attempted: usize, failed: usize, metrics: Vec<Metric>) -> Report {
        let failed = if correct { failed } else { attempted };
        Report {
            correct: correct && failed == 0,
            attempted,
            failed,
            metrics,
            info: Vec::new(),
        }
    }
}

/// An untraced run: `setups` times over, set up as a user would, measure
/// within `budget`, check the oracle. The samples of all the set-ups are
/// pooled, so they span the whole run and not only its last seconds;
/// `setup_s` is the median set-up.
fn run_plain(
    w: &Workload,
    seed: u64,
    setups: usize,
    budget: Budget,
    warmup: usize,
) -> io::Result<Report> {
    let mut setup_s = Vec::new();
    let mut pooled = workloads::Measured {
        samples: Vec::new(),
        events: Vec::new(),
    };
    let mut correct = true;
    for _ in 0..setups {
        let (mut session, secs) = Session::set_up(w, seed, false, warmup)?;
        setup_s.push(secs);
        pooled.samples.extend(session.measure(budget).samples);
        correct &= session.verify()?;
        // The engine is gone here, as it would be between two runs.
    }
    let exact = attribution::tier_bytes_repeat(w, &pooled);
    let metrics = attribution::end_to_end(w, &pooled, median(&setup_s), workloads::peak_rss_mib()?);
    let mut report = Report::new(
        correct && exact,
        pooled.samples.len(),
        pooled.failed(),
        metrics,
    );
    // The end-to-end timings are the fastest iteration; this is the rest of
    // the distribution, with its sample count.
    let iter_s: Vec<f64> = pooled
        .samples
        .iter()
        .map(workloads::IterSample::iter_s)
        .collect();
    report
        .info
        .push(("samples".into(), iter_s.len().to_string()));
    report
        .info
        .push(("iter_s_p50".into(), json_number(median(&iter_s))));
    report.info.push((
        "iter_s_p90".into(),
        json_number(attribution::percentile(&iter_s, 90.0)),
    ));
    report
        .info
        .push(("tier_bytes_repeat_exactly".into(), exact.to_string()));
    report.info.push((
        "failed_op_share".into(),
        (report.failed as f64 / report.attempted as f64).to_string(),
    ));
    Ok(report)
}

/// A `--trace 1` run: an untraced segment, a traced segment on a fresh
/// engine with the program's sink on, then the probes. Reports the
/// per-layer metrics; never the end-to-end ones.
fn run_traced(
    w: &Workload,
    seed: u64,
    budgets: [Budget; 2],
    probe_budget: Duration,
    probe_working_set: usize,
    warmup: usize,
    trace_out: Option<&Path>,
) -> io::Result<Report> {
    let (mut session, _) = Session::set_up(w, seed, false, warmup)?;
    let plain = session.measure(budgets[0]);
    let plain_correct = session.verify()?;

    let (mut session, _) = Session::set_up(w, seed, true, warmup)?;
    let traced = session.measure(budgets[1]);
    let (pool_high_water, pool_capacity) = session.engine().state_pool();
    let (io_retries, io_errors) = session.engine().io_faults();
    let sink = session.sink().expect("a traced session has a sink");
    let overflow_events = sink.overflow_events();
    if let Some(dir) = trace_out {
        let own: Vec<sut::Event> = traced.samples.iter().flat_map(|s| s.spans()).collect();
        std::fs::create_dir_all(dir)?;
        std::fs::write(
            dir.join(format!("{}.trace.json", w.name)),
            sink.chrome_json(&own),
        )?;
    }
    let traced_correct = session.verify()?;

    let counts = EngineCounts {
        pool_high_water,
        pool_capacity,
        io_retries,
        io_errors,
        overflow_events,
    };
    let mut metrics = attribution::per_layer(w, &plain, &traced, &counts);
    metrics.extend(probes::run(w, seed, probe_budget, probe_working_set)?);

    let correct = plain_correct && traced_correct && overflow_events == 0;
    let attempted = plain.samples.len() + traced.samples.len();
    let mut report = Report::new(
        correct,
        attempted,
        plain.failed() + traced.failed(),
        metrics,
    );
    report
        .info
        .push(("samples_untraced".into(), plain.samples.len().to_string()));
    report
        .info
        .push(("samples_traced".into(), traced.samples.len().to_string()));
    Ok(report)
}

fn json_number(v: f64) -> String {
    // `{}` prints the shortest digits that read back as the same f64.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("run needs --workload")?;
    let w = Workload::named(name, Size::Full, &args.tier_root)
        .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    for (key, value) in run_environment(&w, args)? {
        println!("env {key} {value}");
    }
    let report = if args.trace {
        let [plain, traced, probes] = TRACE_RUN_SHARES.map(|share| share * args.seconds);
        run_traced(
            &w,
            args.seed,
            [Budget::Seconds(plain), Budget::Seconds(traced)],
            Duration::from_secs_f64(probes),
            probes::WORKING_SET_BYTES,
            WARMUP_ITERS,
            args.out.as_deref(),
        )
    } else {
        let each = Budget::Seconds(args.seconds / SETUP_REPEATS as f64);
        run_plain(&w, args.seed, SETUP_REPEATS, each, WARMUP_ITERS)
    }
    .map_err(|e| format!("{name}: {e}"))?;

    // The result must carry exactly the metrics BENCHMARK.json lists.
    let listed: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    if report.metrics.iter().map(|m| m.name).ne(listed) {
        return Err(format!(
            "{name}: the run's metrics differ from the metric table"
        ));
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{name}: metric {} is not finite", m.name));
    }
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, json_number(m.value), m.unit);
    }
    for (key, value) in &report.info {
        println!("info {key} {value}");
    }
    println!("info correct {}", report.correct);
    println!("info attempted {}", report.attempted);
    println!("info failed {}", report.failed);
    println!("{}", result_json(&report));
    Ok(report.correct)
}

// ---------------------------------------------------------------------------
// every workload, each run in a child process
// ---------------------------------------------------------------------------

/// What the parent reads back from one `run` child.
#[derive(Default)]
struct ChildResult {
    env: Vec<(String, String)>,
    metrics: Vec<(String, f64, String)>,
    info: BTreeMap<String, String>,
}

fn run_child(
    workload: &str,
    seed: u64,
    args: &Args,
    trace: bool,
    out: Option<&Path>,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--tier-root")
        .arg(&args.tier_root);
    if let Some(dir) = out {
        cmd.arg("--out").arg(dir);
    }
    // `output` waits for the child; its stderr (the reason of a failure) is
    // passed on.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {}) failed: {}\n{}{}",
            trace as u8,
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut result = ChildResult::default();
    for line in stdout.lines() {
        let mut words = line.split(' ');
        match (words.next(), words.next()) {
            (Some("env"), Some(key)) => {
                result
                    .env
                    .push((key.to_string(), words.collect::<Vec<_>>().join(" ")));
            }
            (Some("metric"), Some(name)) => {
                let value = words.next().and_then(|v| v.parse().ok());
                let value = value.ok_or_else(|| format!("unreadable metric line: {line}"))?;
                result.metrics.push((
                    name.to_string(),
                    value,
                    words.next().unwrap_or("").to_string(),
                ));
            }
            (Some("info"), Some(key)) => {
                result
                    .info
                    .insert(key.to_string(), words.collect::<Vec<_>>().join(" "));
            }
            _ => {}
        }
    }
    Ok(result)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_strings(fields: &[(String, String)]) -> String {
    json_object(
        &fields
            .iter()
            .map(|(k, v)| (k.clone(), json_string(v)))
            .collect::<Vec<_>>(),
    )
}

fn json_metrics(metrics: &[(String, f64, String)]) -> String {
    json_object(
        &metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    format!(
                        "{{\"value\": {}, \"unit\": {}}}",
                        json_number(*value),
                        json_string(unit)
                    ),
                )
            })
            .collect::<Vec<_>>(),
    )
}

fn host_environment(args: &Args) -> Vec<(String, String)> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let (workers, queue_depth) = sut::aio_defaults();
    vec![
        ("nproc".to_string(), nproc().to_string()),
        ("aio_workers".into(), workers.to_string()),
        ("aio_queue_depth".into(), queue_depth.to_string()),
        ("rustc".into(), command_line("rustc", &["-V"], &repo)),
        (
            "git_head".into(),
            command_line("git", &["rev-parse", "HEAD"], &repo),
        ),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        (
            "external_crates".into(),
            "offline stand-ins (benchmark/standins)".into(),
        ),
    ]
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(file), text))
        .map_err(|e| format!("cannot write {}: {e}", dir.join(file).display()))
}

/// Runs every workload: untraced child, then traced child (with probes).
/// Prints every metric by name with its unit and writes `out/results.json`.
fn cmd_all(args: &Args) -> Result<bool, String> {
    let mut all_correct = true;
    let mut iter_s = BTreeMap::new();
    let mut workloads_json = Vec::new();
    for name in WORKLOAD_NAMES {
        let plain = run_child(name, args.seed, args, false, None)?;
        let traced = run_child(name, args.seed, args, true, Some(&out_dir()))?;
        for (metric, value, unit) in plain.metrics.iter().chain(&traced.metrics) {
            println!("{name} {metric} {} {unit}", json_number(*value));
        }
        for (run, kind) in [(&plain, "untraced"), (&traced, "traced")] {
            for (key, value) in &run.info {
                println!("{name} {kind}.{key} {value}");
            }
            all_correct &= run.info.get("correct").is_some_and(|c| c == "true");
        }
        if let Some((_, value, _)) = plain.metrics.iter().find(|(m, _, _)| m == "iter_s") {
            iter_s.insert(name, *value);
        }
        let info = |run: &ChildResult| {
            json_strings(
                &run.info
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        workloads_json.push((
            name.to_string(),
            json_object(&[
                ("environment".into(), json_strings(&plain.env)),
                ("end_to_end".into(), json_metrics(&plain.metrics)),
                ("untraced_run".into(), info(&plain)),
                ("per_layer".into(), json_metrics(&traced.metrics)),
                ("traced_run".into(), info(&traced)),
            ]),
        ));
    }
    // The paper's headline ratio in real bytes; informational, not gated.
    let mut top = vec![
        (
            "environment".to_string(),
            json_strings(&host_environment(args)),
        ),
        ("workloads".into(), json_object(&workloads_json)),
    ];
    if let (Some(mlp), Some(zero3)) = (iter_s.get("throttled_mlp"), iter_s.get("throttled_zero3")) {
        println!("speedup_vs_zero3 {} ratio", json_number(zero3 / mlp));
        top.push(("speedup_vs_zero3".into(), json_number(zero3 / mlp)));
    }
    write_out("results.json", &(json_object(&top) + "\n"))?;
    Ok(all_correct)
}

/// Runs the untraced benchmark as `sets` sets of `runs` runs, each run on
/// a seed of its own, and checks that the set medians of every end-to-end
/// metric agree within the metric's bound: on the gated workloads, or on
/// the one `--workload` names. Writes `out/repeat.json`.
fn cmd_check_repeat(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut report = Vec::new();
    let chosen: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => GATED_WORKLOADS.to_vec(),
    };
    for name in chosen {
        // values[metric][set] = one value per run
        let mut values: BTreeMap<String, Vec<Vec<f64>>> = BTreeMap::new();
        for set in 0..args.sets {
            for run in 0..args.runs {
                let seed = args.seed.wrapping_add((set * args.runs + run) as u64);
                let child = run_child(name, seed, args, false, None)?;
                ok &= child.info.get("correct").is_some_and(|c| c == "true");
                for (metric, value, _) in child.metrics {
                    let sets = values
                        .entry(metric)
                        .or_insert_with(|| vec![Vec::new(); args.sets]);
                    sets[set].push(value);
                }
            }
        }
        let mut metrics_json = Vec::new();
        for (metric, _unit, better, bound) in END_TO_END {
            let sets = values
                .get(metric)
                .ok_or_else(|| format!("{name} did not report {metric}"))?;
            let medians: Vec<f64> = sets.iter().map(|v| median(v)).collect();
            let mut sets_json = Vec::new();
            for (v, med) in sets.iter().zip(&medians) {
                let (q1, q3) = quartiles(v);
                println!(
                    "{name} {metric} median {} q1 {} q3 {} spread {:.4}",
                    json_number(*med),
                    json_number(q1),
                    json_number(q3),
                    (q3 - q1) / med
                );
                sets_json.push(json_object(&[
                    ("median".into(), json_number(*med)),
                    ("q1".into(), json_number(q1)),
                    ("q3".into(), json_number(q3)),
                ]));
            }
            // Every pair of sets, each taken as the base in turn.
            let mut worst: f64 = 0.0;
            for a in &medians {
                for b in &medians {
                    let worse_by = if better == "lower" {
                        (b - a) / a
                    } else {
                        (a - b) / a
                    };
                    worst = worst.max(worse_by);
                }
            }
            let within = worst <= bound;
            ok &= within;
            println!(
                "{name} {metric} sets differ by {worst:.4} (bound {bound}): {}",
                if within { "ok" } else { "FAIL" }
            );
            metrics_json.push((
                metric.to_string(),
                json_object(&[
                    ("sets".into(), format!("[{}]", sets_json.join(", "))),
                    ("worst_difference".into(), json_number(worst)),
                    ("bound".into(), json_number(bound)),
                    ("within_bound".into(), within.to_string()),
                ]),
            ));
        }
        report.push((name.to_string(), json_object(&metrics_json)));
    }
    let top = [
        (
            "environment".to_string(),
            json_strings(&host_environment(args)),
        ),
        ("sets".into(), args.sets.to_string()),
        ("runs_per_set".into(), args.runs.to_string()),
        ("workloads".into(), json_object(&report)),
    ];
    write_out("repeat.json", &(json_object(&top) + "\n"))?;
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "all" => cmd_all(&args),
        "check-repeat" => cmd_check_repeat(&args),
        _ => Err(format!("unknown command {command}\n{USAGE}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("the run finished but an output check or a repeatability bound failed");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name).collect()
    }

    /// Every workload at toy size: the oracle passes, and each run prints
    /// every metric of its table exactly once, in order, with a finite
    /// value.
    #[test]
    fn toy_workloads_pass_the_oracle_and_report_every_metric_once() {
        let root = out_dir().join(format!("selftest-{}", std::process::id()));
        for name in WORKLOAD_NAMES {
            let w = Workload::named(name, Size::Toy, &root).expect("a known workload");
            let plain = run_plain(&w, 7, 1, Budget::Iters(4), 2).expect("untraced toy run");
            assert!(plain.correct, "{name}: untraced oracle");
            assert_eq!((plain.attempted, plain.failed), (4, 0), "{name}");
            assert_eq!(names(&plain.metrics), END_TO_END.map(|(n, ..)| n), "{name}");

            let traced = run_traced(
                &w,
                7,
                [Budget::Iters(4), Budget::Iters(4)],
                Duration::from_millis(70),
                1 << 20,
                2,
                None,
            )
            .expect("traced toy run");
            assert!(
                traced.correct,
                "{name}: traced oracle, or the sink overflowed"
            );
            assert_eq!(names(&traced.metrics), PER_LAYER.map(|(n, ..)| n), "{name}");

            for m in plain.metrics.iter().chain(&traced.metrics) {
                assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
            }
            // The update splits into kernel and exposed time with nothing
            // left over.
            let value = |n: &str| traced.metrics.iter().find(|m| m.name == n).expect(n).value;
            let parts = value("optim.kernel_s_per_iter") + value("core.exposed_s_per_iter");
            assert!(
                (parts - value("core.update_s_per_iter")).abs() < 1e-9,
                "{name}"
            );
        }
        assert!(
            !root.join(format!("tiers-{}", std::process::id())).exists(),
            "tier directories are removed"
        );
        let _ = std::fs::remove_dir(&root);
    }

    /// `"key": value` of a one-line JSON object, as BENCHMARK.json writes
    /// its metrics and workloads.
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
        let rest = rest.trim_start();
        let end = match rest.strip_prefix('"') {
            Some(quoted) => return quoted.split('"').next(),
            None => rest.find([',', '}']).unwrap_or(rest.len()),
        };
        Some(rest[..end].trim())
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |from: &str, to: &str| {
            let start = text.find(from).expect(from);
            let end = text[start..].find(to).map_or(text.len(), |e| start + e);
            text[start..end]
                .lines()
                .filter(|l| l.contains("\"name\":"))
                .collect::<Vec<_>>()
        };

        let workloads = section("\"workloads\"", "\"end_to_end\"");
        let listed: Vec<_> = workloads
            .iter()
            .map(|l| field(l, "name").unwrap())
            .collect();
        assert_eq!(listed, GATED_WORKLOADS);
        assert!(GATED_WORKLOADS.iter().all(|w| WORKLOAD_NAMES.contains(w)));

        let end_to_end = section("\"end_to_end\"", "\"per_layer\"");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (line, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(line, "name"), Some(name));
            assert_eq!(field(line, "unit"), Some(unit));
            assert_eq!(field(line, "better"), Some(better));
            assert_eq!(
                field(line, "bound").and_then(|b| b.parse().ok()),
                Some(bound)
            );
        }

        let per_layer = section("\"per_layer\"", "\u{0}");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (line, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(line, "name"), Some(name));
            assert_eq!(field(line, "unit"), Some(unit));
            assert_eq!(field(line, "better"), Some(better));
        }

        let all_names = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in all_names.chain(WORKLOAD_NAMES) {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }

    /// Only `sut.rs` may name a crate of the program.
    #[test]
    fn sut_is_the_only_file_that_names_the_program() {
        // Built at run time so this file does not contain the needle.
        let needle = format!("{}_", "mlp");
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).expect("src/") {
            let path = entry.expect("a directory entry").path();
            if path.file_name().is_some_and(|f| f == "sut.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("a source file");
            assert!(
                !text.contains(&needle),
                "{} names a program crate",
                path.display()
            );
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let report = Report::new(true, 10, 0, vec![attribution::metric("iter_s", 0.125, "s")]);
        assert_eq!(
            result_json(&report),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"iter_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
        // An oracle failure fails every iteration.
        let failed = Report::new(false, 10, 0, Vec::new());
        assert_eq!((failed.correct, failed.failed), (false, 10));
    }
}
